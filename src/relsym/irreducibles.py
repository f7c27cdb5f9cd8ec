"""Finding the integer-valued irreducible characters of a small group.

The class sums of a finite group multiply through integer structure
constants, and each irreducible character gives a simultaneous eigenvector
of the multiplication matrices: the vector of central character values
``|K| * chi(g) / chi(1)`` per class K.  For an integer-valued character
those eigenvalues are rational algebraic integers, hence integers, so the
character can be recovered from integer kernels alone: refine the class
space into common eigenspaces probing only integer eigenvalues, keep the
one-dimensional pieces, and rebuild each character from its normalized
eigenvector.  Characters with irrational values never isolate into a
rational line and drop out, which matches the package-wide restriction to
integer-valued characters.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConsistencyError
from .groups import PermutationGroup, _getter, inverse
from .linalg import kernel

Vector = tuple[int, ...]
Matrix = list[list[int]]


def _class_multiplication_matrices(
    group: PermutationGroup,
) -> tuple[list[tuple], list[Matrix]]:
    """Conjugacy classes plus, per class i, the structure-constant matrix
    whose (j, k) entry counts pairs x in class i, y in class j with x*y equal
    to the chosen class-k representative."""
    classes = group.conjugacy_classes()
    r = len(classes)
    index_of = {g: k for k, cls in enumerate(classes) for g in cls}
    inverses = [[inverse(x) for x in cls] for cls in classes]
    matrices: list[Matrix] = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k, cls_k in enumerate(classes):
        after_rep = _getter(cls_k[0])  # x^-1 * rep is rep's getter on x^-1
        for i, inverses_i in enumerate(inverses):
            for x_inverse in inverses_i:
                matrices[i][index_of[after_rep(x_inverse)]][k] += 1
    return classes, matrices


def _common_rational_eigenlines(
    matrices: list[Matrix], class_sizes: list[int]
) -> list[Vector]:
    """One-dimensional pieces of the joint integer-eigenvalue decomposition
    of the commuting family (central character values are bounded by the
    class size, so only those integers are probed).  The kernels give integer
    coordinates in an integer basis, so every basis vector is an int vector
    and the probes multiply and eliminate ints only."""
    r = len(class_sizes)
    unit = lambda i: tuple(int(j == i) for j in range(r))
    spaces: list[list[Vector]] = [[unit(i) for i in range(r)]]
    for i in range(1, r):
        mat = matrices[i]
        refined: list[list[Vector]] = []
        for basis in spaces:
            if len(basis) == 1:
                refined.append(basis)
                continue
            s = len(basis)
            images = [
                tuple(sum(mat[j][k] * v[k] for k in range(r)) for j in range(r))
                for v in basis
            ]
            for lam in range(-class_sizes[i], class_sizes[i] + 1):
                # V = span(basis) is invariant under mat and the basis has full
                # column rank, so the kernel of (mat - lam) * basis gives the
                # coordinates of the lam-eigenvectors inside V
                shifted = [
                    [images[t][k] - lam * basis[t][k] for t in range(s)]
                    for k in range(r)
                ]
                eigen = kernel(shifted, s)
                if eigen:
                    refined.append([
                        tuple(sum(c * b[k] for c, b in zip(coords, basis)) for k in range(r))
                        for coords in eigen
                    ])
        spaces = refined
    return [basis[0] for basis in spaces if len(basis) == 1]


def integer_irreducible_characters(group: PermutationGroup) -> list[dict]:
    """All integer-valued irreducible characters of ``group``.

    Each character is returned as a dict with the class representatives
    (``classes``), the values per class (``values``), and the degree.  The
    list is sorted by degree, then values, and is complete: every irreducible
    character of the group whose values are all rational integers appears
    exactly once.

    Divided by its identity-class entry, a rational joint eigenline is a
    central character omega, so chi(1)**2 = |G| / sum(omega_K**2 / |K|) and
    chi_K = chi(1) * omega_K / |K| are integers.  An eigenline that does not
    give an integer character raises ``ConsistencyError``: a bug, never bad input.
    """
    classes, matrices = _class_multiplication_matrices(group)
    sizes = [len(cls) for cls in classes]
    reps = [cls[0] for cls in classes]
    out = []
    for line in _common_rational_eigenlines(matrices, sizes):
        if line[0]:  # a zero identity entry fails the check below, undivided
            omega = [Fraction(v, line[0]) for v in line]
            norm = sum(w * w / size for w, size in zip(omega, sizes))
            degree = math.isqrt(int(group.order / norm))
            values = [degree * w / size for w, size in zip(omega, sizes)]
        # sum(|K| * chi_K**2) is degree**2 * norm: |G| only if degree**2 = |G| / norm
        if not line[0] or any(x.denominator != 1 for x in omega + values) or (
            sum(size * v * v for size, v in zip(sizes, values)) != group.order
        ):
            raise ConsistencyError(f"eigenline {line} gives no integer irreducible character")
        values = [int(v) for v in values]
        out.append({"classes": reps, "values": values, "degree": values[0]})
    out.sort(key=lambda ch: (ch["degree"], ch["values"]))
    return out
