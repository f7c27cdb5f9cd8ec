"""Finding the integer-valued irreducible characters of a small group.

The class sums of a finite group multiply through integer structure
constants, and each irreducible character gives a simultaneous eigenvector
of the multiplication matrices: the vector of central character values
``|K| * chi(g) / chi(1)`` per class K.  For an integer-valued character
those eigenvalues are rational algebraic integers, hence integers, so the
character can be recovered by exact rational linear algebra alone: refine
the class space into common eigenspaces probing only integer eigenvalues,
keep the one-dimensional pieces, and rebuild each character from its
normalized eigenvector.  Characters with irrational values never isolate
into a rational line and drop out, which matches the package-wide
restriction to integer-valued characters.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConsistencyError
from .groups import PermutationGroup, compose, inverse
from .linalg import kernel

Vector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


def _class_multiplication_matrices(
    group: PermutationGroup,
) -> tuple[list[tuple], list[Matrix]]:
    """Conjugacy classes plus, per class i, the structure-constant matrix
    whose (j, k) entry counts pairs x in class i, y in class j with x*y equal
    to the chosen class-k representative."""
    classes = group.conjugacy_classes()
    r = len(classes)
    index_of = {g: k for k, cls in enumerate(classes) for g in cls}
    matrices: list[Matrix] = [[[Fraction(0)] * r for _ in range(r)] for _ in range(r)]
    for k, cls_k in enumerate(classes):
        rep = cls_k[0]
        for i, cls_i in enumerate(classes):
            for x in cls_i:
                j = index_of[compose(inverse(x), rep)]
                matrices[i][j][k] += 1
    return classes, matrices


def _common_rational_eigenlines(
    matrices: list[Matrix], class_sizes: list[int]
) -> list[Vector]:
    """One-dimensional pieces of the joint integer-eigenvalue decomposition
    of the commuting family (central character values are bounded by the
    class size, so only those integers are probed)."""
    r = len(class_sizes)
    unit = lambda i: tuple(Fraction(int(j == i)) for j in range(r))
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
                    lifted = [
                        tuple(
                            sum(coords[t] * basis[t][k] for t in range(s))
                            for k in range(r)
                        )
                        for coords in eigen
                    ]
                    refined.append(lifted)
        spaces = refined
    return [basis[0] for basis in spaces if len(basis) == 1]


def integer_irreducible_characters(group: PermutationGroup) -> list[dict]:
    """All integer-valued irreducible characters of ``group``.

    Each character is returned as a dict with the class representatives
    (``classes``), the values per class (``values``), and the degree.  The
    list is sorted by degree, then values, and is complete: every irreducible
    character of the group whose values are all rational integers appears
    exactly once.
    """
    classes, matrices = _class_multiplication_matrices(group)
    sizes = [len(cls) for cls in classes]
    reps = [cls[0] for cls in classes]
    order = group.order
    found = {}
    for line in _common_rational_eigenlines(matrices, sizes):
        if line[0] == 0:
            continue
        omega = [v / line[0] for v in line]
        if any(w.denominator != 1 for w in omega):
            continue
        norm = sum(w * w / size for w, size in zip(omega, sizes))
        degree_sq = Fraction(order) / norm
        if degree_sq.denominator != 1:
            continue
        degree = math.isqrt(degree_sq.numerator)
        if degree * degree != degree_sq.numerator:
            continue
        values = []
        ok = True
        for w, size in zip(omega, sizes):
            val = Fraction(degree * w, size)
            if val.denominator != 1:
                ok = False
                break
            values.append(int(val))
        if not ok:
            continue
        if sum(size * v * v for size, v in zip(sizes, values)) != order:
            raise ConsistencyError("recovered character fails self-pairing")
        found[tuple(values)] = values
    out = [
        {"classes": reps, "values": values, "degree": values[0]}
        for values in found.values()
    ]
    out.sort(key=lambda ch: (ch["degree"], ch["values"]))
    return out
