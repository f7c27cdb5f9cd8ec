"""Independent brute-force oracles the tests check the library against.

Nothing here imports the computation paths under test: solution counts come
from nested enumeration, series multiplication and a coin DP over every part
of every cycle type, fixed-point counts from filtering all exponent vectors,
tableaux and their counts from filtering raw fillings,
character tables from coset actions plus Gram-Schmidt peeling, induced
characters from assigning cycles to blocks, ranks
from plain rational Gaussian elimination, symmetrized-monomial ranks from
the whole dense coefficient matrix, subgroup lists from closing
element sets under products, orbit types and non-vanishing witnesses
from filtering all multisets of exponents, orbit types also streamed from
a walk over the weakly decreasing vectors, and classes of level-set
partitions by moving every partition's blocks by every group element.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, permutations


def brute_force_denumerant(coins, d):
    """Count solutions by nested enumeration of each variable."""

    def rec(idx, remaining):
        if idx == len(coins):
            return 1 if remaining == 0 else 0
        total = 0
        step = coins[idx]
        for t in range(remaining // step + 1):
            total += rec(idx + 1, remaining - t * step)
        return total

    return rec(0, d)


def denumerant_series(coins, d_max):
    """Counts for all amounts 0..d_max, as the truncated coefficient list of
    the product of the geometric series 1/(1 - t**a) over the coins, by
    explicit polynomial multiplication."""
    series = [1] + [0] * d_max
    for a in coins:
        factor = [1 if j % a == 0 else 0 for j in range(d_max + 1)]
        out = [0] * (d_max + 1)
        for i, c in enumerate(series):
            if c == 0:
                continue
            for j in range(d_max + 1 - i):
                if factor[j]:
                    out[i + j] += c
        series = out
    return series


def prefix_walk_class_function(m, d):
    """The denumerant of every cycle type of m at amount d, keyed by cycle
    type in reverse-lexicographic order: one coin DP pass per part of each
    cycle type, every part 1 included, with cycle types that share a prefix
    sharing its counts on a stack."""
    values = {}
    stack = [[1] + [0] * d]  # stack[k]: the counts for the first k parts
    previous = ()
    for lam in _partitions_desc(m):
        shared = 0
        while shared < min(len(lam), len(previous)) and lam[shared] == previous[shared]:
            shared += 1
        del stack[shared + 1:]
        for a in lam[shared:]:
            counts = stack[-1].copy()
            for j in range(a, d + 1):
                counts[j] += counts[j - a]
            stack.append(counts)
        values[lam] = stack[-1][d]
        previous = lam
    return values


def exponent_vectors(m, d):
    """Every m-tuple of non-negative integers summing to d, in
    lexicographic order: each first entry, then the vectors of the rest."""
    if m == 1:
        return [(d,)]
    return [
        (first,) + rest for first in range(d + 1) for rest in exponent_vectors(m - 1, d - first)
    ]


def level_set_partition(vector):
    """The positions of ``vector`` grouped by equal entries, as a set of sets."""
    blocks = {}
    for i, x in enumerate(vector):
        blocks.setdefault(x, set()).add(i)
    return frozenset(map(frozenset, blocks.values()))


def level_set_class_count(elements, m, d):
    """The number of classes of the level-set partitions of the degree-d
    exponent vectors under the permutations ``elements`` of range(m), each
    partition's class found by moving its blocks by every element."""
    classes = set()
    for partition in {level_set_partition(v) for v in exponent_vectors(m, d)}:
        classes.add(frozenset(
            frozenset(frozenset(g[i] for i in block) for block in partition) for g in elements
        ))
    return len(classes)


def verify_trace_identity(m, d, values):
    """Whether ``values`` maps each cycle type of degree m to the number of
    degree-d exponent vectors that a permutation of that type fixes, with
    the permutations and the vectors enumerated outright."""
    vectors = exponent_vectors(m, d)
    fixed = {
        cycle_type_of(rep): sum(all(v[i] == v[rep[i]] for i in range(m)) for v in vectors)
        for rep in _class_representatives(m)
    }
    return fixed == dict(values)


def _distinct_arrangements(word):
    """Every distinct ordering of ``word``, in lexicographic order, by the
    classical next-permutation step."""
    word = sorted(word)
    while True:
        yield tuple(word)
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = reversed(word[i + 1 :])


def brute_force_tableaux(shape, content):
    """Every semistandard tableau of ``shape`` in which entry i occurs
    ``content[i-1]`` times, as a tuple of rows, sorted by reading word: each
    distinct arrangement of the content word placed in the cells row by
    row, kept when its rows are weak and its columns strict."""
    word = [value for value, count in enumerate(content, start=1) for _ in range(count)]
    assert len(word) == sum(shape)
    found = []
    for arrangement in _distinct_arrangements(word):
        rows = []
        pos = 0
        for length in shape:
            rows.append(arrangement[pos : pos + length])
            pos += length
        ok = all(
            rows[i][j] <= rows[i][j + 1]
            for i in range(len(rows))
            for j in range(len(rows[i]) - 1)
        ) and all(
            rows[i][j] < rows[i + 1][j]
            for i in range(len(rows) - 1)
            for j in range(len(rows[i + 1]))
        )
        if ok:
            found.append(tuple(rows))
    return found


def brute_force_kostka(shape, content):
    """Count semistandard fillings by filtering all distinct arrangements of
    the content multiset into the diagram, row-major."""
    return len(brute_force_tableaux(shape, content))


@lru_cache(maxsize=None)
def weakly_decreasing_vectors(m, d):
    """Every weakly decreasing m-tuple of non-negative integers summing to
    d, in reverse-lexicographic order, by filtering all size-m multisets
    drawn from 0..d."""
    return tuple(
        sorted(
            (
                tuple(sorted(multiset, reverse=True))
                for multiset in combinations_with_replacement(range(d + 1), m)
                if sum(multiset) == d
            ),
            reverse=True,
        )
    )


def multiplicity_type(vector):
    """How often each distinct entry occurs, sorted descending."""
    return tuple(sorted(Counter(vector).values(), reverse=True))


def brute_force_orbit_types(m, d):
    """How many weakly decreasing vectors (one per orbit) have each
    multiplicity type."""
    return Counter(multiplicity_type(v) for v in weakly_decreasing_vectors(m, d))


def streamed_orbit_types(m, d):
    """The counts of :func:`brute_force_orbit_types`, each weakly decreasing
    vector streamed once from a depth-first walk over its entries, largest
    first, that enters no prefix the entries left cannot bring to d."""
    counts = Counter()

    def walk(prefix, remaining, largest):
        slots = m - len(prefix)
        if not slots:
            counts[multiplicity_type(prefix)] += 1
            return
        for v in range(min(remaining, largest), -1, -1):
            if v * slots < remaining:
                return
            walk(prefix + (v,), remaining - v, v)

    walk((), d, d)
    return counts


def _majorizes(mu, pi):
    """Every prefix sum of ``pi`` is at most that of ``mu`` (equal weights)."""
    width = max(len(mu), len(pi))
    mu_sums = accumulate(tuple(mu) + (0,) * (width - len(mu)))
    pi_sums = accumulate(tuple(pi) + (0,) * (width - len(pi)))
    return all(b <= a for a, b in zip(mu_sums, pi_sums))


def brute_force_witness(m, d, pi):
    """The first weakly decreasing vector, in reverse-lexicographic order,
    whose multiplicity type ``pi`` majorizes, or None."""
    for vector in weakly_decreasing_vectors(m, d):
        if _majorizes(pi, multiplicity_type(vector)):
            return vector
    return None


def compose(p, q):
    return tuple(p[i] for i in q)


def inverse(p):
    out = [0] * len(p)
    for i, image in enumerate(p):
        out[image] = i
    return tuple(out)


def cycle_type_of(p):
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def permutation_of_cycle_type(lam):
    """A canonical permutation with the given cycle type: consecutive cycles
    on 0..m-1, longest first."""
    images = list(range(sum(lam)))
    start = 0
    for length in lam:
        for offset in range(length):
            images[start + offset] = start + (offset + 1) % length
        start += length
    return tuple(images)


def symmetric_group_elements(m):
    return [tuple(p) for p in permutations(range(m))]


def subgroups(elements):
    """Every subgroup of the permutation group with these elements, as
    sorted element tuples ordered by size, then elements: each known
    subgroup is extended by one element and closed under products."""

    def closure(generators):
        found = set(generators)
        frontier = list(found)
        while frontier:
            frontier = [
                p
                for p in {compose(g, h) for g in generators for h in frontier}
                if p not in found
            ]
            found.update(frontier)
        return frozenset(found)

    trivial = frozenset([tuple(range(len(elements[0])))])
    found = {trivial}
    frontier = [trivial]
    while frontier:
        new_frontier = []
        for sub in frontier:
            for g in elements:
                if g not in sub:
                    key = closure(sub | {g})
                    if key not in found:
                        found.add(key)
                        new_frontier.append(key)
        frontier = new_frontier
    return sorted((tuple(sorted(sub)) for sub in found), key=lambda sub: (len(sub), sub))


def coset_induced_trivial_values(mu, m):
    """Values of the permutation character on the left cosets of the Young
    subgroup fixing the consecutive blocks B_1, ..., B_k of sizes mu, per
    cycle type, by explicit coset enumeration.  The coset of sigma is
    determined by its block images (sigma(B_1), ..., sigma(B_k)), and a
    class representative fixes the coset exactly when it maps each image
    onto itself."""
    assert sum(mu) == m
    blocks = []
    start = 0
    for size in mu:
        blocks.append(range(start, start + size))
        start += size
    cosets = {
        tuple(frozenset(sigma[i] for i in block) for block in blocks)
        for sigma in symmetric_group_elements(m)
    }
    values = {}
    for rep in _class_representatives(m):
        values[cycle_type_of(rep)] = sum(
            all(frozenset(rep[i] for i in image) == image for image in coset)
            for coset in cosets
        )
    return values


def induced_trivial_by_assignment(mu, lam):
    """The value on cycle type ``lam`` of the permutation character on the
    cosets of the Young subgroup of shape ``mu``, as the number of ways to
    hand each labelled cycle of ``lam`` to one of the blocks of ``mu`` so
    that block i receives exactly mu[i] points.  A coset is an ordered
    split of the points into blocks of sizes mu, and a permutation fixes it
    exactly when each block is a union of its cycles.  A DP over the
    cycles, whose state is the tuple of remaining block capacities."""
    assert sum(mu) == sum(lam)
    ways = {tuple(mu): 1}
    for length in lam:
        placed = Counter()
        for room, count in ways.items():
            for i, left in enumerate(room):
                if left >= length:
                    placed[room[:i] + (left - length,) + room[i + 1 :]] += count
        ways = placed
    # every cycle is placed, so every surviving state has no room left
    return sum(ways.values())


def orbit_sum_by_assignment(m, types):
    """The denumerant class function of degree m by Young's rule, read
    numerically: for each cycle type, the sum over the ``(type, count)``
    pairs of the orbit types of count times
    :func:`induced_trivial_by_assignment`."""
    return {
        lam: sum(count * induced_trivial_by_assignment(mu, lam) for mu, count in types)
        for lam in _partitions_desc(m)
    }


def literal_induced_class_function(m, d):
    """The denumerant class function as the full average over Gamma(m, d):
    1/m! times the sum, over every exponent vector, of its stabilizer order
    times the permutation character on the cosets of that stabilizer, the
    Young subgroup of its multiplicity type.  Every orbit is repeated just
    often enough to cancel the group order."""
    induced = {}
    totals = Counter()
    for vector in exponent_vectors(m, d):
        mu = multiplicity_type(vector)
        if mu not in induced:
            induced[mu] = coset_induced_trivial_values(mu, m)
        order = math.prod(math.factorial(k) for k in mu)
        for lam, value in induced[mu].items():
            totals[lam] += order * value
    return {lam: Fraction(total, math.factorial(m)) for lam, total in totals.items()}


def _class_representatives(m):
    reps = {}
    for p in symmetric_group_elements(m):
        reps.setdefault(cycle_type_of(p), p)
    return list(reps.values())


def class_sizes_by_counting(m):
    sizes = {}
    for p in symmetric_group_elements(m):
        lam = cycle_type_of(p)
        sizes[lam] = sizes.get(lam, 0) + 1
    return sizes


def assignment_induced_trivial_values(mu, m):
    """:func:`induced_trivial_by_assignment` of ``mu`` on every cycle type
    of degree ``m``, the values of :func:`coset_induced_trivial_values`."""
    return {lam: induced_trivial_by_assignment(mu, lam) for lam in _partitions_desc(m)}


def oracle_character_table(m, induced=coset_induced_trivial_values):
    """The irreducible character table built without the hook/strip
    machinery: induced trivial characters from all Young subgroups (by
    default coset enumeration; ``induced(mu, m)`` gives their values),
    peeled greedily in reverse lexicographic shape order.

    The permutation character of a shape contains its own irreducible once
    and otherwise only irreducibles of lexicographically larger shapes, so
    subtracting the already-found constituents leaves the new irreducible.
    """
    sizes = class_sizes_by_counting(m)
    order = math.factorial(m)
    shapes = _partitions_desc(m)
    table = {}
    for mu in shapes:
        phi = {lam: Fraction(v) for lam, v in induced(mu, m).items()}
        for pi, chi in table.items():
            coeff = (
                sum(sizes[lam] * phi[lam] * chi[lam] for lam in sizes) / order
            )
            if coeff:
                phi = {lam: phi[lam] - coeff * chi[lam] for lam in phi}
        table[mu] = phi
    return {
        pi: {lam: int(v) for lam, v in row.items()} for pi, row in table.items()
    }


def _partitions_desc(m):
    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return list(rec(m, m))


def fraction_matrix_rank(rows):
    """Rank over the rationals by ordinary Gaussian elimination."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    if not matrix:
        return 0
    n_rows, n_cols = len(matrix), len(matrix[0])
    rank = 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if matrix[i][c] != 0), None)
        if piv is None:
            continue
        matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
        scale = matrix[rank][c]
        matrix[rank] = [x / scale for x in matrix[rank]]
        for i in range(n_rows):
            if i != rank and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def dense_rank_dimension(group, chi, d):
    """Dimension of the symmetrized degree-d space as the rank of the dense
    matrix with one row and one column per exponent vector of degree d, in
    lexicographic order: entry (alpha, beta) is the sum of chi(g) over the
    g carrying alpha to beta (entry i of g.alpha is entry g[i] of alpha)."""
    vectors = exponent_vectors(group.m, d)
    column = {beta: j for j, beta in enumerate(vectors)}
    matrix = []
    for alpha in vectors:
        row = [0] * len(vectors)
        for g, value in chi.items():
            row[column[tuple(alpha[i] for i in g)]] += value
        matrix.append(row)
    return fraction_matrix_rank(matrix)


def hook_length_dimension(pi):
    """Number of standard tableaux of the shape, by the hook length
    product."""
    m = sum(pi)
    if m == 0:
        return 1
    conjugate = [sum(1 for part in pi if part > j) for j in range(pi[0])]
    product = 1
    for i, row in enumerate(pi):
        for j in range(row):
            product *= (row - j) + (conjugate[j] - i) - 1
    return math.factorial(m) // product
