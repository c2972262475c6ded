"""Shared test utilities and independent oracles.

The oracles here deliberately avoid the package's own routines: the
determinant is cofactor expansion (the package uses Bareiss), the Magnus
expansion is a plain dict convolution per letter (the package reads
degree 2 off exponent sums and updates dense per-degree levels), and
primitivity is gcd of maximal minors (the package uses Smith form),
and the skew part M - M^T is read off the entries (the package uses the
ordering's intersection form).  The ledger's commutator pairs are
assembled here from exponent sums, and the genus-one Bezout pair is
found by search.  The metabolizer
search is kept in its older form, which reaches every box basis of a
lattice and drops repeats by Pluecker key.
"""

from __future__ import annotations

import itertools
from math import gcd
from random import Random

from trilink.intlinalg import identity
from trilink.words import FreeWord, exponent_sum, generator, word_power, word_product

UNKNOT_ROWS = [
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0],
]


def spread_word(n: int) -> FreeWord:
    """x1 ... xn x1^-1 ... xn^-1: depth 2, with n distinct generators."""
    letters = [(i, 1) for i in range(1, n + 1)] + [(i, -1) for i in range(1, n + 1)]
    return FreeWord(n, tuple(letters))


def unknot_sum_rows(genus: int) -> list[list[int]]:
    """Block diagonal of genus copies of [[0, 1], [0, 0]] (interleaved)."""
    rows = [[0] * 2 * genus for _ in range(2 * genus)]
    for k in range(genus):
        rows[2 * k][2 * k + 1] = 1
    return rows


def random_word(rng: Random, rank: int, max_len: int) -> FreeWord:
    n = rng.randint(0, max_len)
    letters = tuple((rng.randint(1, rank), rng.choice((1, -1))) for _ in range(n))
    return FreeWord(rank, letters)


def random_commutator_subgroup_word(rng: Random, rank: int = 3, max_len: int = 8) -> FreeWord:
    """Random word with all exponent sums zero (append cancelling tails)."""
    w = random_word(rng, rank, max_len)
    for i in range(1, rank + 1):
        s = exponent_sum(w, i)
        if s:
            w = word_product(w, word_power(generator(rank, i), -s))
    return w


def skew_part(m) -> list[list[int]]:
    """M - M^T of a SeifertMatrix, from its entries."""
    e = m.entries
    return [[e[i][j] - e[j][i] for j in range(m.dim)] for i in range(m.dim)]


def random_unimodular(rng: Random, n: int, steps: int = 12) -> list[list[int]]:
    """Random +-1 determinant integer matrix from elementary operations."""
    m = identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0 and i != j:
            c = rng.randint(-2, 2)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def unimodular_inverse(m: list[list[int]]) -> list[list[int]]:
    """Inverse of a +-1 determinant integer matrix: row_hnf([m | I]) is [I | m^-1]."""
    from trilink.intlinalg import row_hnf

    n = len(m)
    eye = identity(n)
    h = row_hnf([m[i] + eye[i] for i in range(n)])
    assert [row[:n] for row in h] == eye, "matrix is not unimodular"
    return [row[n:] for row in h]


def cofactor_det(m: list[list[int]]) -> int:
    """Laplace expansion along the first row (independent of Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def minors_gcd(m: list[list[int]], k: int) -> int:
    """gcd of all k x k minors (0 if all vanish)."""
    rows, cols = len(m), len(m[0])
    g = 0
    for rsel in itertools.combinations(range(rows), k):
        for csel in itertools.combinations(range(cols), k):
            sub = [[m[i][j] for j in csel] for i in rsel]
            g = gcd(g, cofactor_det(sub))
    return g


def brute_force_metabolizer_lattices(m, bound: int) -> set:
    """Exhaustive metabolizer scan with plain arithmetic.

    Filters isotropic nonzero vectors (a V with a non-isotropic column
    fails on a diagonal entry), then checks every g-subset for full form
    vanishing and minor-gcd primitivity.  Lattices are keyed by
    lattice_key of a basis.
    """
    g = m.genus
    rows = [list(r) for r in m.entries]
    dim = 2 * g

    def pair(u, v):
        return sum(u[i] * rows[i][j] * v[j] for i in range(dim) for j in range(dim))

    vecs = [
        v for v in itertools.product(range(-bound, bound + 1), repeat=dim)
        if any(v) and pair(v, v) == 0
    ]
    keys = set()
    for combo in itertools.combinations(range(len(vecs)), g):
        cols = [list(vecs[i]) for i in combo]
        if any(
            pair(cols[i], cols[j]) != 0
            for i in range(g) for j in range(g) if i != j
        ):
            continue
        mat = [[cols[j][i] for j in range(g)] for i in range(dim)]
        if minors_gcd(mat, g) != 1:
            continue
        keys.add(lattice_key(cols))
    return keys


def pairwise_candidates_and_adjacency(m, bound: int) -> tuple[list, list[int]]:
    """Box candidates and adjacency masks of the metabolizer search, pair by pair.

    Candidates are the primitive isotropic vectors of the box in
    itertools.product order, signed so that their first nonzero entry is
    positive; bit j of adj[i] is set iff u^T M v and v^T M u both vanish
    for candidates u = i and v = j, with i != j.
    """
    cols_of_m = list(zip(*m.entries))
    cands, row_of = [], []
    for vec in itertools.product(range(-bound, bound + 1), repeat=m.dim):
        if gcd(*vec) != 1 or next(x for x in vec if x) < 0:
            continue
        row = [sum(a * b for a, b in zip(vec, col)) for col in cols_of_m]
        if sum(a * b for a, b in zip(row, vec)) == 0:
            cands.append(vec)
            row_of.append(row)
    adj = [0] * len(cands)
    for i, j in itertools.combinations(range(len(cands)), 2):
        if (sum(a * b for a, b in zip(row_of[i], cands[j])) == 0
                and sum(a * b for a, b in zip(row_of[j], cands[i])) == 0):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return cands, adj


def visit_every_basis_metabolizers(m, bound: int) -> list:
    """The metabolizer search that visits every box basis of each lattice.

    Same candidates (primitive isotropic box vectors, one sign each),
    adjacency and gcd pruning as seifert.enumerate_metabolizers, built
    pair by pair by pairwise_candidates_and_adjacency, but without
    membership pruning: every primitive full clique is reached, and a
    repeat lattice is dropped by its Pluecker vector, signed so that its
    first nonzero coordinate is positive.  Returns the Hermite canonical
    basis of each lattice, sorted by columns.
    """
    from trilink.seifert import MetabolizerBasis, _wedge, _wedge_coefficients, _wedge_table

    g, n = m.genus, m.dim
    cands, adj = pairwise_candidates_and_adjacency(m, bound)
    tables = [_wedge_table(n, level) for level in range(g)]

    def cliques(clique, plucker, allowed):
        coeffs = _wedge_coefficients(tables[len(clique)], plucker)
        rest = allowed
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            ext = _wedge(coeffs, cands[j])
            if gcd(*ext) != 1:
                continue
            if len(clique) + 1 == g:
                yield clique + [j], ext
            else:
                yield from cliques(clique + [j], ext, allowed & adj[j] & ~((low << 1) - 1))

    found = {}
    for clique, plucker in cliques([], [1], (1 << len(cands)) - 1):
        key = tuple(plucker) if next(x for x in plucker if x) > 0 else tuple(-x for x in plucker)
        if key not in found:
            found[key] = MetabolizerBasis(lattice_key([cands[i] for i in clique]))
    return sorted(found.values(), key=lambda basis: basis.columns)


def lattice_key(vectors) -> tuple[tuple[int, ...], ...]:
    """Hermite canonical basis of the lattice the vectors span, zero rows dropped."""
    from trilink.intlinalg import row_hnf

    return tuple(tuple(r) for r in row_hnf([list(v) for v in vectors]) if any(r))


def lattice_keys(bases) -> set:
    return {lattice_key(v.columns) for v in bases}


def series_product(s1: dict, s2: dict, cap: int) -> dict[tuple[int, ...], int]:
    """Product of two truncated series given as {monomial: coefficient} dicts."""
    out: dict[tuple[int, ...], int] = {}
    for m1, c1 in s1.items():
        for m2, c2 in s2.items():
            if len(m1) + len(m2) <= cap:
                key = m1 + m2
                out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def series_dict(word: FreeWord, cap: int) -> dict[tuple[int, ...], int]:
    """Independent Magnus expansion: plain dict convolution per letter."""
    acc = {(): 1}
    for index, sign in word.letters:
        if sign == 1:
            letter = {(): 1, (index,): 1}
        else:
            letter = {tuple([index] * k): (-1) ** k for k in range(cap + 1)}
        acc = series_product(acc, letter, cap)
    return acc


def assemble_commutator_contribution(e12: int, e13: int, f12: int, f13: int) -> int:
    """Contribution of one commutator pair [phi, psi] to the mu-bar count.

    (e12, e13) are the exponent sums of the second and third meridians
    in phi, (f12, f13) the same for psi; the [x2,x3]-coordinate of the
    pair's class is then e12*f13 - e13*f12.  Feeding the ledger's
    linking numbers reproduces its four terms: each band1 pass is
    (1,0) against (.,-(c-1)) plus (0,1) against (b,.), each band3 pass
    (0,1) against (-x1,.), each band5 pass (1,0) against (.,y1), and
    the core pair is (b,z1) against (-z2,-c).
    """
    return e12 * f13 - e13 * f12


def brute_force_bezout(x: int, y: int) -> tuple[int, int]:
    """(z, w) with z*y - w*x = 1, minimal |w|, ties toward w <= 0, by search
    outward from w = 0.

    gcd(x, y) must be 1.  With y = 0, x is +-1 and (z, w) = (0, -x).
    """
    if y == 0:
        return 0, -x
    # w = 0, -1, 1, -2, 2, ...: the first solution is the wanted one
    for t in range(abs(y) + 1):
        for w in (-t, t):
            if (1 + w * x) % y == 0:
                return (1 + w * x) // y, w
    raise ValueError(f"gcd({x}, {y}) != 1")
