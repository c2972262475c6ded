"""Shared test utilities and independent oracles.

The oracles here deliberately avoid the package's own routines: the
determinant is cofactor expansion (the package uses Bareiss), the Magnus
expansion is a plain dict convolution per letter (the package reads
degree 2 off exponent sums and updates dense per-degree levels), and
primitivity is gcd of maximal minors (the package uses Smith form).
The ledger's commutator pairs are assembled here from exponent sums,
and the genus-one Bezout pair is found by search.
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
    vanishing and minor-gcd primitivity.  Lattices are keyed by their
    canonical column basis.
    """
    from trilink.intlinalg import column_lattice_basis

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
        keys.add(tuple(tuple(r) for r in column_lattice_basis(mat)))
    return keys


def lattice_keys(bases) -> set:
    from trilink.intlinalg import column_lattice_basis

    return {
        tuple(tuple(r) for r in column_lattice_basis(v.as_matrix())) for v in bases
    }


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
    """(z, w) with z*y - w*x = 1, minimal |w|, ties toward w <= 0, by search.

    gcd(x, y) must be 1.  With y = 0, x is +-1 and (z, w) = (0, -x).
    """
    if y == 0:
        return 0, -x
    best = None
    for w in range(-abs(y), abs(y) + 1):
        if (1 + w * x) % y == 0:
            key = (abs(w), w > 0)
            if best is None or key < best[0]:
                best = (key, ((1 + w * x) // y, w))
    return best[1]
