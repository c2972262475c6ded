"""Exact integer linear algebra on small dense matrices.

Matrices are lists of rows of Python ints, so everything is
arbitrary-precision by construction.  All elimination is fraction-free:
Bareiss for determinants, and one extended-gcd routine, row_hnf, for
lattices; the rest is read off Hermite forms.  The Smith diagonal comes
from alternating row Hermite forms of a matrix and of its transpose
until it is diagonal.  That stops: the top-left entry of each form
divides the one before, and once it stops shrinking its row and column
are clear, and the same holds for the trailing block (Kannan and
Bachem, SIAM J. Comput. 8, 1979; Cohen, GTM 138, section 2.4).  A
unimodular transform, where one is needed, is the right block of
row_hnf([m | I]).  Most matrices here are 6x6 or smaller; the largest
are the metabolizer test's at seifert.MAX_VERDICT_GENUS = 16, a 32x32
Seifert matrix against a 32x16 basis, whose Smith diagonal this module
computes.  So the code favors being checkable over being fast.
"""

from __future__ import annotations

from math import gcd, lcm

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Matrix) -> Matrix:
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def bilinear(u: list[int], m: Matrix, v: list[int]) -> int:
    """u^T m v with explicit length checks."""
    if len(u) != len(m) or (m and len(m[0]) != len(v)):
        raise ValueError(f"bilinear form needs lengths {len(m)}/{len(m[0]) if m else 0}, "
                         f"got {len(u)}/{len(v)}")
    return sum(u[i] * m[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = a*x + b*y and g = gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def det(m: Matrix) -> int:
    """Determinant by fraction-free Bareiss elimination (exact)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by the Bareiss division property
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def row_hnf(m: Matrix) -> Matrix:
    """Row Hermite normal form of m.

    Pivots are positive, entries below a pivot are zero, entries above
    are reduced into [0, pivot).  The result is the canonical basis of
    the row lattice of m, padded with zero rows.  The unimodular u with
    u*m = row_hnf(m) is the right block of row_hnf([m | I]), whose left
    block is row_hnf(m).
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if a else 0
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            if a[i][col] == 0:
                continue
            if a[i][col] % a[r][col] == 0:
                f = a[i][col] // a[r][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                continue
            g, s, t = xgcd(a[r][col], a[i][col])
            p, q = a[r][col] // g, a[i][col] // g
            a[r], a[i] = (
                [s * x + t * y for x, y in zip(a[r], a[i])],
                [-q * x + p * y for x, y in zip(a[r], a[i])],
            )
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][col] // a[r][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return a


def snf(m: Matrix) -> list[int]:
    """Smith diagonal (invariant factors) of m, length min(rows, cols).

    Entries are nonnegative, each divides the next, and zeros come last.
    Row Hermite forms of the matrix and of its transpose alternate
    until it is diagonal; a diagonal matrix has the Smith form of its
    entries after gcd/lcm exchanges, d_i, d_j -> gcd, lcm for i < j.
    """
    a = row_hnf(m)
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
        a = row_hnf(transpose(a))
    d = [a[i][i] for i in range(min(len(a), len(a[0]) if a else 0))]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d
