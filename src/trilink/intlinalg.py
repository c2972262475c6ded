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
row_hnf([m | I]).  With seifert.MAX_GENUS = 3, the package's matrices
are 6x6 or smaller, apart from the completion's 6x9 [V | I].  So the
code favors being checkable over being fast.

The packed kernels of magnus and seifert keep k signed integers v_j
in one Python int, sum of v_j * 2^(w*j), through the private
_Slots(k, limit): w = 8 * step bits, step the fewest bytes with w above
the bit length of limit.  Sums of small multiples of such ints are
exact slot by slot, borrows included, and read back exactly while every
|v_j| <= limit < 2^(w-1).  Only zeros and read add the bias 2^(w-1) to
every slot; it lifts each v_j into [1, 2^w), where no slot borrows from
the next and each slot is its own bytes.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def bilinear(u: list[int], m: Matrix, v: list[int]) -> int:
    """u^T m v with explicit length checks."""
    if len(u) != len(m) or (m and len(m[0]) != len(v)):
        raise ValueError(f"bilinear form needs lengths {len(m)}/{len(m[0]) if m else 0}, "
                         f"got {len(u)}/{len(v)}")
    return sum(map(mul, u, [sum(map(mul, row, v)) for row in m]))


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
        for piv in range(r, rows):
            if a[piv][col]:
                break
        else:
            continue
        top = a[piv]  # the pivot row, stored back into row r once the column is done
        if piv != r:
            a[piv] = a[r]
        p = top[col]
        for i in range(r + 1, rows):
            row = a[i]
            x = row[col]
            if not x:
                continue
            if x % p == 0:
                f = x // p
                a[i] = [u - f * v for u, v in zip(row, top)]
                continue
            g, s, t = xgcd(p, x)
            pg, xg = p // g, x // g
            top, a[i] = ([s * u + t * v for u, v in zip(top, row)],
                         [pg * v - xg * u for u, v in zip(top, row)])
            p = g
        if p < 0:
            top = [-u for u in top]
            p = -p
        a[r] = top
        for i in range(r):
            q = a[i][col] // p
            if q:
                a[i] = [u - q * v for u, v in zip(a[i], top)]
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


_FLAG_CLEAR = bytes.maketrans(b"\0\x80", b"10")  # top byte of a flagged slot -> zero bit


class _Slots:
    """k signed slots of width bits in one integer, each holding |v| <= limit.

    pack returns, and zeros and read take, the unbiased integer sum of
    v_j * 2^(width*j); the bias is added inside zeros and read.
    """

    def __init__(self, k: int, limit: int):
        self.k, self.step = k, limit.bit_length() // 8 + 1  # 8 * step > bit length of limit
        self.width = 8 * self.step
        self.bias = 1 << (self.width - 1)
        ones = int.from_bytes(b"\1".ljust(self.step, b"\0") * k, "little")
        self.high = ones << (self.width - 1)  # the bias in every slot
        self.low = self.high - ones

    def pack(self, values) -> int:
        """values[j] in slot j, for any iterable of values."""
        bias, step = self.bias, self.step
        return int.from_bytes(b"".join((v + bias).to_bytes(step, "little") for v in values),
                              "little") - self.high

    def zeros(self, packed: int, shift: int = 0) -> int:
        """Bitmask of the slots j with v_j + shift == 0; each |v_j + shift| <= limit.

        shift + bias fills every slot as one linear byte repeat.  Rebinding
        packed frees the caller's unbiased total before the flag arithmetic.
        """
        packed += (int.from_bytes((shift + self.bias).to_bytes(self.step, "little") * self.k,
                                  "little")
                   if shift else self.high)
        x = packed ^ self.high  # slot j: v_j + shift mod 2^width
        flags = (((x & self.low) + self.low) | x) & self.high  # top bit set iff v_j + shift != 0
        # one character per slot, slot k-1 first; the leading "0" reads k = 0 as 0
        return int(b"0" + flags.to_bytes(self.k * self.step, "big")[::self.step]
                   .translate(_FLAG_CLEAR), 2)

    def read(self, packed: int) -> list[int]:
        """The value of every slot, slot 0 first."""
        bias, step = self.bias, self.step
        raw = (packed + self.high).to_bytes(self.k * step, "little")
        return [int.from_bytes(raw[i:i + step], "little") - bias
                for i in range(0, len(raw), step)]
