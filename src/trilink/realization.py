"""Band-by-band assembly of the genus-three generator as a mu-bar value.

A derivative link whose first component runs n parallel passes through
the surface contributes to mu-bar(123) through four families of
commutator pairs of auxiliary curves (tube curves where a band pierces
the pushed-off surface, plus the surface's own core pair).  Each
family's contribution is computable from exponent sums alone, i.e. from
linking numbers read off the Seifert matrix; basings never matter at
that level.  The ledger reads thirteen such linking numbers off the
parametrized matrix, builds the four terms from them, and certifies
that they total n times the generator of the matrix's standard
metabolizer, which the other route reads off the a-to-b block.

The nine parameters (a, b, c, x1, x2, y1, y2, z1, z2) populate the
interleaved genus-3 Seifert matrix

    [[ * ,  a ,  * ,  x1,  * ,  y1],
     [a-1,  0 ,  x2,  0 ,  y2,  0 ],
     [ * ,  x2,  * ,  b ,  * ,  z1],
     [ x1,  0 , b-1,  0 ,  z2,  0 ],
     [ * ,  y2,  * ,  z2,  * ,  c ],
     [ y1,  0 ,  z1,  0 , c-1,  0 ]]

whose starred entries (self-linkings of the a-curves) never enter any
quantity computed here; they default to zero and are accepted as any
symmetric choice.
"""

from __future__ import annotations

from operator import index, mul

from ._record import Record
from .errors import CrossCheckError
from .seifert import SeifertMatrix, generator_from_block, validate


class GenusThreeParams(Record):
    """The nine free entries of the genus-3 matrix above, stored as exact ints (operator.index)."""

    __slots__ = ("a", "b", "c", "x1", "x2", "y1", "y2", "z1", "z2")

    def __init__(self, a: int, b: int, c: int, x1: int, x2: int, y1: int, y2: int,
                 z1: int, z2: int):
        Record.__init__(self, *map(index, (a, b, c, x1, x2, y1, y2, z1, z2)))

    def block(self) -> list[list[int]]:
        """The a-to-b block of the matrix rewritten in blocked ordering."""
        return [
            [self.a, self.x1, self.y1],
            [self.x2, self.b, self.z1],
            [self.y2, self.z2, self.c],
        ]

    def seifert_matrix(self, stars=None) -> SeifertMatrix:
        """The interleaved matrix; stars = (m11, m13, m15, m33, m35, m55)."""
        s11, s13, s15, s33, s35, s55 = stars if stars is not None else (0,) * 6
        return validate(
            [
                [s11, self.a, s13, self.x1, s15, self.y1],
                [self.a - 1, 0, self.x2, 0, self.y2, 0],
                [s13, self.x2, s33, self.b, s35, self.z1],
                [self.x1, 0, self.b - 1, 0, self.z2, 0],
                [s15, self.y2, s35, self.z2, s55, self.c],
                [self.y1, 0, self.z1, 0, self.c - 1, 0],
            ],
            "interleaved",
        )

    def generator(self) -> int:
        """Signed generator value of the standard metabolizer."""
        return generator_from_block(self.block()).signed


class LedgerDescription(Record):
    """Construction bookkeeping only; nothing is computed from these.

    wrap_count and inner_alteration_count mirror how the n-pass first
    component is drawn (its band cores wrap n-2 times, the curves inside
    it are altered n-1 times); they describe the picture, not the sum.
    """

    __slots__ = ("parallel_copies", "wrap_count", "inner_alteration_count")


class Ledger(Record):
    """The four band contributions, their certified total, and the thirteen
    linking numbers they are built from, as (name, value) pairs."""

    __slots__ = ("band1_term", "band3_term", "band5_term", "residual_term", "total", "n",
                 "description", "pushoff_entries")


def ledger(p: GenusThreeParams, n: int, stars=None) -> Ledger:
    """Contribution ledger of the n-pass derivative link.

    The thirteen pushoff entries are row * M * column products of the
    parametrized matrix (stars as in seifert_matrix) against stated
    pairs of homology classes (interleaved coordinates a1, b1, a2, b2,
    a3, b3); the first eight belong to the single-pass construction,
    the last five to its n-pass version, and each is checked against its
    closed form in the nine parameters.  Every term is a 2x2 determinant
    of those linking numbers times a pass count: band1 pierces the
    pushed-off surface a-1 times, n passes of (1,0) against
    (., band1_pair1_vs_3) and one of (0,1) against (band1_pair2_vs_2_n, .);
    band3 and band5 are n*x2 passes of (0,1) against (band3_pair_vs_2, .)
    and n*y2 of (1,0) against (., band5_pair_vs_3); the residual is the
    n-pass core pair (core_first_vs_2_n, core_first_vs_3_n) against
    (core_second_vs_2_n, core_second_vs_3_n).  The total is checked
    against n times the generator, read off the a-to-b block: a slip in
    the matrix layout or in the block read raises CrossCheckError.
    n goes through operator.index.
    """
    n = index(n)
    m = p.seifert_matrix(stars)
    a, b, c = p.a, p.b, p.c
    x1, z1, y1, z2 = p.x1, p.z1, p.y1, p.z2
    vs2, vs3 = [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]  # the classes b2 and b3
    specs = [
        # (name, x class, y class, closed form)
        ("band1_pair1_vs_3", vs3, [0, 0, 0, 0, -1, 0], -(c - 1)),
        ("band1_pair2_vs_2", [0, 1, 1, 1, 0, 1], vs2, b),
        ("band3_pair_vs_2", vs2, [-1, 1, 0, 0, 0, -1], -x1),
        ("band5_pair_vs_3", vs3, [1, -1, 0, 0, 0, 1], y1),
        ("core_first_vs_2", [0, 0, 1, 1, 0, 0], vs2, b),
        ("core_first_vs_3", [0, 0, 1, 1, 0, 0], vs3, z1),
        ("core_second_vs_2", [0, 0, 0, -1, -1, 0], vs2, -z2),
        ("core_second_vs_3", [0, 0, 0, -1, -1, 0], vs3, -c),
        ("band1_pair2_vs_2_n", [0, 1, n, 1, 0, 1], vs2, n * b),
        ("core_first_vs_2_n", [0, 0, n, 1, 0, 0], vs2, n * b),
        ("core_first_vs_3_n", [0, 0, n, 1, 0, 0], vs3, n * z1),
        ("core_second_vs_2_n", [0, 0, -(n - 1), -1, -1, 0], vs2, -(n - 1) * b - z2),
        ("core_second_vs_3_n", [0, 0, -(n - 1), -1, -1, 0], vs3, -(n - 1) * z1 - c),
    ]
    # M y once for each of the five classes y the thirteen entries pair against
    classes = {tuple(col) for _, _, col, _ in specs}
    images = {y: [sum(map(mul, r, y)) for r in m.entries] for y in classes}
    values = []
    for name, row, col, want in specs:
        value = sum(map(mul, row, images[tuple(col)]))
        if value != want:
            raise CrossCheckError(f"entry {name}: matrix gives {value}, closed form {want}")
        values.append(value)
    pair1, _, band3_lk, band5_lk, _, _, _, _, pair2_n, first2, first3, second2, second3 = values
    band1 = (a - 1) * (n * pair1 - pair2_n)
    band3 = -n * p.x2 * band3_lk
    band5 = n * p.y2 * band5_lk
    residual = first2 * second3 - first3 * second2
    total = band1 + band3 + band5 + residual
    expected = n * p.generator()
    if total != expected:
        raise CrossCheckError(f"ledger total {total} != n * generator {expected}")
    return Ledger(
        band1, band3, band5, residual, total, n,
        LedgerDescription(parallel_copies=n, wrap_count=n - 2, inner_alteration_count=n - 1),
        tuple([(name, value) for (name, _, _, _), value in zip(specs, values)]),
    )
