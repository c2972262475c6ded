"""Magnus embedding into truncated noncommutative integer power series.

Words map through x_i -> 1 + a_i (and x_i^-1 to the alternating
geometric series) into the ring of integer series in noncommuting
variables a_1..a_rank, truncated above a degree cap.  Monomials are
index tuples; coefficients are exact Python ints because their growth
is binomial in word length and silent overflow would corrupt every
derived invariant.

Two standard facts drive the API: the coefficient of a1*a2 in the image
of a third longitude is Milnor's triple linking number mu-bar(123), and
the lowest degree of a surviving term bounds lower-central-series depth
(Magnus's criterion).

mu123 (and nilpotent.class_of) need only the a_i a_j coefficients with
i != j, which the degree-2 route _degree_two reads off running exponent
sums in one pass over the word, as in Fox's free differential calculus.
lcs_depth reads degrees 1 and 2 the same way.  Above degree 2 a word is
expanded into dense levels (_levels): its r distinct generators are
relabelled 0..r-1, and level d is one list of the r**d coefficients of
degree d, indexed by the monomial read as a base-r number.  A letter
then updates one slice of each level.  lcs_depth builds the levels from
degree 3 up; phi decodes them into a MagnusSeries for --show-series,
and it is the cross-check of the degree-2 route.  MAX_DEPTH_TERMS bounds
the size of a level and MAX_DEPTH_WORK the slot updates of a request.
"""

from __future__ import annotations

from itertools import compress, product
from operator import add, sub

from .errors import PreconditionError
from .words import FreeWord, abelianization

Monomial = tuple[int, ...]

DEFAULT_DEGREE_CAP = 3
# Highest degree cap (TRILINK_DEGREE_CAP) and depth kmax the CLI accepts.
# The work grows about 3x per degree on rank-3 words.  Python 3.11.7,
# 2-CPU Xeon: lcs_depth of a weight-k left-normed commutator at kmax k
# (3 * 2**(k-1) - 2 letters) took 0.007 s at k = 7, 0.032 s at 8 and
# 0.21 s at 9; phi of an 80-letter random word took 0.013 s at cap 7,
# 0.036 s at 8, 0.12 s at 9 and 0.37 s at 10.
MAX_DEGREE_CAP = 8
# Most monomials r**d of one degree d for a word with r distinct
# generators, which kmax does not bound: a level of _levels holds r**d
# ints.  lcs_depth refuses to read such a degree and phi such a cap.
# r <= 256 at degree 2, r <= 40 at degree 3, r <= 16 at degree 4.
MAX_DEPTH_TERMS = 2**16
# Most slot updates, letters * (1 + r + ... + r**(d-1)) to build levels up
# to degree d (about letters * r**(d-1) for large r), summed over the
# degrees 2..d that lcs_depth reads; phi counts its one cap.  The running
# time follows this count and the size of the coefficients.  Python
# 3.11.7, 2-CPU Xeon, via cli.main, just under the limit: depth of [[u, v],
# g] over 40 generators at kmax 4 (9,718 letters) took 1.0 s, a weight-3
# commutator nested in two more over 16 generators at kmax 5 (3,374
# letters) 0.88 s, x1 ... x256 x1^-1 ... x256^-1 repeated at kmax 3
# (65,024 letters) 0.86 s, a power of a weight-8 commutator at kmax 8 over
# 3 generators (9,932 letters) 0.92 s and over 2 (67,996 letters) 1.8 s;
# mu --show-series at cap 8 of a random 5,088-letter word 1.0 s.
MAX_DEPTH_WORK = 2**24


class MagnusSeries:
    """Truncated series: map monomial -> nonzero integer coefficient.

    Treat instances as immutable.
    """

    __slots__ = ("rank", "degree_cap", "terms")

    def __init__(self, rank: int, degree_cap: int, terms=None):
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        if degree_cap < 1:
            raise ValueError(f"degree cap must be positive, got {degree_cap}")
        self.rank = rank
        self.degree_cap = degree_cap
        clean: dict[Monomial, int] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) > degree_cap:
                raise ValueError(f"monomial {mono} longer than degree cap {degree_cap}")
            if any(not 1 <= i <= rank for i in mono):
                raise ValueError(f"monomial {mono} uses a variable outside 1..{rank}")
            if coeff:
                clean[mono] = coeff
        self.terms = clean

    def coefficient(self, monomial) -> int:
        mono = tuple(monomial)
        if len(mono) > self.degree_cap:
            raise ValueError(f"monomial of degree {len(mono)} exceeds cap {self.degree_cap}")
        if any(not 1 <= i <= self.rank for i in mono):
            raise ValueError(f"monomial {mono} uses a variable outside 1..{self.rank}")
        return self.terms.get(mono, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MagnusSeries):
            return NotImplemented
        return (self.rank == other.rank
                and self.degree_cap == other.degree_cap
                and self.terms == other.terms)

    __hash__ = None  # mutable dict inside; equality is by content

    def __repr__(self) -> str:
        return f"MagnusSeries(rank={self.rank}, cap={self.degree_cap}, {self.to_text()!r})"

    def to_text(self) -> str:
        """Canonical text form, monomials in lexicographic order.

        Example: ``1 + 1*a1 a2 - 1*a2 a1``.
        """
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            body = " ".join(f"a{i}" for i in mono)
            term = f"{abs(coeff)}*{body}" if body else str(abs(coeff))
            if not parts:
                parts.append(term if coeff > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
        return " ".join(parts)


def _relabel(w: FreeWord) -> tuple[list[int], list[tuple[int, int]]]:
    """The distinct generators of w in ascending order, and w's letters on labels 0..r-1.

    Equal letters share one relabelled tuple, so a long word costs one
    list of references and no new tuple per letter.
    """
    gens = sorted({index for index, _ in w.letters})
    label = {(g, s): (n, s) for n, g in enumerate(gens) for s in (1, -1)}
    return gens, [label[letter] for letter in w.letters]


def _updates(letters: int, r: int, d: int) -> int:
    """Slot updates of _levels up to cap d: letters * (1 + r + ... + r**(d-1)).

    At d = 2 this also bounds _degree_two, one row of r per letter.
    """
    return letters * sum(r**e for e in range(d))


def _check_degree(r: int, d: int, work: int) -> None:
    """Refuse, before its work starts, a degree d past MAX_DEPTH_TERMS or MAX_DEPTH_WORK."""
    if r**d > MAX_DEPTH_TERMS:
        raise ValueError(
            f"degree {d} of a word with {r} distinct generators spans {r}**{d} "
            f"monomials, above MAX_DEPTH_TERMS = {MAX_DEPTH_TERMS}"
        )
    if work > MAX_DEPTH_WORK:
        raise ValueError(
            f"degrees up to {d} of a word with {r} distinct generators take {work} "
            f"slot updates, above MAX_DEPTH_WORK = {MAX_DEPTH_WORK}"
        )


def _levels(letters: list[tuple[int, int]], r: int, cap: int) -> list[list[int]]:
    """Dense levels 0..cap of the series of a word relabelled by _relabel.

    Level d holds the r**d coefficients of degree d, the monomial read
    as a base-r number indexing its slot.  Right-multiplying by x_k
    adds c_m to c_{m k} for every m below the cap; the slots m k of
    level d form the slice [k::r], in the order of level d - 1.  So
    x_k adds the old level d - 1 from the top down, and x_k^-1, whose
    image S' solves S' (1 + a_k) = S, subtracts the new level d - 1
    from the bottom up.  A letter updates 1 + r + ... + r**(cap-1) slots.
    """
    levels = [[1]] + [[0] * r**d for d in range(1, cap + 1)]
    top_down = range(cap, 0, -1)
    bottom_up = range(1, cap + 1)
    for k, sign in letters:
        op, order = (add, top_down) if sign == 1 else (sub, bottom_up)
        for d in order:
            level = levels[d]
            level[k::r] = map(op, level[k::r], levels[d - 1])
    return levels


def phi(w: FreeWord, degree_cap: int = DEFAULT_DEGREE_CAP) -> MagnusSeries:
    """Magnus image of a word: its dense levels, decoded into monomials.

    A cap with r**cap > MAX_DEPTH_TERMS, for r distinct generators in w,
    or with more than MAX_DEPTH_WORK slot updates is refused with
    ValueError before its work starts.
    """
    if degree_cap < 1:
        raise ValueError(f"degree cap must be positive, got {degree_cap}")
    gens, letters = _relabel(w)
    r = len(gens)
    _check_degree(r, degree_cap, _updates(len(letters), r, degree_cap))
    terms: dict[Monomial, int] = {}
    for d, level in enumerate(_levels(letters, r, degree_cap)):
        terms.update(zip(compress(product(gens, repeat=d), level), filter(None, level)))
    return MagnusSeries(w.rank, degree_cap, terms)


def _degree_two(w: FreeWord) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Exponent sums and the nonzero a_i a_j (i != j) coefficients of phi(w), in one pass.

    A single letter contributes no a_i a_j with i != j, and the degree-1
    coefficient of x_k^s is s; so each letter (j, s) adds s times the
    running exponent sums to row j of the a_i a_j table (Fox calculus
    cut at degree 2), one list update of length r on the labels of
    _relabel.  The diagonal of the table is not the a_j a_j coefficient
    and is dropped.  The running sums end as the exponent sums of the
    generators that occur.  Missing pairs have coefficient 0.
    """
    gens, letters = _relabel(w)
    r = len(gens)
    sums = [0] * r
    rows = [[0] * r for _ in range(r)]
    for j, s in letters:
        rows[j] = list(map(add if s == 1 else sub, rows[j], sums))
        sums[j] += s
    coeffs = {(gens[i], gens[j]): c
              for j, row in enumerate(rows) for i, c in enumerate(row) if c and i != j}
    return dict(zip(gens, sums)), coeffs


def _commutator_degree_two(w: FreeWord) -> dict[tuple[int, int], int]:
    """_degree_two of a rank-3 word, checked to have all exponent sums zero.

    The one degree-2 read behind mu123 and nilpotent.class_of.
    """
    if w.rank != 3:
        raise ValueError(f"need a word of rank 3, got rank {w.rank}")
    sums, coeffs = _degree_two(w)
    for index in (1, 2, 3):
        if sums.get(index, 0):
            raise PreconditionError(f"nonzero exponent sum for generator {index}")
    return coeffs


def mu123(lambda3: FreeWord) -> int:
    """Milnor's triple linking number from the third longitude word.

    Requires rank 3 and all exponent sums zero (the pairwise linking
    number zero hypothesis); the value is the a1*a2 coefficient of
    phi(lambda3) at any degree cap >= 2, read off in one pass by the
    degree-2 route; phi is its cross-check in the tests.
    """
    return _commutator_degree_two(lambda3).get((1, 2), 0)


def lcs_depth(w: FreeWord, kmax: int) -> int:
    """Largest k <= kmax with no surviving term of degree below k.

    By Magnus's criterion this witnesses membership in the k-th lower
    central subgroup; at finite truncation it cannot distinguish depths
    beyond kmax, so kmax means "at least kmax".  Degrees 1 and 2 need no
    series: the a_i coefficients are the exponent sums e_i, and the a_i^2
    coefficient is C(e_i, 2), which vanishes once every e_i does, so
    degree 2 survives iff some a_i a_j (i != j) coefficient of
    _degree_two does.  From degree 3 up the levels are built at caps 3,
    ..., kmax - 1 and stop at the first cap d whose top level has a
    nonzero slot: truncation to a lower cap is a ring map, so the levels
    below d were already zero.  No monomial is decoded.

    A degree d with r**d > MAX_DEPTH_TERMS, for r distinct generators in
    w, or whose slot updates bring the total past MAX_DEPTH_WORK, is
    refused with ValueError before its work starts.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be positive, got {kmax}")
    if kmax == 1 or not w.letters:
        return kmax
    if any(abelianization(w).values()):
        return 1
    gens, letters = _relabel(w)
    r = len(gens)
    work = 0
    for d in range(2, kmax):
        work += _updates(len(letters), r, d)
        _check_degree(r, d, work)
        if _degree_two(w)[1] if d == 2 else any(_levels(letters, r, d)[d]):
            return d
    return kmax
