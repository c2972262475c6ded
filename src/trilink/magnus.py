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
lcs_depth reads degrees 1 and 2 the same way.  phi multiplies out the
whole truncated series; it serves lcs_depth from degree 3 up and
--show-series, and it is the cross-check of the degree-2 route.
"""

from __future__ import annotations

from .errors import PreconditionError
from .words import FreeWord, abelianization

Monomial = tuple[int, ...]

DEFAULT_DEGREE_CAP = 3
# Highest degree cap (TRILINK_DEGREE_CAP) and depth kmax the CLI accepts.
# The work grows about 3-4x per degree on rank-3 words.  Python 3.11.7,
# 2-CPU Xeon: lcs_depth of a weight-k left-normed commutator at kmax k
# (3 * 2**(k-1) - 2 letters) took 0.043 s at k = 7, 0.29 s at 8 and
# 1.9 s at 9; phi of a 100-letter random word took 0.17 s at cap 7,
# 0.64 s at 8, 1.9 s at 9 and 8.1 s at 10.
MAX_DEGREE_CAP = 8
# Most monomials r**d lcs_depth may read at a degree d for a word with r
# distinct generators, which kmax does not bound.  Python 3.11.7, 2-CPU
# Xeon, via cli.main: x1 ... xr x1^-1 ... xr^-1 at kmax 3 took 0.18 / 0.81
# / 3.8 / 17.5 s at r = 500 / 1000 / 2000 / 4000 before the limit, 0.043 s
# at r = 256; a weight-3 commutator conjugated up to r = 40 took 0.25 s at
# kmax 4.  Work still grows with word length: [[u, v], g] over 40
# generators took 1.2 / 6.4 / 32 s at 200 / 400 / 800 letters at kmax 4.
MAX_DEPTH_TERMS = 2**16


class MagnusSeries:
    """Truncated series: map monomial -> nonzero integer coefficient.

    Treat instances as immutable; every operation returns a new series.
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

    def __mul__(self, other: "MagnusSeries") -> "MagnusSeries":
        return series_mul(self, other)

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


def one(rank: int, degree_cap: int) -> MagnusSeries:
    return MagnusSeries(rank, degree_cap, {(): 1})


def _unchecked_series(rank: int, degree_cap: int, terms: dict[Monomial, int]) -> MagnusSeries:
    """A series from terms already within rank and cap; zeros are dropped.

    Internal products only: it skips the per-monomial checks of
    MagnusSeries.__init__, which every input series has already passed.
    """
    s = MagnusSeries.__new__(MagnusSeries)
    s.rank = rank
    s.degree_cap = degree_cap
    s.terms = {mono: coeff for mono, coeff in terms.items() if coeff}
    return s


def series_mul(s1: MagnusSeries, s2: MagnusSeries) -> MagnusSeries:
    """Product in the truncated ring; overflowing monomials are dropped."""
    if s1.rank != s2.rank:
        raise ValueError(f"rank mismatch: {s1.rank} vs {s2.rank}")
    if s1.degree_cap != s2.degree_cap:
        raise ValueError(f"degree cap mismatch: {s1.degree_cap} vs {s2.degree_cap}")
    cap = s1.degree_cap
    out: dict[Monomial, int] = {}
    for m1, c1 in s1.terms.items():
        room = cap - len(m1)
        for m2, c2 in s2.terms.items():
            if len(m2) > room:
                continue
            key = m1 + m2
            out[key] = out.get(key, 0) + c1 * c2
    return _unchecked_series(s1.rank, cap, out)


def phi(w: FreeWord, degree_cap: int = DEFAULT_DEGREE_CAP) -> MagnusSeries:
    """Magnus image of a word.

    Multiplicative by construction, and exact on inverses: the
    truncated ring is a quotient ring, so phi(w) * phi(w^-1) == 1 with
    no error term.
    """
    if degree_cap < 1:
        raise ValueError(f"degree cap must be positive, got {degree_cap}")
    letter_series: dict[tuple[int, int], MagnusSeries] = {}
    out = one(w.rank, degree_cap)
    for letter in w.letters:
        factor = letter_series.get(letter)
        if factor is None:
            index, sign = letter
            if sign == 1:
                terms = {(): 1, (index,): 1}
            else:
                terms = {(index,) * k: (-1) ** k for k in range(degree_cap + 1)}
            factor = letter_series[letter] = _unchecked_series(w.rank, degree_cap, terms)
        out = series_mul(out, factor)
    return out


def _degree_two(w: FreeWord) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Exponent sums and the a_i a_j (i != j) coefficients of phi(w), in one pass.

    A single letter contributes no a_i a_j with i != j, and the degree-1
    coefficient of x_k^s is s; so each letter (j, s) adds s times the
    running exponent sum of x_i over the letters before it (Fox calculus
    cut at degree 2).  The running sums end as the exponent sums of the
    generators that occur.  Missing pairs have coefficient 0.
    """
    sums: dict[int, int] = {}
    coeffs: dict[tuple[int, int], int] = {}
    for j, s in w.letters:
        for i, e in sums.items():
            if i != j:
                key = (i, j)
                coeffs[key] = coeffs.get(key, 0) + s * e
        sums[j] = sums.get(j, 0) + s
    return sums, coeffs


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
    _degree_two does.  From degree 3 up the series is built at caps 3,
    ..., kmax - 1 and stops at the first cap d with a surviving term of
    positive degree, which is then of degree d: truncation to a lower
    cap is a ring map, so the terms below d were already zero.  A word's
    series always has constant term 1.

    A degree d with r**d > MAX_DEPTH_TERMS, for r distinct generators in
    w, is refused with ValueError before its work starts.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be positive, got {kmax}")
    if kmax == 1 or not w.letters:
        return kmax
    sums = abelianization(w)
    if any(sums.values()):
        return 1
    r = len(sums)
    for d in range(2, kmax):
        if r**d > MAX_DEPTH_TERMS:
            raise ValueError(
                f"degree {d} of a word with {r} distinct generators spans {r}**{d} "
                f"monomials, above MAX_DEPTH_TERMS = {MAX_DEPTH_TERMS}"
            )
        if any(_degree_two(w)[1].values()) if d == 2 else len(phi(w, d).terms) > 1:
            return d
    return kmax
