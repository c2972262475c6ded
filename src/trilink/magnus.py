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

Every question reads the word through its canonical codes (w._codes,
with w._gens naming the generator of each k), never its letter tuples.
mu123 and nilpotent.class_of read the a_i a_j coefficients (i != j) of
a rank-3 word as in Fox's free differential calculus: c_ij is the
signed count of the pairs of an x_i-letter before an x_j-letter.  _degree_two takes
it from two views of the codes per pair, each one bytes.translate read
as one base-4 integer, by sums of letter positions that are popcounts
under masks cached per size; no Python-level loop runs per letter.
Every other question goes to _packed_levels, which carries the running
sums to every degree over the codes as they are: for a word with r
distinct generators, level d below the cap is one integer of r**d slots
and the top level is r integers, one per last letter, so a letter costs
one shifted big-integer addition per degree.  lcs_depth builds the
levels at caps 2, 3, ... and asks only whether the top is zero; phi
decodes every slot into a MagnusSeries for --show-series, mapping each
k back to its generator through _gens, and it is the cross-check of
_degree_two.
MAX_DEPTH_TERMS bounds the size of a level and MAX_DEPTH_WORK the slot
updates of a request.
"""

from __future__ import annotations

from functools import cache
from itertools import compress, product
from math import comb
from operator import index, sub

from ._record import Record, _int_rows
from .errors import PreconditionError
from .intlinalg import _Slots
from .words import FreeWord, abelianization

Monomial = tuple[int, ...]

DEFAULT_DEGREE_CAP = 3
# Highest degree cap (TRILINK_DEGREE_CAP) and depth kmax the CLI accepts.
# The work grows about 3x per degree on rank-3 words.  Python 3.11.7,
# 2-CPU Xeon, fresh processes, medians of 5, list levels -> packed levels:
# lcs_depth of a weight-k left-normed commutator at kmax k (3 * 2**(k-1)
# - 2 letters) took 0.0086 -> 0.0015 s at k = 7, 0.042 -> 0.0062 s at 8
# and 0.21 -> 0.028 s at 9; phi of an 80-letter random word, whose time
# goes to decoding the 3**cap monomials, took 0.015 -> 0.013 s at cap 7,
# 0.048 -> 0.040 s at 8, 0.15 -> 0.13 s at 9 and 0.50 -> 0.27 s at 10.
MAX_DEGREE_CAP = 8
# Most monomials r**d of one degree d for a word with r distinct
# generators, which kmax does not bound: level d of _packed_levels has
# r**d slots, and phi decodes every one of them.  lcs_depth refuses to
# read such a degree and phi such a cap.
# r <= 256 at degree 2, r <= 40 at degree 3, r <= 16 at degree 4.
MAX_DEPTH_TERMS = 2**16
# Most slot updates, letters * (1 + r + ... + r**(d-1)) to build levels up
# to degree d (about letters * r**(d-1) for large r), summed over the
# degrees 2..d that lcs_depth reads; phi counts its one cap.  The running
# time follows this count and the size of the coefficients.  Python
# 3.11.7, 2-CPU Xeon, via cli.main in fresh processes, medians of 5, just
# under the limit, list levels -> packed levels: depth of [[x1, x2], x3]**990
# conjugated by x4 ... x40 at kmax 4 (9,974 letters) took 0.86 -> 0.077 s,
# a weight-3 commutator nested in two more over 16 generators at kmax 5
# (3,360 letters) 0.79 -> 0.056 s, a power of a weight-8 commutator at kmax
# 8 over 3 generators (9,932 letters) 1.10 -> 0.19 s and over 2 (67,662
# letters) 2.3 -> 0.51 s; mu --show-series at cap 8 of a random 5,088-letter
# word 1.34 -> 0.26 s.  Degree 2 alone costs less per update: x1 ... x256
# x1^-1 ... x256^-1 repeated at kmax 3 (65,024 letters, 256 generators;
# medians of 7) takes 0.035 s.
MAX_DEPTH_WORK = 2**24


class MagnusSeries(Record):
    """Truncated series: map monomial -> nonzero integer coefficient.

    Treat the terms dict as immutable.
    """

    __slots__ = ("rank", "degree_cap", "terms")

    def __init__(self, rank: int, degree_cap: int, terms=None):
        rank, degree_cap = index(rank), index(degree_cap)
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        if degree_cap < 1:
            raise ValueError(f"degree cap must be positive, got {degree_cap}")
        terms = terms or {}
        (coeffs,) = _int_rows([terms.values()])  # the coefficients as one row
        clean: dict[Monomial, int] = {}
        for mono, coeff in zip(_int_rows(terms), coeffs):
            if len(mono) > degree_cap:
                raise ValueError(f"monomial {mono} longer than degree cap {degree_cap}")
            if any(not 1 <= i <= rank for i in mono):
                raise ValueError(f"monomial {mono} uses a variable outside 1..{rank}")
            if coeff:
                clean[mono] = coeff
        Record.__init__(self, rank, degree_cap, clean)

    def coefficient(self, monomial) -> int:
        mono = tuple(monomial)
        if len(mono) > self.degree_cap:
            raise ValueError(f"monomial of degree {len(mono)} exceeds cap {self.degree_cap}")
        if any(not 1 <= i <= self.rank for i in mono):
            raise ValueError(f"monomial {mono} uses a variable outside 1..{self.rank}")
        return self.terms.get(mono, 0)

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


def _updates(letters: int, r: int, d: int) -> int:
    """Slot updates of _packed_levels up to cap d: letters * (1 + r + ... + r**(d-1))."""
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


def _packed_levels(codes, r: int, cap: int):
    """Packed levels 0..cap of the series of a word's codes (FreeWord._codes), r generators.

    Returns the _Slots layouts of levels 0..cap-1 (one width), those
    levels as packed integers, and the top level as r blocks, block k
    holding the monomials that end in k in the layout of level cap - 1.
    Slot k*r**(d-1) + m of level d holds the monomial m followed by k.
    Right-multiplying by x_k (code 2k) adds c_m to c_{m k} for every m
    below the cap: level d - 1, shifted by k*r**(d-1) slots, into level
    d.  So x_k adds the old levels from the top down, and x_k^-1 (code
    2k + 1), whose image S' solves S' (1 + a_k) = S, subtracts the new
    ones from the bottom up.  Level 0 is always 1, so level 1 takes a
    precomputed signed unit per code, slot k set to +-1, and no shift.
    The top gathers what each code adds, as one positive sum per code,
    and block k is the sum of code 2k less that of 2k + 1.  A whole top
    level would make every shift r**cap slots long.

    A degree-d coefficient of a prefix sums +-1 over the ways to cut its
    monomial into one run per letter, so with n letters no slot passes
    C(n + d - 1, d) <= C(n + cap, cap), the slots' limit.
    """
    limit = comb(len(codes) + cap, cap)
    slots = [_Slots(r**d, limit) for d in range(cap)]
    width = slots[0].width
    shifts, unit = [], []  # per code: x_k top down, x_k^-1 bottom up; +-1 in slot k of level 1
    for k in range(r):
        down = [(d, k * r ** (d - 1) * width) for d in range(cap - 1, 1, -1)]
        shifts += down, down[::-1]
        unit += 1 << (k * width), -1 << (k * width)
    last, deep = cap - 1, cap > 2  # below cap 3, the shifts are empty
    levels = [1] + [0] * max(last, 1)  # at cap 1 the top is level 1 and levels[1] is unread
    top = [0] * (2 * r)
    for code in codes:
        if code & 1:
            levels[1] += unit[code]
            if deep:
                for d, shift in shifts[code]:
                    levels[d] -= levels[d - 1] << shift
            top[code] += levels[last]
        else:
            top[code] += levels[last]
            if deep:
                for d, shift in shifts[code]:
                    levels[d] += levels[d - 1] << shift
            levels[1] += unit[code]
    return slots, levels[:cap], list(map(sub, top[::2], top[1::2]))


def phi(w: FreeWord, degree_cap: int = DEFAULT_DEGREE_CAP) -> MagnusSeries:
    """Magnus image of a word: its packed levels, decoded into monomials.

    A cap with r**cap > MAX_DEPTH_TERMS, for r distinct generators in w,
    or with more than MAX_DEPTH_WORK slot updates is refused with
    ValueError before its work starts.  The cap goes through operator.index.
    """
    degree_cap = index(degree_cap)
    if degree_cap < 1:
        raise ValueError(f"degree cap must be positive, got {degree_cap}")
    codes, gens = w._codes, w._gens
    r = len(gens)
    _check_degree(r, degree_cap, _updates(len(codes), r, degree_cap))
    slots, levels, top = _packed_levels(codes, r, degree_cap)
    values = [layout.read(level) for layout, level in zip(slots, levels)]
    values.append([c for block in top for c in slots[-1].read(block)])
    terms: dict[Monomial, int] = {}
    for d, level in enumerate(values):
        monomials = (m[::-1] for m in product(gens, repeat=d))  # in slot order
        terms.update(zip(compress(monomials, level), filter(None, level)))
    return MagnusSeries(w.rank, degree_cap, terms)


_PAIRS = ((1, 2), (1, 3), (2, 3))


@cache
def _views(ki: int, kj: int) -> tuple[tuple[bytes, bytes], ...]:
    """bytes.translate arguments of the views V+ and V- of code pairs ki (x_i) and kj (x_j).

    Each keeps x_j as b"1", x_j^-1 as b"2" and one sign of x_i as b"0"
    (x_i in V+, x_i^-1 in V-), and deletes every other code.
    """
    views = []
    for code in (2 * ki, 2 * ki + 1):
        keep = bytes((code, 2 * kj, 2 * kj + 1))
        delete = bytes(c for c in range(256) if c not in keep)
        views.append((bytes.maketrans(keep, b"012"), delete))
    return tuple(views)


@cache
def _position_masks(bits: int) -> tuple[tuple[int, int], ...]:
    """(even, odd) masks of a base-4 view of up to 2**(bits - 1) letters: all, then level t.

    Letter r of a view, counted from the right, owns bits 2r (even) and
    2r + 1 (odd).  The first pair of masks sets them for every letter,
    the pair of level t = 0, 1, ... for the letters r with bit t set.
    Cached per bits: the longest view read keeps 2 * bits masks of
    2**bits bits.
    """
    every = int.from_bytes(b"\x55" * (1 << max(bits - 3, 0)), "little")
    masks = [(every, every << 1)]
    for u in range(1, bits):  # bit u of 2r + f is bit u - 1 of r
        level, period = ((1 << (1 << u)) - 1) << (1 << u), 2 << u
        while period < 1 << bits:
            level |= level << period
            period *= 2
        masks.append((level & every, level & every << 1))
    return tuple(masks)


def _read_view(view: bytes) -> tuple[int, int]:
    """(E, R) over a view's x_j-letters q: sums of s_q and of s_q times q's place from the right.

    The view is one base-4 integer, x_j a digit 1 and x_j^-1 a digit 2,
    so both are signed popcounts under _position_masks: E of every
    digit, and R the sum over t of 2**t times that of the digits whose
    place has bit t set.
    """
    if not view:
        return 0, 0
    digits = int(view, 4)
    total, *levels = [(digits & even).bit_count() - (digits & odd).bit_count()
                      for even, odd in _position_masks((2 * len(view) - 1).bit_length())]
    return total, sum(c << t for t, c in enumerate(levels))


def _degree_two(
    w: FreeWord, pairs=_PAIRS
) -> tuple[tuple[int, int, int], dict[tuple[int, int], int]]:
    """Exponent sums and the nonzero a_i a_j, a_j a_i coefficients of a rank-3 phi(w).

    For i != j the a_i a_j coefficient is c_ij = sum of s_p s_q over each
    x_i^s_p at position p before an x_j^s_q at q (Fox calculus cut at
    degree 2), and c_ij + c_ji = E_i E_j for the exponent sums E.  Both
    are read off the word's codes with no loop per letter.  One
    bytes.translate makes the view V+ of the codes, which keeps the
    letters x_i, x_j and x_j^-1, and another V-, which keeps x_i^-1, x_j
    and x_j^-1.  In a view, an x_j-letter q stands, counted from the
    right, at the number of kept x_i-letters after it plus the number of
    x_j-letters after it.  The second term is the same in both views, so
    the sums R of s_q times that position give c_ji = R(V+) - R(V-)
    (_read_view).  E_i is the length of V+ less that of V-, and E_j the
    signed count of x_j-letters in either view; a generator in no pair
    is counted in the codes.  Returns the sums of x1, x2, x3 in order and
    both coefficients of each pair (i, j) that pairs names; the others
    are left out, as are zeros.
    """
    codes = w._codes
    slot = {g: k for k, g in enumerate(w._gens)}
    sums: dict[int, int] = {}
    coeffs: dict[tuple[int, int], int] = {}
    for i, j in pairs:
        if i in slot and j in slot:
            up, down = (codes.translate(*view) for view in _views(slot[i], slot[j]))
            (sums[j], back), (_, down_back) = _read_view(up), _read_view(down)
            sums[i] = len(up) - len(down)
            back -= down_back  # c_ji
            for key, c in (((i, j), sums[i] * sums[j] - back), ((j, i), back)):
                if c:
                    coeffs[key] = c
    for g in (1, 2, 3):
        if g not in sums:
            k = slot.get(g)
            sums[g] = 0 if k is None else codes.count(2 * k) - codes.count(2 * k + 1)
    return (sums[1], sums[2], sums[3]), coeffs


def _commutator_degree_two(w: FreeWord, pairs=_PAIRS) -> dict[tuple[int, int], int]:
    """_degree_two of a rank-3 word at the given pairs, checked to have all exponent sums zero.

    The one degree-2 read behind mu123 and nilpotent.class_of.
    """
    if w.rank != 3:
        raise ValueError(f"need a word of rank 3, got rank {w.rank}")
    sums, coeffs = _degree_two(w, pairs)
    for index, e in enumerate(sums, 1):
        if e:
            raise PreconditionError(f"nonzero exponent sum for generator {index}")
    return coeffs


def mu123(lambda3: FreeWord) -> int:
    """Milnor's triple linking number from the third longitude word.

    Requires rank 3 and all exponent sums zero (the pairwise linking
    number zero hypothesis); the value is the a1*a2 coefficient of
    phi(lambda3) at any degree cap >= 2, read off the word's codes by
    the degree-2 route; phi is its cross-check in the tests.
    """
    return _commutator_degree_two(lambda3, ((1, 2),)).get((1, 2), 0)


def lcs_depth(w: FreeWord, kmax: int) -> int:
    """Largest k <= kmax with no surviving term of degree below k.

    By Magnus's criterion this witnesses membership in the k-th lower
    central subgroup; at finite truncation it cannot distinguish depths
    beyond kmax, so kmax means "at least kmax".  Degree 1 needs no
    series: its coefficients are the exponent sums.  From degree 2 up
    the levels are built at caps 2, ..., kmax - 1 and stop at the first
    cap d whose top level has a nonzero slot: truncation to a lower cap
    is a ring map, so the levels below d were already zero.  No slot is
    read.

    A degree d with r**d > MAX_DEPTH_TERMS, for r distinct generators in
    w, or whose slot updates bring the total past MAX_DEPTH_WORK, is
    refused with ValueError before its work starts.  kmax goes through
    operator.index.
    """
    kmax = index(kmax)
    if kmax < 1:
        raise ValueError(f"kmax must be positive, got {kmax}")
    codes = w._codes
    if kmax == 1 or not codes:
        return kmax
    if any(abelianization(w).values()):
        return 1
    r, work = len(w._gens), 0
    for d in range(2, kmax):
        work += _updates(len(codes), r, d)
        _check_degree(r, d, work)
        if any(_packed_levels(codes, r, d)[2]):
            return d
    return kmax
