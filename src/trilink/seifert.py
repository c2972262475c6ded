"""Seifert matrices, metabolizers, and the genus-three generator.

Conventions fixed for the whole package:

* A genus-g Seifert matrix is 2g x 2g over the integers with M - M^T
  equal to the intersection form of its tagged basis ordering:
  "interleaved" (a1, b1, ..., ag, bg) pairs each curve with its dual,
  so the form is a block diagonal of [[0, 1], [-1, 0]]; "blocked"
  (a1..ag, b1..bg) gives [[0, I], [-I, 0]].
* The Seifert form of classes u and v is u^T M v, the linking number
  lk(u, v+) of u with the + pushoff of v; lk(u, v-), with the -
  pushoff, is v^T M u.
* A metabolizer is a primitive rank-g sublattice of the 2g-dimensional
  surface homology on which the Seifert form vanishes identically,
  handed around as g basis columns.
* To a genus-3 matrix and metabolizer belongs the generator
  det(B^T - I) - det(B), where B is the a-row/b-column block of the
  matrix rewritten in a blocked symplectic basis whose b-part spans the
  metabolizer.  Writing that block

      B = [[a, x1, y1], [x2, b, z1], [y2, z2, c]]

  the same number is (a-1)(b-1)(c-1) - abc + x1*x2 + y1*y2 + z1*z2;
  both routes are evaluated and compared on every call.  Differences of
  triple linking numbers across derivative links on a fixed metabolizer
  sweep out (at least) all integer multiples of it.  Its value, sign
  included, depends only on the matrix and the metabolizer (see
  generator_for_metabolizer); both it and its magnitude are reported.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache
from math import gcd
from operator import index, mul

from ._record import Record, _check_3x3, _int_rows
from .errors import CrossCheckError, PreconditionError
from .intlinalg import (
    Matrix,
    _Slots,
    bilinear,
    det,
    identity,
    mat_mul,
    row_hnf,
    transpose,
    xgcd,
)

ORDERINGS = ("interleaved", "blocked")

# Largest genus of the metabolizer search, the metabolizer verdict and
# the symplectic completion: the paper's objects are genus 3, and
# _wedge_table pads each Laplace entry to three terms, so the exterior
# products of the search and the verdict cover three columns at most.
# Worst-case rows: tests/test_worst_case.py's enumerate-dense-4300-digits
# and metabolizer-dense-4300-digits.
MAX_GENUS = 3
# Largest coefficient box (2*bound+1)**(2*genus) a search may scan: genus
# 3 at bound 2, genus 2 at bound 5, genus 1 at bound 62.  The scan's
# slots widen with the entries, so the worst case of each genus is its
# cap with the widest entries the CLI reads.  Worst-case rows:
# tests/test_worst_case.py's enumerate-dense-4300-digits,
# enumerate-dense-4300-digits-genus-1 and -genus-2.  Not bounded yet
# (ROADMAP item 9): many candidates with wide slots, as each candidate's
# adjacency read spans k slots; an unknot surface with one symmetric
# pair of 4,300-digit entries has 456 candidates at genus 3 bound 2 and
# took 2.69-2.95 s through cli.main (six fresh processes over two
# timings, Python 3.11.7, shared 2-CPU Xeon).
MAX_SEARCH_BOX = 5**6


def _curve_positions(genus: int, ordering: str) -> tuple[range, range]:
    """Positions of a1..ag and of b1..bg in the basis of an ordering."""
    if ordering == "interleaved":
        return range(0, 2 * genus, 2), range(1, 2 * genus, 2)
    if ordering == "blocked":
        return range(genus), range(genus, 2 * genus)
    raise ValueError(f"unknown ordering {ordering!r}")


def intersection_form(genus: int, ordering: str) -> Matrix:
    """The skew form a valid Seifert matrix must have as M - M^T."""
    a, b = _curve_positions(genus, ordering)
    j = [[0] * 2 * genus for _ in range(2 * genus)]
    for p, q in zip(a, b):
        j[p][q], j[q][p] = 1, -1
    return j


class SeifertMatrix(Record):
    """Validated 2g x 2g integer matrix with its basis-ordering tag."""

    __slots__ = ("genus", "ordering", "entries")

    def __init__(self, genus: int, ordering: str, entries: tuple[tuple[int, ...], ...]):
        genus, entries = index(genus), _int_rows(entries)
        _curve_positions(genus, ordering)  # the ordering is checked before the shape
        n = 2 * genus
        if genus < 1 or len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError(f"expected a {n}x{n} matrix for genus {genus}")
        want = intersection_form(genus, ordering)
        for i in range(n):
            for j in range(i + 1, n):  # both sides are antisymmetric: (j, i) fails iff (i, j)
                skew = entries[i][j] - entries[j][i]
                if skew != want[i][j]:
                    raise ValueError(
                        f"skew part fails at entries ({i},{j})/({j},{i}): "
                        f"M[i][j]-M[j][i] = {skew}, intersection form needs {want[i][j]}"
                    )
        Record.__init__(self, genus, ordering, entries)

    @property
    def dim(self) -> int:
        return 2 * self.genus


def validate(entries, ordering: str) -> SeifertMatrix:
    """Build a SeifertMatrix from raw rows, inferring the genus from their count."""
    rows = tuple(entries)
    if not rows or len(rows) % 2 != 0:
        raise ValueError(f"Seifert matrices have even dimension, got {len(rows)}")
    return SeifertMatrix(len(rows) // 2, ordering, rows)


def reorder(m: SeifertMatrix, target_ordering: str) -> SeifertMatrix:
    """Rewrite between the two basis orderings (involutive)."""
    if target_ordering == m.ordering:
        return m
    # position p of the target ordering holds source position perm[p]
    perm = dict(zip(itertools.chain(*_curve_positions(m.genus, target_ordering)),
                    itertools.chain(*_curve_positions(m.genus, m.ordering))))
    entries = [[m.entries[perm[i]][perm[j]] for j in range(m.dim)] for i in range(m.dim)]
    return SeifertMatrix(m.genus, target_ordering, entries)


class MetabolizerBasis(Record):
    """g candidate columns (length 2g each) spanning a sublattice."""

    __slots__ = ("columns",)

    def __init__(self, columns: tuple[tuple[int, ...], ...]):
        columns = _int_rows(columns)
        if not columns:
            raise ValueError("at least one column required")
        length = len(columns[0])
        if length == 0 or length % 2 != 0:
            raise ValueError(f"column length must be a positive even number, got {length}")
        if any(len(c) != length for c in columns):
            raise ValueError("columns must all have the same length")
        Record.__init__(self, columns)

    @property
    def count(self) -> int:
        return len(self.columns)

    @property
    def dim(self) -> int:
        return len(self.columns[0])

    def as_matrix(self) -> Matrix:
        """dim x count matrix whose columns are the basis vectors."""
        return transpose(self.columns)


def standard_metabolizer(m: SeifertMatrix) -> MetabolizerBasis:
    """The b-curve columns of m's ordering (not always a metabolizer)."""
    _, b = _curve_positions(m.genus, m.ordering)
    return MetabolizerBasis([[int(i == p) for i in range(m.dim)] for p in b])


class MetabolizerVerdict(namedtuple("MetabolizerVerdict", "form_vanishes independent primitive")):
    """The three facts a metabolizer test rests on, from one pass each."""

    __slots__ = ()

    @property
    def is_metabolizer(self) -> bool:
        return self.form_vanishes and self.primitive


def _verdict_and_products(m: SeifertMatrix,
                          v: MetabolizerBasis) -> tuple[MetabolizerVerdict, Matrix, Matrix]:
    """metabolizer_verdict's verdict on v, with the V and M V it read.

    A genus above MAX_GENUS is refused with ValueError before any
    product is formed, then columns of the wrong length or count.
    """
    if m.genus > MAX_GENUS:
        raise ValueError(f"genus {m.genus} exceeds the metabolizer-test guard ({MAX_GENUS})")
    if v.dim != m.dim:
        raise ValueError(f"column length {v.dim} does not match matrix dimension {m.dim}")
    if v.count != m.genus:
        raise ValueError(f"need exactly {m.genus} columns, got {v.count}")
    vmat = v.as_matrix()
    mv = mat_mul(m.entries, vmat)
    gram = mat_mul(v.columns, mv)
    vanishes = not any(x for row in gram for x in row)
    minors = _plucker(v.columns)
    return MetabolizerVerdict(vanishes, any(minors), gcd(*minors) == 1), vmat, mv


def metabolizer_verdict(m: SeifertMatrix, v: MetabolizerBasis) -> MetabolizerVerdict:
    """Form vanishing on v's columns, their independence and primitivity.

    One Gram matrix V^T (M V) of the form values, and the g x g minors
    of V, its Pluecker coordinates, built by the search's exterior
    product: the g columns are independent iff a minor is nonzero, and
    primitive iff the minors' gcd is 1, so a dependent set of columns is
    reported as not primitive.  A genus above MAX_GENUS is refused with
    ValueError before any work starts, then columns of the wrong length
    or count.  Checks and verdict are _verdict_and_products', which also
    returns the V and M V it formed, so the completion reuses both.
    """
    return _verdict_and_products(m, v)[0]


@cache
def _wedge_table(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Laplace terms that append one column to a k-fold exterior product.

    Coordinates of a k-fold product are the k x k minors of an n x k
    matrix, indexed by the k-subsets of range(n) in combinations order.
    Entry T holds (sign, t, index of T minus t) for each row t of the
    (k+1)-subset T, so that appending a column v gives the minor
    sum(sign * v[t] * p[index]) (expansion along the new last column).
    Entries are flat and padded with (0, 0, 0) to three terms, which
    cover every product of at most MAX_GENUS columns.  A table depends on
    (n, k) alone, so each is built once per process and then shared by
    every search and verdict.
    """
    position = {s: i for i, s in enumerate(itertools.combinations(range(n), k))}
    table = []
    for sub in itertools.combinations(range(n), k + 1):
        entry: list[int] = []
        for pos, t in enumerate(sub):
            entry += (-1 if (pos + k) % 2 else 1, t, position[sub[:pos] + sub[pos + 1:]])
        table.append(tuple(entry) + (0, 0, 0) * (3 - len(sub)))
    return tuple(table)


def _wedge_coefficients(table, p: list[int]) -> list[tuple[int, ...]]:
    """Fold the k-fold product p into table: (row, coefficient) pairs for _wedge."""
    return [(t0, s0 * p[i0], t1, s1 * p[i1], t2, s2 * p[i2])
            for s0, t0, i0, s1, t1, i1, s2, t2, i2 in table]


def _wedge(coeffs: list[tuple[int, ...]], v) -> list[int]:
    """Exterior product p ^ v, where coeffs = _wedge_coefficients(table, p)."""
    return [v[a] * x + v[b] * y + v[c] * z for a, x, b, y, c, z in coeffs]


def _plucker(columns) -> list[int]:
    """The maximal minors of at most MAX_GENUS columns, one wedge per column after the first."""
    p = columns[0]
    for level, col in enumerate(columns[1:], 1):
        p = _wedge(_wedge_coefficients(_wedge_table(len(col), level), p), col)
    return p


def _primitive_cliques(cands, adj, tables, clique, plucker, allowed, lattices, lat):
    """Yield each primitive full extension of clique, one per lattice.

    The clique grows by candidates from the bitmask allowed, in
    increasing index order and pairwise adjacent by adj, for as long as
    the gcd of its exterior product is 1.  tables[level] is
    _wedge_table(n, level), one per column of a full clique.  lattices[f]
    is the member mask of the f-th lattice yielded, and bit f of lat[c] is
    set iff it holds candidate c.  A child prefix whose extensions are
    leaves is held by the found lattices in the AND of its members' lat.
    Held by two, it is closed: no other metabolizer contains it (see
    enumerate_metabolizers), so every leaf it could keep is in one of
    them.  Held by one, it drops that lattice's members from its leaves.
    A child prefix left with no extension is never wedged.  A candidate
    is primitive, so it is its own exterior product: level 0 wedges
    nothing and takes no gcd.  A prefix folds its product into
    coefficients on its first wedge, so one that wedges nothing folds
    none.
    """
    level = len(clique)
    full = level + 1 == len(tables)
    leaves = level + 2 == len(tables)  # the children's extensions are leaves
    coeffs = None
    rest = allowed
    while rest:
        low = rest & -rest
        j = low.bit_length() - 1
        rest ^= low
        if not full:
            later = rest & adj[j]  # rest holds exactly the allowed bits above j
            if later and leaves:
                # the found lattices holding the prefix clique + [j], of g - 1 candidates
                flags = lat[j] & lat[clique[0]] if clique else lat[j]
                if flags & (flags - 1):
                    continue
                if flags:
                    later &= ~lattices[flags.bit_length() - 1]
            if not later:
                continue
        if level:
            if coeffs is None:
                coeffs = _wedge_coefficients(tables[level], plucker)
            ext = _wedge(coeffs, cands[j])
            if gcd(*ext) != 1:
                continue
        else:
            ext = cands[j]
        if full:
            yield clique + [j]
            members = adj[j] | low
            for c in clique:
                members &= adj[c] | (1 << c)
            rest &= ~members
            flag = 1 << len(lattices)
            lattices.append(members)
            todo = members
            while todo:
                bit = todo & -todo
                lat[bit.bit_length() - 1] |= flag
                todo ^= bit
        else:
            yield from _primitive_cliques(cands, adj, tables, clique + [j], ext, later,
                                          lattices, lat)


def _combine(coeffs, columns):
    """sum_i coeffs[i] * columns[i], entry by entry, for equally long nonempty columns."""
    terms = [map(mul, col, itertools.repeat(c)) for c, col in zip(coeffs, columns) if c]
    return map(sum, zip(*terms)) if terms else itertools.repeat(0, len(columns[0]))


@cache
def _box_table(g: int, bound: int):
    """The box scan's columns for one shape: they depend on (genus, bound) alone.

    Returns the halves in itertools.product order, the index of the zero
    half, the coordinate columns of the top halves (from the zero half
    on), the pairs s <= t, and the product columns u_s u_t of every half
    and of the top halves.  Each table is built once per process; at most
    69 shapes pass MAX_SEARCH_BOX.
    """
    halves = tuple(itertools.product(range(-bound, bound + 1), repeat=g))
    centre = len(halves) // 2  # halves[centre] is 0; every later half has a positive first nonzero
    cols = list(zip(*halves))  # column s: coordinate s of every half
    pairs = tuple((s, t) for s in range(g) for t in range(s, g))
    prods = tuple(tuple(map(mul, cols[s], cols[t])) for s, t in pairs)  # u_s u_t of every half u
    return (halves, centre, tuple(col[centre:] for col in cols), pairs, prods,
            tuple(p[centre:] for p in prods))


def _box_candidates(m: SeifertMatrix, bound: int) -> list[tuple[int, ...]]:
    """Primitive isotropic vectors of the box, first nonzero entry positive, in product order."""
    g, e = m.genus, m.entries
    halves, centre, top_cols, pairs, prods, top_prods = _box_table(g, bound)
    tops = halves[centre:]
    slots = _Slots(len(tops), bound * bound * sum(abs(x) for row in e for x in row))

    def quad(offset, columns):  # u^T M[half, half] u for every half u of the product columns
        return _combine([e[offset + s][offset + t] + e[offset + t][offset + s] if s < t
                         else e[offset + s][offset + s] for s, t in pairs], columns)

    top = slots.pack(quad(0, top_prods))  # slot j: q_top(tops[j])
    # C = M[top, bot] + M[bot, top]^T; one integer per t holds every (C^T u_j)_t
    cu = [slots.pack(_combine([e[i][g + t] + e[g + t][i] for i in range(g)], top_cols))
          for t in range(g)]
    cands = []
    for b, (w, q) in enumerate(zip(halves, quad(g, prods))):
        zero = slots.zeros(sum(map(mul, w, cu), top), q)
        if b <= centre:  # with u = 0, only w after the centre has a positive first nonzero
            zero &= -2
        while zero:
            low = zero & -zero
            v = tops[low.bit_length() - 1] + w
            if gcd(*v) == 1:
                cands.append(v)
            zero ^= low
    return sorted(cands)  # tuple order is itertools.product order


def _adjacency_masks(m: SeifertMatrix, cands, bound: int) -> list[int]:
    """Bit j of mask i is set iff candidates i != j pair to 0 under M both ways.

    Both pairings of c_i with every c_j are read off one k-slot sum; the
    slot layout is explained in enumerate_metabolizers.
    """
    if not cands:
        return []
    most = 2 * m.genus * bound * bound  # the largest |c_i^T J c_j|
    x = 2 * most + 1
    slots = _Slots(len(cands), x * bound * bound * sum(abs(e) for row in m.entries for e in row)
                   + most)
    coords = list(map(slots.pack, zip(*cands)))  # coordinate t of c_j in slot j
    jcoords = coords[:]  # (J c_j)_t in slot j
    for p, q in zip(*_curve_positions(m.genus, m.ordering)):
        jcoords[p], jcoords[q] = coords[q], -coords[p]
    # image t: x (M c_j)_t + (J c_j)_t in slot j
    images = [x * sum(map(mul, row, coords)) + jc for row, jc in zip(m.entries, jcoords)]
    # c_i is isotropic, so it pairs to 0 with itself
    return [slots.zeros(sum(map(mul, c, images))) & ~(1 << i) for i, c in enumerate(cands)]


def enumerate_metabolizers(m: SeifertMatrix, coeff_bound: int) -> list[MetabolizerBasis]:
    """All metabolizers spanned by columns with entries in [-bound, bound].

    Results are one basis per lattice, the Hermite canonical basis of
    its column span, sorted by those columns.  The search space is the
    box of (2*bound+1)**(2*genus) vectors, so genus is capped at
    MAX_GENUS and the box at MAX_SEARCH_BOX; a larger request is
    refused before any work starts.

    The search enumerates lattices, not bases.  Every vector of a basis
    of a direct summand is primitive, and every subset of such a basis
    spans a summand.  So the candidates are the primitive isotropic
    vectors of the box (one sign each), and a clique of candidates on
    which the form vanishes both ways grows only while the gcd of its
    exterior product (its Pluecker coordinates, the maximal minors) is
    1.  A gcd of 0 means dependent columns; a gcd above 1 means the span
    is not a summand.  So a full clique is a metabolizer by construction
    and is not re-tested: its columns are isotropic and pairwise adjacent
    both ways, so V^T M V = 0, and its g columns span a summand.  Its row
    Hermite form, reached by unimodular row operations, has no zero row
    at rank g, so it is a basis of the same lattice, stored as it is and
    not checked again by MetabolizerBasis's constructor.

    Each lattice is yielded once, because a metabolizer is a Lagrangian
    of the unimodular form J = M - M^T: it is its own J-orthogonal
    complement.  A candidate adjacent to every column of a basis of a
    found lattice is J-orthogonal to the lattice, so it lies in the
    rational span and, the lattice being primitive, in the lattice.  The
    AND over the clique of each column's adjacency mask with its own bit
    is thus exactly the lattice's set of candidates.  Any clique inside
    that set spans the lattice again or fails the gcd test, so the
    search drops the set from the leaves of the current prefix and of
    every later prefix inside it, and only the first basis found pays
    for the Hermite form.  The drop is made before a prefix is wedged: a
    prefix left without leaves costs no exterior product, no gcd and no
    recursion.

    A prefix of g - 1 columns held by two found lattices is closed, as
    no other metabolizer contains it.  Its columns are distinct
    candidates, so independent, and the saturation P of their span has
    rank g - 1 and is isotropic both ways.  A metabolizer through P lies
    in W = {v : v^T M p = p^T M v = 0 for all p in P}, which is inside
    the J-orthogonal complement P' of P, of rank g + 1.  If W has rank
    g, W is the only such metabolizer.  Otherwise W = P', and on the
    rank-2 quotient Q = P'/P, J induces a unimodular form and M an
    integral form N with N - N^T the induced J.  The form x^T N x is not
    identically 0, or else N would be half of it, which is not integral.
    A nonzero binary form has at most two isotropic lines, and each
    metabolizer through P gives its own line, its image in Q.  So at most
    two metabolizers contain P, and every leaf the prefix could keep
    lies in one of the two found ones.

    Candidates and adjacency are built in bulk, in packed integers of
    signed slots (intlinalg._Slots).  A box vector v = (u, w) with halves
    of length g has v^T M v = q_top(u) + q_bot(w) + sum_t w_t (C^T u)_t,
    where C = M[top, bot] + M[bot, top]^T and q_top, q_bot are the forms
    of the diagonal blocks.  Of v and -v only the one whose first nonzero
    entry is positive is a candidate, so only the top halves from the zero
    half on in product order are packed, u_j in slot j: 0 and those with
    a positive first nonzero.  One integer holds every q_top(u_j) and one
    per t every (C^T u_j)_t.  Those values and every q_bot(w) come from
    the coordinate columns of the halves through C-level maps, with no
    Python-level code per half: a form sums its block's entries times the
    product columns u_s u_t, one per pair s <= t, and (C^T u)_t sums C's
    column t times the coordinate columns.  Every bottom half w is looped
    over, and each w costs one sum of g products whose multipliers w_t
    are box coordinates, at most bound in size, plus q_bot(w) in every
    slot; its zero slots are the isotropic vectors (u_j, w), except the
    slot of u = 0 for w up to the zero half, whose first nonzero is not
    positive.  Each hit has the sign of a candidate, the primitive ones
    are kept, and sorted as tuples they fall in itertools.product order
    (u outside w).  Candidates c_i and c_j are adjacent iff c_i^T M c_j =
    c_i^T M^T c_j = 0, that is, as M^T = M - J, iff A = c_i^T M c_j and
    B = c_i^T J c_j both vanish.  |B| <= 2g bound^2, so with x = 4g bound^2
    + 1 the slot value x A + B determines A and B and is 0 iff both are.
    Coordinate t of all k candidates is packed once, c_j in slot j, and
    image t holds x (M c_j)_t + (J c_j)_t in slot j, J applied as a signed
    permutation of the curve positions.  So one sum of 2g small products,
    c_i's coordinates times the images, holds c_i against every c_j, read
    by one zeros call over k slots.  The box scan's slots read some v^T M v
    with v in the box, so their limit is bound^2 * sum |M_st|; the
    adjacency's is x times that plus 2g bound^2.  Both sums are exact for
    entries of any size.
    """
    if coeff_bound < 1:
        raise ValueError(f"coefficient bound must be >= 1, got {coeff_bound}")
    if m.genus > MAX_GENUS:
        raise ValueError(f"genus {m.genus} exceeds the search guard ({MAX_GENUS})")
    if (2 * coeff_bound + 1) ** m.dim > MAX_SEARCH_BOX:
        raise ValueError(
            f"coefficient bound {coeff_bound} at genus {m.genus} gives a search box "
            f"above cap MAX_SEARCH_BOX = {MAX_SEARCH_BOX} vectors"
        )
    cands = _box_candidates(m, coeff_bound)
    adj = _adjacency_masks(m, cands, coeff_bound)
    tables = [_wedge_table(m.dim, level) for level in range(m.genus)]
    found = []
    for clique in _primitive_cliques(cands, adj, tables, [], None, (1 << len(cands)) - 1, [],
                                     [0] * len(cands)):
        basis = MetabolizerBasis.__new__(MetabolizerBasis)
        Record.__init__(basis, tuple(map(tuple, row_hnf([cands[i] for i in clique]))))
        found.append(basis)
    return sorted(found, key=lambda basis: basis.columns)


def _apply_j(m: SeifertMatrix, x: Matrix) -> Matrix:
    """J x for x with 2g rows, J = M - M^T the intersection form of m's ordering.

    J is a signed permutation: for each pair (p, q) of an a-position and
    its b-position, (J x)_p = x_q and (J x)_q = -x_p.  It is applied by
    moving rows and never built as a matrix.
    """
    jx = [None] * m.dim
    for p, q in zip(*_curve_positions(m.genus, m.ordering)):
        jx[p], jx[q] = x[q], [-e for e in x[p]]
    return jx


def _accepted_products(m: SeifertMatrix, v: MetabolizerBasis) -> tuple[Matrix, Matrix]:
    """V and M V of a basis that metabolizer_verdict accepts.

    The precondition is metabolizer_verdict's, with its errors in its
    order, read off one V and one M V; a basis the verdict rejects is
    refused with PreconditionError.
    """
    verdict, vmat, mv = _verdict_and_products(m, v)
    if not verdict.is_metabolizer:
        raise PreconditionError("not a metabolizer; completion refused")
    return vmat, mv


def _duals(m: SeifertMatrix, vmat: Matrix) -> Matrix:
    """The 2g x g duals A with A^T J V = I of an accepted basis's V.

    V comes from _accepted_products, or is such a V with its columns
    moved (generator_on_two_bases' second basis, which shares the first
    basis's verdict and products), so no verdict is formed here; each
    call takes its own Hermite form of [V | I].  Its left block is
    row_hnf(V) (Cohen, GTM 138, section 2.4), whose top g rows are I iff
    V's columns are independent and primitive, so it checks the
    verdict's minors by a second route: a left block other than I is a
    CrossCheckError.  The top g rows are then [I | L] with L V = I, and
    A = J L^T satisfies A^T J V = L J^T J V = I because J^T J = I.
    """
    g, n = m.genus, m.dim
    eye = identity(n)
    h = row_hnf([vmat[r] + eye[r] for r in range(n)])
    if [row[:g] for row in h[:g]] != identity(g):
        raise CrossCheckError("Hermite form of [V | I] disagrees with the metabolizer verdict")
    return _apply_j(m, transpose([row[g:] for row in h[:g]]))


def symplectic_complete(m: SeifertMatrix, v: MetabolizerBasis) -> Matrix:
    """Extend a metabolizer basis to a symplectic basis of the homology.

    Returns a unimodular 2g x 2g matrix T whose first g columns are the
    dual a-curves and whose last g columns are v's columns, satisfying
    T^T J T = J_b = [[0, I], [-I, 0]] exactly, for J = M - M^T, the
    intersection form of m's ordering.  That postcondition is re-verified
    on every call, and it also proves T unimodular: det(J) = det(J_b) = 1,
    so det(T)^2 = 1.

    The basis is refused through metabolizer_verdict, genus and shape
    first, before the Hermite form of [V | I]: a basis on which the form
    does not vanish, or whose columns are dependent or not primitive,
    raises PreconditionError.  V comes from _accepted_products and the
    duals A with A^T J V = I from _duals.  Any dual is fixed modulo V,
    since V is its own J-orthogonal complement; a Gram correction
    A + V X kills the a-a pairings without touching duality.  J is
    applied by _apply_j, for the correction A^T (J A) and the
    postcondition T^T (J T).
    """
    vmat, _ = _accepted_products(m, v)
    a = _duals(m, vmat)
    g, n = m.genus, m.dim
    gram = mat_mul(transpose(a), _apply_j(m, a))
    x = [[-gram[r][c] if r > c else 0 for c in range(g)] for r in range(g)]
    corr = mat_mul(vmat, x)
    t = [[a[r][c] + corr[r][c] for c in range(g)] + vmat[r] for r in range(n)]
    if mat_mul(transpose(t), _apply_j(m, t)) != intersection_form(g, "blocked"):
        raise CrossCheckError("completion failed its symplectic-form postcondition")
    return t


class GeneratorResult(Record):
    """|n0| plus the signed value n0, which depends only on the matrix and metabolizer.

    The attached set {n * n0 : n integer} is reported as contained in
    the realizable differences; whether it exhausts them is open.
    """

    __slots__ = ("generator", "signed")

    @property
    def meaning(self) -> str:
        return f"realizable mu-bar(123) differences contain n*{self.generator} for every integer n"


def _generator_of(b: Matrix) -> GeneratorResult:
    """generator_from_block's two routes on a 3x3 block of exact ints, unchecked."""
    (pa, x1, y1), (x2, pb, z1), (y2, z2, pc) = b
    expanded = (pa - 1) * (pb - 1) * (pc - 1) - pa * pb * pc + x1 * x2 + y1 * y2 + z1 * z2
    bt_minus_id = [[b[j][i] - (1 if i == j else 0) for j in range(3)] for i in range(3)]
    via_det = det(bt_minus_id) - det(b)
    if expanded != via_det:
        raise CrossCheckError(
            f"generator formulas disagree: polynomial {expanded}, determinant {via_det}"
        )
    return GeneratorResult(abs(expanded), expanded)


def generator_from_block(block) -> GeneratorResult:
    """Generator of a blocked matrix's a-to-b block B (3x3).

    Evaluates both the nine-parameter polynomial and det(B^T - I) -
    det(B) and insists they agree.  The block is checked first: entries
    go through operator.index and any other shape than 3x3 is a
    ValueError.  generator_for_metabolizer evaluates the block it builds
    from checked integers directly, so only a caller's block is checked.
    """
    return _generator_of(_check_3x3(block, "block"))


def _generator_at(m: SeifertMatrix, vmat: Matrix, mv: Matrix) -> GeneratorResult:
    """The generator of an accepted basis's V and M V: the block A^T (M V) for _duals' A."""
    return _generator_of(mat_mul(transpose(_duals(m, vmat)), mv))


def generator_for_metabolizer(m: SeifertMatrix, v: MetabolizerBasis) -> GeneratorResult:
    """Generator attached to a genus-3 matrix and one of its metabolizers.

    The generator reads only the a-to-b block B = A^T (M V) of M
    rewritten in a symplectic basis (A | V), whose b-part V spans v, so
    it reads A^T M V off the duals of _duals and builds no completion.
    The basis is refused as symplectic_complete refuses it, and M V is
    the product the verdict formed for V^T M V, so a call multiplies by
    M once.  B is built from checked integers, so it is evaluated
    directly, without generator_from_block's check of a caller's block.
    symplectic_complete's Gram correction A + V X would add
    X^T (V^T M V) = 0, as the verdict has found V^T M V = 0, so its T
    gives the same B.  B, and so the signed value, depends only on m and
    v's span: any two duals give the same B, re-basing v by U in GL(3, Z)
    turns B into U^-1 B U, and a symplectic change of m's basis carries
    duals to duals.  generator_on_two_bases checks that on a second basis
    of v's span, which shares this basis's verdict and products and takes
    its own Hermite form of [V | I].
    """
    if m.genus != 3:
        raise ValueError(f"genus-3 matrices only, got genus {m.genus}")
    return _generator_at(m, *_accepted_products(m, v))


def generator_on_two_bases(m: SeifertMatrix, v: MetabolizerBasis,
                           order: list[int]) -> tuple[GeneratorResult, GeneratorResult]:
    """generator_for_metabolizer on v, and again on a second basis of v's span.

    Column i of the second basis is v's column order[i], the first of
    them negated, so it spans the same lattice and is never v itself.
    The two results agree, sign included, as the signed value depends
    only on m and the span.  The second basis shares the first's verdict
    and products: its V and M V are v's with their columns moved, so the
    verdict and M V are formed once.  Each basis takes its own Hermite
    form of [V | I] in _duals, with its own cross-check against the
    verdict, and its own two-route evaluation of the block.  A genus
    other than 3 and an order that is not a permutation of v's column
    indices are refused with ValueError before any work starts; then v
    is refused as generator_for_metabolizer refuses it.
    """
    if m.genus != 3:
        raise ValueError(f"genus-3 matrices only, got genus {m.genus}")
    if sorted(order) != list(range(v.count)):
        raise ValueError(f"order must be a permutation of range({v.count}), got {order!r}")
    vmat, mv = _accepted_products(m, v)
    first = _generator_at(m, vmat, mv)

    def moved(x: Matrix) -> Matrix:
        return [[-row[order[0]]] + [row[c] for c in order[1:]] for row in x]

    return first, _generator_at(m, moved(vmat), moved(mv))


def connected_sum(m1: SeifertMatrix, m2: SeifertMatrix, m3: SeifertMatrix) -> SeifertMatrix:
    """Block-diagonal genus-3 matrix of three genus-1 summands (interleaved)."""
    for m in (m1, m2, m3):
        if m.genus != 1:
            raise ValueError(f"summands must have genus 1, got genus {m.genus}")
    rows = [[0] * 6 for _ in range(6)]
    for k, m in enumerate((m1, m2, m3)):
        for i in range(2):
            for j in range(2):
                rows[2 * k + i][2 * k + j] = m.entries[i][j]
    return validate(rows, "interleaved")


class GenusOneNormalization(Record):
    """Data moving a genus-1 matrix [[d, e], [e-1, 0]] to its normal form.

    (x, y) spans the new metabolizer column, (z, w) its symplectic dual
    with -x*w + z*y = 1; new_matrix is the Seifert matrix in the basis
    (z*a + w*b, x*a + y*b), of the shape [[*, 1-e], [-e, 0]].
    """

    __slots__ = ("n", "x", "y", "z", "w", "new_matrix")


def genus_one_normalize(d: int, e: int) -> GenusOneNormalization:
    """Normalize a genus-1 summand M = [[d, e], [e-1, 0]].

    n = gcd(2e-1, -d) is always defined (2e-1 is odd, so nonzero); the
    Bezout pair is canonicalized by minimal |w| with ties toward w <= 0
    (and minimal |z| in the degenerate y = 0 case).  Of the new matrix
    only the corner (z w) M (z w)^T is computed; the other three entries
    are written as 1-e, -e and 0, the identities proved below, and
    validate checks that they fit the intersection form:

    * x = (2e-1)/n and y = -d/n are coprime, so xgcd(y, -x) gives
      z0*y - w0*x = 1.  Every shift w = w0 + t*y, z = z0 + t*x keeps it,
      and for y = 0 (where x = +-1) so does z = 0, w = w0 = -x.
    * u M v = d*u1*v1 + e*u1*v2 + (e-1)*u2*v1, so (x y) M (x y)^T =
      x*(d*x + (2e-1)*y) = x*(-n*y*x + n*x*y) = 0.
    * (z w) M (x y)^T - (x y) M (z w)^T = z*y - w*x = 1, and their sum is
      2d*x*z + (2e-1)*(z*y + w*x) = n*x*(w*x - z*y) = -(2e-1); so the two
      are 1-e and -e.
    """
    n = gcd(2 * e - 1, -d)
    x = (2 * e - 1) // n
    y = -d // n
    _, z0, w0 = xgcd(y, -x)
    if y == 0:
        # x is +-1 and w is forced; slide z to 0
        z, w = 0, w0
    else:
        # w runs over w0 + t*y: its residue mod |y| in [-floor(|y|/2), ceil(|y|/2))
        half = abs(y) // 2
        w = (w0 + half) % abs(y) - half
        z = z0 + (w - w0) // y * x
    corner = bilinear([z, w], [[d, e], [e - 1, 0]], [z, w])
    new = validate([[corner, 1 - e], [-e, 0]], "interleaved")
    return GenusOneNormalization(n, x, y, z, w, new)


def normalize_e(e: int) -> int:
    """The representative of {e, 1-e} with |e| > |e-1|; always >= 1.

    Basis swap on a genus-1 summand replaces the off-diagonal parameter
    e by 1-e, so each summand can be assumed to carry the larger of the
    two magnitudes.  e goes through operator.index.
    """
    e = index(e)
    return e if e >= 1 else 1 - e
