"""Seifert matrices, metabolizers, and the genus-three generator.

Conventions fixed for the whole package:

* A genus-g Seifert matrix is 2g x 2g over the integers with M - M^T
  equal to the intersection form of its tagged basis ordering:
  "interleaved" (a1, b1, ..., ag, bg) pairs each curve with its dual,
  so the form is a block diagonal of [[0, 1], [-1, 0]]; "blocked"
  (a1..ag, b1..bg) gives [[0, I], [-I, 0]].
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
  sweep out (at least) all integer multiples of it.  The magnitude is
  basis-independent; the sign is not, so both are reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from operator import index, mul
from random import Random
from typing import NamedTuple

from .errors import CrossCheckError, PreconditionError
from .intlinalg import (
    Matrix,
    bilinear,
    det,
    identity,
    mat_mul,
    row_hnf,
    snf,
    transpose,
    xgcd,
)

ORDERINGS = ("interleaved", "blocked")

# Hard cap on metabolizer-search genus: the exterior-product tables of
# the search cover three columns at most.
MAX_SEARCH_GENUS = 3
# Largest coefficient box (2*bound+1)**(2*genus) a search may scan: genus 3
# at bound 2, genus 2 at bound 5, genus 1 at bound 62.  Python 3.11.7,
# shared 2-CPU Xeon: the genus-3 unknot surface took 0.015-0.017 s at
# bound 1 and 0.25-0.26 s at bound 2 (medians of 5, four sets); genus 3
# at bound 2 with 40-digit entries took 0.021-0.038 s (5 matrices); every
# bound up to the limit took at most 0.010 s at genus 1 (6 matrices) and
# at most 0.019 s at genus 2 (7 matrices, the slowest the unknot surface
# at bound 5).
MAX_SEARCH_BOX = 5**6
# Largest genus metabolizer_verdict takes: its Smith form lets entries grow.
# Python 3.11.7, 2-CPU Xeon, dense random columns via cli.main: genus 16
# took at most 0.011 s with entries in +-9 and 0.40 s in +-10**6 (26 seeds
# each); genus 24 up to 1.1 s, genus 32 over 30 s, genus 48 over 3 minutes.
MAX_VERDICT_GENUS = 16


def intersection_form(genus: int, ordering: str) -> Matrix:
    """The skew form a valid Seifert matrix must have as M - M^T."""
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    n = 2 * genus
    j = [[0] * n for _ in range(n)]
    for i in range(genus):
        if ordering == "interleaved":
            j[2 * i][2 * i + 1] = 1
            j[2 * i + 1][2 * i] = -1
        else:
            j[i][genus + i] = 1
            j[genus + i][i] = -1
    return j


@dataclass(frozen=True, slots=True)
class SeifertMatrix:
    """Validated 2g x 2g integer matrix with its basis-ordering tag."""

    genus: int
    ordering: str
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")
        n = 2 * self.genus
        if self.genus < 1 or len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError(f"expected a {n}x{n} matrix for genus {self.genus}")
        want = intersection_form(self.genus, self.ordering)
        for i in range(n):
            for j in range(n):
                skew = self.entries[i][j] - self.entries[j][i]
                if skew != want[i][j]:
                    raise ValueError(
                        f"skew part fails at entries ({i},{j})/({j},{i}): "
                        f"M[i][j]-M[j][i] = {skew}, intersection form needs {want[i][j]}"
                    )

    @property
    def dim(self) -> int:
        return 2 * self.genus


def validate(entries, ordering: str) -> SeifertMatrix:
    """Build a SeifertMatrix from raw rows, rejecting invalid input.

    Entries go through operator.index, so a float or a string raises TypeError.
    """
    rows = tuple(tuple(index(x) for x in row) for row in entries)
    if not rows or len(rows) % 2 != 0:
        raise ValueError(f"Seifert matrices have even dimension, got {len(rows)}")
    return SeifertMatrix(len(rows) // 2, ordering, rows)


def _permutation(genus: int, target: str) -> list[int]:
    # position p of the target ordering holds source position perm[p]
    if target == "blocked":
        return [2 * p for p in range(genus)] + [2 * p + 1 for p in range(genus)]
    out = []
    for p in range(genus):
        out.extend([p, genus + p])
    return out


def reorder(m: SeifertMatrix, target_ordering: str) -> SeifertMatrix:
    """Rewrite between the two basis orderings (involutive); SeifertMatrix refuses others."""
    if target_ordering == m.ordering:
        return m
    perm = _permutation(m.genus, target_ordering)
    entries = tuple(
        tuple(m.entries[perm[i]][perm[j]] for j in range(m.dim)) for i in range(m.dim)
    )
    return SeifertMatrix(m.genus, target_ordering, entries)


def form(m: SeifertMatrix, u: list[int], v: list[int]) -> int:
    """The Seifert form u^T M v: linking of u with the + pushoff of v.

    Linking of u with the - pushoff of v is form(m, v, u).
    """
    return bilinear(u, m.entries, v)


@dataclass(frozen=True, slots=True)
class MetabolizerBasis:
    """g candidate columns (length 2g each) spanning a sublattice."""

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("at least one column required")
        length = len(self.columns[0])
        if length == 0 or length % 2 != 0:
            raise ValueError(f"column length must be a positive even number, got {length}")
        if any(len(c) != length for c in self.columns):
            raise ValueError("columns must all have the same length")

    @property
    def count(self) -> int:
        return len(self.columns)

    @property
    def dim(self) -> int:
        return len(self.columns[0])

    def as_matrix(self) -> Matrix:
        """dim x count matrix whose columns are the basis vectors."""
        return transpose([list(c) for c in self.columns])


def standard_metabolizer(m: SeifertMatrix) -> MetabolizerBasis:
    """The b-curve columns of m's ordering (not always a metabolizer)."""
    g = m.genus
    cols = []
    for i in range(g):
        pos = 2 * i + 1 if m.ordering == "interleaved" else g + i
        col = [0] * m.dim
        col[pos] = 1
        cols.append(tuple(col))
    return MetabolizerBasis(tuple(cols))


class MetabolizerVerdict(NamedTuple):
    """The three facts a metabolizer test rests on, from one pass each."""

    form_vanishes: bool
    independent: bool
    primitive: bool

    @property
    def is_metabolizer(self) -> bool:
        return self.form_vanishes and self.primitive


def metabolizer_verdict(m: SeifertMatrix, v: MetabolizerBasis) -> MetabolizerVerdict:
    """Form vanishing on v's columns, their independence and primitivity.

    One Gram matrix V^T M V of the form values and one Smith form; a
    dependent set of columns is reported as not primitive.  A genus above
    MAX_VERDICT_GENUS is refused with ValueError before any work starts.
    """
    if m.genus > MAX_VERDICT_GENUS:
        raise ValueError(f"genus {m.genus} exceeds the metabolizer-test guard "
                         f"({MAX_VERDICT_GENUS})")
    if v.dim != m.dim:
        raise ValueError(f"column length {v.dim} does not match matrix dimension {m.dim}")
    if v.count != m.genus:
        raise ValueError(f"need exactly {m.genus} columns, got {v.count}")
    vmat = v.as_matrix()
    gram = mat_mul(transpose(vmat), mat_mul(m.entries, vmat))
    vanishes = not any(x for row in gram for x in row)
    factors = snf(vmat)
    return MetabolizerVerdict(vanishes, all(factors), all(f == 1 for f in factors))


def is_metabolizer(m: SeifertMatrix, v: MetabolizerBasis) -> bool:
    """True iff the form vanishes on the span and the span is primitive."""
    return metabolizer_verdict(m, v).is_metabolizer


def _wedge_table(n: int, k: int) -> list[tuple[int, ...]]:
    """Laplace terms that append one column to a k-fold exterior product.

    Coordinates of a k-fold product are the k x k minors of an n x k
    matrix, indexed by the k-subsets of range(n) in combinations order.
    Entry T holds (sign, t, index of T minus t) for each row t of the
    (k+1)-subset T, so that appending a column v gives the minor
    sum(sign * v[t] * p[index]) (expansion along the new last column).
    Entries are flat and padded with (0, 0, 0) to three terms, which
    cover every step of a search of genus <= MAX_SEARCH_GENUS.
    """
    position = {s: i for i, s in enumerate(itertools.combinations(range(n), k))}
    table = []
    for sub in itertools.combinations(range(n), k + 1):
        entry: list[int] = []
        for pos, t in enumerate(sub):
            entry += (-1 if (pos + k) % 2 else 1, t, position[sub[:pos] + sub[pos + 1:]])
        table.append(tuple(entry) + (0, 0, 0) * (3 - len(sub)))
    return table


def _wedge_coefficients(table, p: list[int]) -> list[tuple[int, ...]]:
    """Fold the k-fold product p into table: (row, coefficient) pairs for _wedge."""
    return [(t0, s0 * p[i0], t1, s1 * p[i1], t2, s2 * p[i2])
            for s0, t0, i0, s1, t1, i1, s2, t2, i2 in table]


def _wedge(coeffs: list[tuple[int, ...]], v) -> list[int]:
    """Exterior product p ^ v, where coeffs = _wedge_coefficients(table, p)."""
    return [v[a] * x + v[b] * y + v[c] * z for a, x, b, y, c, z in coeffs]


def _primitive_cliques(cands, adj, tables, clique, plucker, allowed, seen):
    """Yield each primitive full extension of clique, one per lattice.

    The clique grows by candidates from the bitmask allowed, in
    increasing index order and pairwise adjacent by adj, for as long as
    the gcd of its exterior product is 1.  tables[level] is
    _wedge_table(n, level), one per column of a full clique.  seen maps
    a candidate index to the member masks of the lattices already
    yielded that contain it; a prefix inside such a lattice skips its
    members as leaves.
    """
    full = len(clique) + 1 == len(tables)
    if full and clique:
        bits = sum(1 << c for c in clique)
        for members in seen.get(clique[0], ()):
            if members & bits == bits:
                allowed &= ~members
        if not allowed:
            return
    coeffs = _wedge_coefficients(tables[len(clique)], plucker)
    rest = allowed
    while rest:
        low = rest & -rest
        j = low.bit_length() - 1
        rest ^= low
        ext = _wedge(coeffs, cands[j])
        if gcd(*ext) != 1:
            continue
        if full:
            yield clique + [j]
            members = adj[j] | low
            for c in clique:
                members &= adj[c] | (1 << c)
            rest &= ~members
            todo = members
            while todo:
                bit = todo & -todo
                seen.setdefault(bit.bit_length() - 1, []).append(members)
                todo ^= bit
        else:
            later = allowed & adj[j] & ~((low << 1) - 1)
            yield from _primitive_cliques(cands, adj, tables, clique + [j], ext, later, seen)


def _box_candidates(m: SeifertMatrix, bound: int) -> list[tuple[int, ...]]:
    """Primitive isotropic vectors of the box, one sign each, in product order."""
    g, e = m.genus, m.entries
    halves = list(itertools.product(range(-bound, bound + 1), repeat=g))

    def quad(offset):  # u^T M[half, half] u for every half u
        block = [e[offset + i][offset:offset + g] for i in range(g)]
        return [sum(x * sum(map(mul, row, u)) for x, row in zip(u, block)) for u in halves]

    cross = [[e[i][g + j] + e[g + j][i] for i in range(g)] for j in range(g)]  # columns of C
    bottom = list(zip(halves, quad(g)))
    cands = []
    for u, q in zip(halves, quad(0)):
        cu = [sum(map(mul, u, col)) for col in cross]
        for w in [w for w, qw in bottom if q + qw + sum(map(mul, cu, w)) == 0]:
            v = u + w
            if gcd(*v) == 1 and next(x for x in v if x) > 0:  # -v spans the same lattice
                cands.append(v)
    return cands


def _adjacency_masks(m: SeifertMatrix, cands, bound: int) -> list[int]:
    """Bit j of mask i is set iff candidates i != j pair to 0 under M both ways.

    Every f . c_j for one functional f is read off one big-integer sum;
    the slot layout is explained in enumerate_metabolizers.
    """
    k = len(cands)
    if not k:
        return []
    cols = list(zip(*m.entries))
    funcs = [([sum(map(mul, c, col)) for col in cols], [sum(map(mul, row, c)) for row in m.entries])
             for c in cands]  # c^T M and M c
    norm = max(sum(map(abs, f)) for pair in funcs for f in pair)
    step = (norm * bound).bit_length() // 8 + 1  # bytes per slot, w = 8 * step
    ones = int.from_bytes(b"\1".ljust(step, b"\0") * k, "little")
    high = ones << (8 * step - 1)  # bias 2^(w-1) in every slot
    low = high - ones
    # packed[t] holds coordinate t of candidate j in slot j; c[t] + bound
    # fits the slot's low byte because the box limit keeps bound below 63
    packed = []
    layout = bytearray(k * step)
    for t in range(m.dim):
        layout[::step] = bytes(c[t] + bound for c in cands)
        packed.append(int.from_bytes(layout, "little") - bound * ones)
    read = bytes.maketrans(b"\0\x80", b"10")  # top byte of a slot: flag clear means zero
    adj = []
    for i, pair in enumerate(funcs):
        flags = 0
        for f in pair:
            x = (sum(map(mul, f, packed)) + high) ^ high  # slot j: f . c_j mod 2^w
            flags |= ((x & low) + low) | x  # top bit of slot j set iff slot j is nonzero
        zero = int((flags & high).to_bytes(k * step, "big")[::step].translate(read), 2)
        adj.append(zero & ~(1 << i))  # c_i is isotropic, so it pairs to 0 with itself
    return adj


def enumerate_metabolizers(m: SeifertMatrix, coeff_bound: int) -> list[MetabolizerBasis]:
    """All metabolizers spanned by columns with entries in [-bound, bound].

    Results are one basis per lattice, the Hermite canonical basis of
    its column span, sorted by those columns.  The search space is the
    box of (2*bound+1)**(2*genus) vectors, so genus is capped at
    MAX_SEARCH_GENUS and the box at MAX_SEARCH_BOX; a larger request is
    refused before any work starts.

    The search enumerates lattices, not bases.  Every vector of a basis
    of a direct summand is primitive, and every subset of such a basis
    spans a summand.  So the candidates are the primitive isotropic
    vectors of the box (one sign each), and a clique of candidates on
    which the form vanishes both ways grows only while the gcd of its
    exterior product (its Pluecker coordinates, the maximal minors) is
    1.  A gcd of 0 means dependent columns; a gcd above 1 means the span
    is not a summand.

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
    for the Hermite form and the is_metabolizer cross-check.

    Candidates and adjacency are built in bulk.  A box vector v = (u, w)
    with halves of length g has v^T M v = q_top(u) + q_bot(w) + (C^T u).w,
    where C = M[top, bot] + M[bot, top]^T and q_top, q_bot are the forms
    of the diagonal blocks.  So q_bot is computed once per half, q_top(u)
    and C^T u once per u, and each vector costs one g-term dot product;
    u runs outside w, which is itertools.product order.  Candidates c_i
    and c_j are adjacent iff r_i.c_j = s_i.c_j = 0, for r_i = c_i^T M and
    s_i = M c_i.  Coordinate t of all k candidates is packed into one
    integer, candidate j in slot j of w bits, so one big-integer sum per
    functional f holds every f.c_j.  As |f.c_j| <= |f|_1 * bound, w is
    the least multiple of 8 above the bit length of the largest
    |f|_1 * bound: with a bias of 2^(w-1) added, every slot lies in
    [1, 2^w), no slot borrows from its neighbour, and the sums are exact
    for entries of any size.
    """
    if coeff_bound < 1:
        raise ValueError(f"coefficient bound must be >= 1, got {coeff_bound}")
    if m.genus > MAX_SEARCH_GENUS:
        raise ValueError(f"genus {m.genus} exceeds the search guard ({MAX_SEARCH_GENUS})")
    if (2 * coeff_bound + 1) ** m.dim > MAX_SEARCH_BOX:
        raise ValueError(
            f"coefficient bound {coeff_bound} at genus {m.genus} gives a search box "
            f"above cap MAX_SEARCH_BOX = {MAX_SEARCH_BOX} vectors"
        )
    cands = _box_candidates(m, coeff_bound)
    adj = _adjacency_masks(m, cands, coeff_bound)
    tables = [_wedge_table(m.dim, level) for level in range(m.genus)]
    found = []
    for clique in _primitive_cliques(cands, adj, tables, [], [1], (1 << len(cands)) - 1, {}):
        # the clique's rows are independent (their minors have gcd 1), so
        # their Hermite form has no zero row and is the lattice's canonical basis
        basis = MetabolizerBasis(tuple(map(tuple, row_hnf([cands[i] for i in clique]))))
        if not is_metabolizer(m, basis):  # canonical basis spans the same lattice
            raise CrossCheckError("canonicalized basis lost the metabolizer property")
        found.append(basis)
    return sorted(found, key=lambda basis: basis.columns)


def symplectic_complete(
    m: SeifertMatrix, v: MetabolizerBasis, rng: Random | None = None
) -> Matrix:
    """Extend a metabolizer basis to a symplectic basis of the homology.

    Returns a unimodular 2g x 2g matrix T whose first g columns are the
    dual a-curves and whose last g columns are v's columns, satisfying
    T^T J T = J_b = [[0, I], [-I, 0]] exactly, for J = M - M^T, the
    intersection form of m's ordering.  That postcondition is re-verified
    on every call, and it also proves T unimodular: det(J) = det(J_b) = 1,
    so det(T)^2 = 1.  Passing an rng picks a different (still valid)
    completion, used to confirm downstream outputs don't depend on the
    choice.

    The duals come from one Hermite form.  A primitive V has row
    Hermite form [I; 0], so the first g rows of row_hnf([V | I]) are
    [I | L] with L V = I, and A = J L^T satisfies A^T J V = I because
    J^T J = I.  Any dual is fixed modulo V, since V is its own
    J-orthogonal complement, so the a-to-b block A^T M V that the
    generator reads does not depend on which one is picked.
    """
    if not is_metabolizer(m, v):
        raise PreconditionError("not a metabolizer; completion refused")
    g = m.genus
    j = intersection_form(g, m.ordering)
    vmat = v.as_matrix()

    # duality: A^T J V = I, with A = J L^T read off the Hermite form
    eye = identity(m.dim)
    h = row_hnf([vmat[r] + eye[r] for r in range(m.dim)])
    a = mat_mul(j, transpose([row[g:] for row in h[:g]]))

    if rng is not None:
        shift = [[rng.randint(-3, 3) for _ in range(g)] for _ in range(g)]
        a = [[a[r][i] + sum(vmat[r][t] * shift[t][i] for t in range(g)) for i in range(g)]
             for r in range(m.dim)]

    # Gram correction: kill the a-a pairings without touching duality
    gram = mat_mul(transpose(a), mat_mul(j, a))
    x = [[-gram[r][c] if r > c else 0 for c in range(g)] for r in range(g)]
    corr = mat_mul(vmat, x)
    a = [[a[r][c] + corr[r][c] for c in range(g)] for r in range(m.dim)]

    t = [a[r] + vmat[r] for r in range(m.dim)]
    check = mat_mul(transpose(t), mat_mul(j, t))
    if check != intersection_form(g, "blocked"):
        raise CrossCheckError("completion failed its symplectic-form postcondition")
    return t


@dataclass(frozen=True, slots=True)
class GeneratorResult:
    """|n0| plus the sign-sensitive raw value it was computed from.

    The attached set {n * n0 : n integer} is reported as contained in
    the realizable differences; whether it exhausts them is open.
    """

    generator: int
    signed: int

    @property
    def meaning(self) -> str:
        return f"realizable mu-bar(123) differences contain n*{self.generator} for every integer n"


def generator_from_block(block) -> GeneratorResult:
    """Generator of a blocked matrix's a-to-b block B (3x3).

    Evaluates both the nine-parameter polynomial and det(B^T - I) -
    det(B) and insists they agree.  Entries go through operator.index.
    """
    b = [[index(x) for x in row] for row in block]
    if len(b) != 3 or any(len(row) != 3 for row in b):
        raise ValueError("block must be 3x3")
    (pa, x1, y1), (x2, pb, z1), (y2, z2, pc) = b
    expanded = (pa - 1) * (pb - 1) * (pc - 1) - pa * pb * pc + x1 * x2 + y1 * y2 + z1 * z2
    bt_minus_id = [[b[j][i] - (1 if i == j else 0) for j in range(3)] for i in range(3)]
    via_det = det(bt_minus_id) - det(b)
    if expanded != via_det:
        raise CrossCheckError(
            f"generator formulas disagree: polynomial {expanded}, determinant {via_det}"
        )
    return GeneratorResult(abs(expanded), expanded)


def generator_for_metabolizer(
    m: SeifertMatrix, v: MetabolizerBasis, rng: Random | None = None
) -> GeneratorResult:
    """Generator attached to a genus-3 matrix and one of its metabolizers.

    Completes v to a symplectic basis, rewrites M in it (blocked form by
    construction), and reads the generator off the a-to-b block.  The
    magnitude does not depend on the completion.
    """
    if m.genus != 3:
        raise ValueError(f"genus-3 matrices only, got genus {m.genus}")
    t = symplectic_complete(m, v, rng=rng)
    big = mat_mul(transpose(t), mat_mul(m.entries, t))
    block = [[big[i][3 + j] for j in range(3)] for i in range(3)]
    return generator_from_block(block)


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


@dataclass(frozen=True, slots=True)
class GenusOneNormalization:
    """Data moving a genus-1 matrix [[d, e], [e-1, 0]] to its normal form.

    (x, y) spans the new metabolizer column, (z, w) its symplectic dual
    with -x*w + z*y = 1; new_matrix is the Seifert matrix in the basis
    (z*a + w*b, x*a + y*b), of the shape [[*, 1-e], [-e, 0]].
    """

    n: int
    x: int
    y: int
    z: int
    w: int
    new_matrix: SeifertMatrix


def genus_one_normalize(d: int, e: int) -> GenusOneNormalization:
    """Normalize a genus-1 summand [[d, e], [e-1, 0]].

    n = gcd(2e-1, -d) is always defined (2e-1 is odd, so nonzero); the
    Bezout pair is canonicalized by minimal |w| with ties toward w <= 0
    (and minimal |z| in the degenerate y = 0 case).  The three defining
    identities -- (z w) M (x y)^T = 1-e, (x y) M (z w)^T = -e,
    (x y) M (x y)^T = 0 -- are re-verified on every call.
    """
    matrix = [[d, e], [e - 1, 0]]
    n = gcd(2 * e - 1, -d)
    x = (2 * e - 1) // n
    y = -d // n
    # z*y - w*x = 1 has solutions since gcd(x, y) = 1
    g, z0, w0 = xgcd(y, -x)
    if g != 1:
        raise CrossCheckError(f"gcd(x, y) != 1 after dividing out n (got {g})")
    if y == 0:
        # x is +-1 and w is forced; slide z to 0
        z, w = 0, w0
    else:
        # w runs over w0 + t*y: its residue mod |y| in [-floor(|y|/2), ceil(|y|/2))
        half = abs(y) // 2
        w = (w0 + half) % abs(y) - half
        z = z0 + (w - w0) // y * x
    if -x * w + z * y != 1:
        raise CrossCheckError("Bezout pair fails -x*w + z*y = 1")

    lhs1 = bilinear([z, w], matrix, [x, y])
    lhs2 = bilinear([x, y], matrix, [z, w])
    lhs3 = bilinear([x, y], matrix, [x, y])
    if (lhs1, lhs2, lhs3) != (1 - e, -e, 0):
        raise CrossCheckError(
            f"normalization identities failed: got {(lhs1, lhs2, lhs3)}, "
            f"expected {(1 - e, -e, 0)}"
        )
    new = validate(
        [[bilinear([z, w], matrix, [z, w]), lhs1], [lhs2, lhs3]], "interleaved"
    )
    return GenusOneNormalization(n, x, y, z, w, new)


def normalize_e(e: int) -> int:
    """The representative of {e, 1-e} with |e| > |e-1|; always >= 1.

    Basis swap on a genus-1 summand replaces the off-diagonal parameter
    e by 1-e, so each summand can be assumed to carry the larger of the
    two magnitudes.
    """
    return e if e >= 1 else 1 - e
