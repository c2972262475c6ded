"""Shared test utilities and independent oracles.

The oracles here deliberately avoid the package's own routines: word
reduction is a per-letter stack loop over checked letters (the package
reduces integer letter codes from the first inverse pair a C-level scan
finds), word text is read one regex-matched token at a time (the package
reads canonical one-digit text in bulk byte passes), the determinant
is cofactor expansion (the package uses Bareiss), the Magnus expansion
is a plain dict convolution per letter (the package reads
degree 2 off position sums over views of the word's codes and updates
one packed integer per degree), the degree-2 table is also kept in its
two older forms, the running exponent sums and each row packed into
one integer and updated per letter, and one list row of exponent sums
per letter, the per-degree levels in
theirs, one list of coefficients per degree updated slice by slice, and
primitivity is gcd of maximal minors by cofactor expansion, and also
the verdict's earlier read of the row Hermite form of V (hermite_verdict;
the package folds the minors through its exterior product),
the Hermite form that keys lattices and inverts unimodular matrices is
reference_row_hnf, the package's earlier row_hnf loop kept as it was,
and the skew part M - M^T is read off the entries (the package uses the
ordering's intersection form), its first failure by a scan of every
entry (the package reads the upper triangle).  The ledger's commutator pairs are
assembled here from exponent sums, their band-slide mirror is kept
here, and the genus-one Bezout pair is found by search.  The metabolizer
search is kept in its older form, which reaches every box basis of a
lattice and drops repeats by Pluecker key.  Matrix products are the
textbook triple loop, and symplectic changes of basis are built from
transvections, apart from the package's completion.  The genus-3
generator is read through the completion T and its a-to-b block
(generator_via_completion); the package reads the block off the duals
alone.  Exponent sums are counted in the codes, two bytes.count passes
per generator (counted_sums; the package reads the last generator in no
computed pair off the signed length).
"""

from __future__ import annotations

import itertools
import re
from math import gcd
from operator import add, index as as_index, sub
from random import Random

from trilink.intlinalg import _Slots, identity, row_hnf, transpose, xgcd
from trilink.realization import GenusThreeParams
from trilink.seifert import (MetabolizerBasis, generator_from_block, standard_metabolizer,
                             symplectic_complete)
from trilink.words import FreeWord, abelianization, generator

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


def stack_reduced(rank, letters) -> tuple[tuple[int, int], ...]:
    """The letters of FreeWord(rank, letters), checked and reduced one letter at a time.

    The rank is checked first, then each distinct letter, the first time
    it occurs; a letter cancels the top of a stack of kept letters if it
    is that letter's inverse and is pushed otherwise.
    """
    rank = as_index(rank)
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    # each distinct letter -> (its checked form, the checked form of its
    # inverse); equal letters share one entry, so (1.0, 1) after (1, 1)
    # takes the form (1, 1) and is not checked again
    checked: dict = {}
    out: list = [None]  # the stack of kept letters, above a sentinel
    for letter in letters:
        entry = checked.get(letter)
        if entry is None:
            index, sign = map(as_index, letter)
            if not 1 <= index <= rank:
                raise ValueError(f"generator index {index} out of range 1..{rank}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")
            entry = checked[letter] = (index, sign), (index, -sign)
        form, inverse = entry
        if out[-1] == inverse:
            out.pop()
        else:
            out.append(form)
    return tuple(out[1:])


def token_reduced(text, rank) -> tuple[tuple[int, int], ...]:
    """The letters of parse_word(text, rank), one whitespace token at a time.

    Each token is matched in turn against x<k> / x<k>^-1 and its index
    against the rank; then stack_reduced checks the rank and reduces.
    """
    letters = []
    for token in text.split():
        m = re.fullmatch(r"x([1-9][0-9]*)(\^-1)?", token)
        if m is None:
            raise ValueError(f"malformed token {token!r}")
        index = int(m.group(1))
        if index > rank:
            raise ValueError(f"generator index {index} out of range 1..{rank}")
        letters.append((index, -1 if m.group(2) else 1))
    return stack_reduced(rank, letters)


def random_commutator_subgroup_word(rng: Random, rank: int = 3, max_len: int = 8) -> FreeWord:
    """Random word with all exponent sums zero (append cancelling tails)."""
    w = random_word(rng, rank, max_len)
    for i in range(1, rank + 1):
        s = abelianization(w).get(i, 0)
        if s:
            w = w * generator(rank, i) ** -s
    return w


def skew_part(m) -> list[list[int]]:
    """M - M^T of a SeifertMatrix, from its entries."""
    e = m.entries
    return [[e[i][j] - e[j][i] for j in range(m.dim)] for i in range(m.dim)]


def form_of_ordering(genus: int, ordering: str) -> list[list[int]]:
    """The intersection form J of an ordering, built from its pairs (a_i, b_i)."""
    n = 2 * genus
    j = [[0] * n for _ in range(n)]
    for i in range(genus):
        a, b = (2 * i, 2 * i + 1) if ordering == "interleaved" else (i, genus + i)
        j[a][b], j[b][a] = 1, -1
    return j


def first_skew_failure(rows, ordering: str) -> str | None:
    """SeifertMatrix's skew-part message for the first failing (i, j) of a
    scan of every entry in row order, or None if M - M^T is the form."""
    n = len(rows)
    j = form_of_ordering(n // 2, ordering)
    for r in range(n):
        for c in range(n):
            skew = rows[r][c] - rows[c][r]
            if skew != j[r][c]:
                return (f"skew part fails at entries ({r},{c})/({c},{r}): "
                        f"M[i][j]-M[j][i] = {skew}, intersection form needs {j[r][c]}")
    return None


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


def rebased(rng: Random, v: MetabolizerBasis, steps: int = 6) -> MetabolizerBasis:
    """v's lattice in another basis: its columns times a random unimodular matrix."""
    vmat = plain_product(v.as_matrix(), random_unimodular(rng, v.count, steps))
    return MetabolizerBasis(tuple(zip(*vmat)))


def mixed_b_curves(rng: Random, m) -> MetabolizerBasis:
    """The b-curves of a metabolic matrix, mixed by a random unimodular matrix."""
    return rebased(rng, standard_metabolizer(m))


def plain_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """a times b by the textbook triple loop (the package maps mul over rows)."""
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in a]
    for i in range(len(a)):
        for j in range(cols):
            for t in range(len(b)):
                out[i][j] += a[i][t] * b[t][j]
    return out


def random_symplectic(
    rng: Random, genus: int, ordering: str, steps: int = 8
) -> tuple[list[list[int]], list[list[int]]]:
    """A random T in Sp(2g, Z) for the ordering's intersection form J, and T^-1.

    T is a product of transvections I + k v v^T J.  Each keeps J, since
    v^T J v = 0, and has inverse I - k v v^T J.  So for a Seifert matrix M
    of that ordering, T^T M T is one too, and T^-1 maps metabolizers of M
    to metabolizers of T^T M T.
    """
    n = 2 * genus
    j = form_of_ordering(genus, ordering)
    t, t_inv = identity(n), identity(n)
    for _ in range(steps):
        v = [rng.randint(-2, 2) for _ in range(n)]
        k = rng.choice((-2, -1, 1, 2))
        vj = plain_product([v], j)[0]
        step = [[int(r == c) + k * v[r] * vj[c] for c in range(n)] for r in range(n)]
        step_inv = [[int(r == c) - k * v[r] * vj[c] for c in range(n)] for r in range(n)]
        t, t_inv = plain_product(t, step), plain_product(step_inv, t_inv)
    return t, t_inv


def reference_row_hnf(m: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form, pivot first found, one generator scan per column.

    Positive pivots, zeros below them and entries above reduced into
    [0, pivot), zero rows last: the contract of intlinalg.row_hnf,
    computed by the loop that function had before its pivot row was held
    in a local.
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


def unimodular_inverse(m: list[list[int]]) -> list[list[int]]:
    """Inverse of a +-1 determinant integer matrix: its Hermite form [m | I] is [I | m^-1]."""
    n = len(m)
    eye = identity(n)
    h = reference_row_hnf([m[i] + eye[i] for i in range(n)])
    assert [row[:n] for row in h] == eye, "matrix is not unimodular"
    return [row[n:] for row in h]


def cofactor_det(m: list[list[int]]) -> int:
    """Laplace expansion along the first row (independent of Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def minors_gcd(m: list[list[int]], k: int) -> int:
    """gcd of all k x k minors (0 if all vanish), returned as soon as it reaches 1."""
    rows, cols = len(m), len(m[0])
    g = 0
    for rsel in itertools.combinations(range(rows), k):
        for csel in itertools.combinations(range(cols), k):
            sub = [[m[i][j] for j in csel] for i in rsel]
            g = gcd(g, cofactor_det(sub))
            if g == 1:
                return 1
    return g


def hermite_verdict(columns) -> tuple[bool, bool]:
    """(independent, primitive) of g columns off row_hnf(V): independent iff the
    top g rows of the Hermite form are nonzero, primitive iff they are I."""
    g = len(columns)
    top = row_hnf(transpose(columns))[:g]  # zero rows come last
    return any(top[-1]), top == identity(g)


def brute_force_metabolizer_lattices(m, bound: int) -> set:
    """Exhaustive metabolizer scan with plain arithmetic.

    Filters isotropic nonzero vectors, one of v and -v (a V with a
    non-isotropic column fails on a diagonal entry, and a column's sign
    does not change the span), pairs every two of them both ways by plain
    row sums, then checks every g-subset on which the form vanishes for
    minor-gcd primitivity.  Those subsets are built by a recursive scan
    that extends a subset only by later vectors vanishing against each
    of its vectors, and a (g-1)-subset only if its minor gcd is 1: every
    subset of a basis of a direct summand spans a direct summand, so no
    primitive g-subset is lost.  Lattices are keyed by lattice_key of a
    basis.
    """
    g = m.genus
    rows = [list(r) for r in m.entries]
    dim = 2 * g

    def row_of(u):  # u^T M
        return [sum(u[i] * rows[i][j] for i in range(dim)) for j in range(dim)]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    vecs = [
        v for v in itertools.product(range(-bound, bound + 1), repeat=dim)
        if any(v) and next(x for x in v if x) > 0 and dot(row_of(v), v) == 0
    ]
    left = [row_of(v) for v in vecs]
    vanish = [{b for b, v in enumerate(vecs) if dot(left[a], v) == 0 == dot(left[b], vecs[a])}
              for a in range(len(vecs))]
    keys = set()

    def extend(combo, allowed):  # allowed: the later vectors vanishing against all of combo
        cols = [list(vecs[i]) for i in combo]
        k = len(combo)
        if k >= max(g - 1, 1) and minors_gcd([list(row) for row in zip(*cols)], k) != 1:
            return
        if k == g:
            keys.add(lattice_key(cols))
            return
        for pos, b in enumerate(allowed):
            extend(combo + [b], [c for c in allowed[pos + 1:] if c in vanish[b]])

    extend([], list(range(len(vecs))))
    return keys


def pairwise_candidates(m, bound: int) -> list:
    """Box candidates of the metabolizer search, vector by vector.

    The primitive isotropic vectors of the box in itertools.product
    order, signed so that their first nonzero entry is positive.
    """
    cands = []
    for vec in itertools.product(range(-bound, bound + 1), repeat=m.dim):
        if gcd(*vec) != 1 or next(x for x in vec if x) < 0:
            continue
        if sum(a * sum(b * c for b, c in zip(row, vec)) for a, row in zip(vec, m.entries)) == 0:
            cands.append(vec)
    return cands


def pairwise_adjacency(m, vectors) -> list[int]:
    """Adjacency masks of the metabolizer search, pair by pair.

    Bit j of adj[i] is set iff u^T M v and v^T M u both vanish for
    u = vectors[i] and v = vectors[j], with i != j.
    """
    cols_of_m = list(zip(*m.entries))
    row_of = [[sum(a * b for a, b in zip(vec, col)) for col in cols_of_m] for vec in vectors]
    adj = [0] * len(vectors)
    for i, j in itertools.combinations(range(len(vectors)), 2):
        if (sum(a * b for a, b in zip(row_of[i], vectors[j])) == 0
                and sum(a * b for a, b in zip(row_of[j], vectors[i])) == 0):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def pairwise_candidates_and_adjacency(m, bound: int) -> tuple[list, list[int]]:
    """Box candidates and adjacency masks of the metabolizer search, pair by pair.

    Candidates are pairwise_candidates(m, bound), and their masks
    pairwise_adjacency(m, candidates).
    """
    cands = pairwise_candidates(m, bound)
    return cands, pairwise_adjacency(m, cands)


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


def generator_via_completion(m, v):
    """The genus-3 generator through the completion: generator_from_block of
    T[:, :g]^T M T[:, g:] for symplectic_complete's T = (A | V)."""
    g = m.genus
    t = symplectic_complete(m, v)
    a_rows = [list(col) for col in zip(*t)][:g]
    return generator_from_block(plain_product(plain_product(a_rows, [list(r) for r in m.entries]),
                                              [row[g:] for row in t]))


def lattice_key(vectors) -> tuple[tuple[int, ...], ...]:
    """Hermite canonical basis of the lattice the vectors span, zero rows dropped."""
    return tuple(tuple(r) for r in reference_row_hnf([list(v) for v in vectors]) if any(r))


def lattice_keys(bases) -> set:
    return {lattice_key(v.columns) for v in bases}


def rows_degree_two(w: FreeWord) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Exponent sums and nonzero a_i a_j (i != j) coefficients, one list row per letter.

    Letter (j, s) adds s times the running exponent sums to row j of the
    a_i a_j table, a new list of r ints, on the labels 0..r-1 of the
    distinct generators in ascending order; the diagonal is dropped.
    """
    gens = sorted({index for index, _ in w.letters})
    label = {g: n for n, g in enumerate(gens)}
    r = len(gens)
    sums = [0] * r
    rows = [[0] * r for _ in range(r)]
    for index, s in w.letters:
        j = label[index]
        rows[j] = [c + s * e for c, e in zip(rows[j], sums)]
        sums[j] += s
    coeffs = {(gens[i], gens[j]): c
              for j, row in enumerate(rows) for i, c in enumerate(row) if c and i != j}
    return dict(zip(gens, sums)), coeffs


def packed_degree_two(w: FreeWord) -> tuple[tuple[int, int, int], dict[tuple[int, int], int]]:
    """magnus._degree_two's reply for a rank-3 word, from running exponent sums, one pass.

    A single letter contributes no a_i a_j with i != j, and the degree-1
    coefficient of x_k^s is s; so each letter (j, s) adds s times the
    running exponent sums to row j of the a_i a_j table (Fox calculus
    cut at degree 2).  The sums, and each row, are one packed integer
    (intlinalg._Slots) in which generator g owns slot g - 1.  x_j adds
    the sums to row j and then unit[j] to the sums; x_j^-1 subtracts
    unit[j] and then the sums from row j.  So slot j - 1 of row j holds
    C(E_j, 2) for the running sum E_j, the a_j a_j coefficient, which is
    dropped.  With n letters every |E| <= n and every |coefficient| <=
    n**2, the slots' limit.  Returns the sums of x1, x2, x3 in order;
    missing pairs have coefficient 0.
    """
    slots = _Slots(3, len(w.letters) ** 2)
    unit = [0] + [1 << (slots.width * k) for k in range(3)]
    rows = [0] * 4
    sums = 0
    for j, s in w.letters:
        if s == 1:
            rows[j] += sums
            sums += unit[j]
        else:
            sums -= unit[j]
            rows[j] -= sums
    coeffs = {(i, j): c
              for j in (1, 2, 3) if rows[j]
              for i, c in enumerate(slots.read(rows[j]), 1) if c and i != j}
    return tuple(slots.read(sums)), coeffs


def counted_sums(w: FreeWord) -> tuple[int, int, int]:
    """Exponent sums of x1, x2, x3 in a rank-3 word, two bytes.count passes per generator."""
    slot = {g: k for k, g in enumerate(w._gens)}
    return tuple(w._codes.count(2 * slot[g]) - w._codes.count(2 * slot[g] + 1) if g in slot
                 else 0 for g in (1, 2, 3))


def list_levels(codes, r: int, cap: int) -> list[list[int]]:
    """Dense levels 0..cap of the series of a word's codes, on r generators.

    Code 2k is x_k and code 2k + 1 is x_k^-1, for k in 0..r-1, as in
    FreeWord._codes.  Level d holds the r**d coefficients of degree d, the
    monomial read as a base-r number indexing its slot.
    Right-multiplying by x_k adds c_m to c_{m k} for every m below the
    cap; the slots m k of level d form the slice [k::r], in the order of
    level d - 1.  So x_k adds the old level d - 1 from the top down, and
    x_k^-1, whose image S' solves S' (1 + a_k) = S, subtracts the new
    level d - 1 from the bottom up.  A letter updates 1 + r + ... +
    r**(cap-1) slots.
    """
    levels = [[1]] + [[0] * r**d for d in range(1, cap + 1)]
    top_down = range(cap, 0, -1)
    bottom_up = range(1, cap + 1)
    for code in codes:
        k = code >> 1
        op, order = (sub, bottom_up) if code & 1 else (add, top_down)
        for d in order:
            level = levels[d]
            level[k::r] = map(op, level[k::r], levels[d - 1])
    return levels


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
    pair's class is then e12*f13 - e13*f12.  This is the per-term
    oracle of realization.ledger, which builds its terms from the
    pushoff entries it reads off the matrix: band1 is a-1 times n
    passes of (1,0) against (., band1_pair1_vs_3) = (., -(c-1)) and one
    of (0,1) against (band1_pair2_vs_2_n, .) = (n*b, .); each band3
    pass, n*x2 of them, is (0,1) against (band3_pair_vs_2, .) =
    (-x1, .); each band5 pass, n*y2 of them, is (1,0) against
    (., band5_pair_vs_3) = (., y1); and the residual is the n-pass core
    pair (core_first_vs_2_n, core_first_vs_3_n) = (n*b, n*z1) against
    (core_second_vs_2_n, core_second_vs_3_n) = (-(n-1)*b - z2,
    -(n-1)*z1 - c), which is n times the single-pass (b,z1) against
    (-z2,-c).
    """
    return e12 * f13 - e13 * f12


def swapped(p: GenusThreeParams) -> GenusThreeParams:
    """The band-slide mirror of p: sliding the middle band pair past the last
    swaps the second and third derivative components (b<->c, x<->y, z1<->z2).

    The swap fixes the generator and trades the band3 and band5 terms.
    """
    return GenusThreeParams(p.a, p.c, p.b, p.y1, p.y2, p.x1, p.x2, p.z2, p.z1)


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
