import itertools
import json
import sys
from math import gcd
from pathlib import Path
from random import Random

import pytest

from helpers import (
    UNKNOT_ROWS,
    brute_force_bezout,
    brute_force_metabolizer_lattices,
    cofactor_det,
    lattice_keys,
    minors_gcd,
    pairwise_candidates_and_adjacency,
    random_unimodular,
    skew_part,
    unimodular_inverse,
    unknot_sum_rows,
    visit_every_basis_metabolizers,
)
from trilink import seifert
from trilink.errors import CrossCheckError, PreconditionError
from trilink.intlinalg import det, mat_mul, row_hnf, transpose
from trilink.realization import GenusThreeParams
from trilink.seifert import (
    MAX_VERDICT_GENUS,
    MetabolizerBasis,
    MetabolizerVerdict,
    SeifertMatrix,
    _wedge,
    _wedge_coefficients,
    _wedge_table,
    connected_sum,
    enumerate_metabolizers,
    form,
    generator_for_metabolizer,
    generator_from_block,
    genus_one_normalize,
    intersection_form,
    is_metabolizer,
    metabolizer_verdict,
    normalize_e,
    reorder,
    standard_metabolizer,
    symplectic_complete,
    validate,
)

PARAMS = GenusThreeParams(2, 3, 4, 5, 6, 7, 8, 9, 10)
DATA = Path(__file__).resolve().parent / "data"


def unit(i, dim=6):
    col = [0] * dim
    col[i] = 1
    return tuple(col)


def basis_from(*positions, dim=6):
    return MetabolizerBasis(tuple(unit(p, dim) for p in positions))


def random_params(rng, bound=9):
    return GenusThreeParams(*(rng.randint(-bound, bound) for _ in range(9)))


def random_stars(rng, bound=9):
    return tuple(rng.randint(-bound, bound) for _ in range(6))


def random_seifert(rng, genus, ordering, metabolic=False, entries=(0, 0, 0, 1, -1, 2)):
    """Random valid matrix with upper entries drawn from entries, zero-heavy
    by default so that metabolizers occur.

    With metabolic, the form vanishes on the b-curves, so they span one.
    """
    j = intersection_form(genus, ordering)
    n = 2 * genus
    b_curves = set(range(1, n, 2) if ordering == "interleaved" else range(genus, n))
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            if not (metabolic and r in b_curves and c in b_curves):
                rows[r][c] = rng.choice(entries)
            rows[c][r] = rows[r][c] - j[r][c]
    return validate(rows, ordering)


# ---------------------------------------------------------------- validate


def test_validate_unknot(unknot):
    assert unknot.genus == 3
    assert unknot.ordering == "interleaved"


def test_validate_rejects_zero_matrix():
    with pytest.raises(ValueError, match="skew part fails"):
        validate([[0] * 6 for _ in range(6)], "interleaved")


def test_validate_rejects_odd_dimension():
    with pytest.raises(ValueError, match="even dimension"):
        validate([[0] * 3 for _ in range(3)], "interleaved")


def test_validate_blocked_shape():
    rng = Random(1)
    for _ in range(50):
        g = rng.randint(1, 3)
        a = [[0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                a[i][j] = a[j][i] = rng.randint(-5, 5)
        b = [[rng.randint(-5, 5) for _ in range(g)] for _ in range(g)]
        rows = [
            a[i] + b[i] if i < g else
            [b[j][i - g] - (1 if j == i - g else 0) for j in range(g)] + [0] * g
            for i in range(2 * g)
        ]
        m = validate(rows, "blocked")
        assert m.genus == g


def test_validate_refuses_non_integers():
    with pytest.raises(TypeError):
        validate([[0, 1.7], [0.4, 0]], "interleaved")
    with pytest.raises(TypeError):
        validate([["0", "1"], ["0", "0"]], "interleaved")


def test_validate_reports_offending_pair():
    rows = [r[:] for r in UNKNOT_ROWS]
    rows[0][3] = 5  # breaks symmetry against rows[3][0]
    with pytest.raises(ValueError, match=r"\(0,3\)"):
        validate(rows, "interleaved")


# ----------------------------------------------------------------- reorder


def test_reorder_is_involutive():
    rng = Random(2)
    for _ in range(30):
        m = random_params(rng).seifert_matrix(random_stars(rng))
        assert reorder(reorder(m, "blocked"), "interleaved") == m


def test_reorder_refuses_unknown_ordering(unknot):
    with pytest.raises(ValueError, match="unknown ordering 'bogus'"):
        reorder(unknot, "bogus")


def test_reorder_parametrized_matrix_to_blocked():
    blocked = reorder(PARAMS.seifert_matrix(), "blocked")
    top_right = [list(row[3:]) for row in blocked.entries[:3]]
    assert top_right == PARAMS.block()
    bottom_left = [list(row[:3]) for row in blocked.entries[3:]]
    bt = transpose(PARAMS.block())
    assert bottom_left == [[bt[i][j] - (1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert all(all(x == 0 for x in row[3:]) for row in blocked.entries[3:])


def test_reorder_unknot_blocked_block_is_identity(unknot):
    blocked = reorder(unknot, "blocked")
    assert [list(r[3:]) for r in blocked.entries[:3]] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# -------------------------------------------------------------------- form


def test_form_examples(unknot):
    b1 = list(unit(1))
    assert form(unknot, b1, b1) == 0
    assert form(unknot, [0] * 6, [1] * 6) == 0
    m = PARAMS.seifert_matrix()
    assert form(m, list(unit(0)), list(unit(1))) == PARAMS.a
    assert form(m, list(unit(1)), list(unit(0))) == PARAMS.a - 1


def test_form_length_check(unknot):
    with pytest.raises(ValueError):
        form(unknot, [1, 0], [0] * 6)


def test_skew_part_is_intersection_form():
    rng = Random(3)
    for _ in range(20):
        m = random_params(rng).seifert_matrix(random_stars(rng))
        assert skew_part(m) == intersection_form(3, "interleaved")


def test_pushoff_examples():
    # linking with the + pushoff is form(m, x, y), with the - pushoff form(m, y, x)
    m = PARAMS.seifert_matrix()
    e4, e6 = list(unit(3)), list(unit(5))
    assert form(m, e6, [0, 0, 0, 0, -1, 0]) == -(PARAMS.c - 1) == -3
    assert form(m, e4, [-1, 1, 0, 0, 0, -1]) == -PARAMS.x1 == -5
    assert form(m, list(unit(1)), list(unit(0))) == PARAMS.a - 1  # a1 with b1's - pushoff
    assert form(m, [1] * 6, [0] * 6) == form(m, [0] * 6, [1] * 6) == 0


# ------------------------------------------------------------ is_metabolizer


def test_is_metabolizer_examples(unknot):
    assert is_metabolizer(unknot, basis_from(1, 3, 5)) is True
    assert is_metabolizer(unknot, basis_from(0, 1, 3)) is False  # form(a1, b1) = 1
    assert is_metabolizer(unknot, basis_from(0, 3, 5)) is True  # a1, b2, b3 also isotropic
    m = validate([[3, 2], [1, 0]], "interleaved")
    assert is_metabolizer(m, MetabolizerBasis(((0, 1),))) is True


def test_is_metabolizer_scaled_column_fails(unknot):
    cols = (unit(1), unit(3), tuple(2 * x for x in unit(5)))
    assert is_metabolizer(unknot, MetabolizerBasis(cols)) is False


def test_metabolizer_verdict_examples(unknot):
    assert metabolizer_verdict(unknot, basis_from(1, 3, 5)) == MetabolizerVerdict(True, True, True)
    scaled = MetabolizerBasis((unit(1), unit(3), tuple(2 * x for x in unit(5))))
    assert metabolizer_verdict(unknot, scaled) == MetabolizerVerdict(True, True, False)
    dependent = MetabolizerBasis((unit(1), unit(3), unit(3)))
    assert metabolizer_verdict(unknot, dependent) == MetabolizerVerdict(True, False, False)
    assert metabolizer_verdict(unknot, basis_from(0, 1, 3)) == MetabolizerVerdict(False, True, True)
    assert not metabolizer_verdict(unknot, basis_from(0, 1, 3)).is_metabolizer
    assert not metabolizer_verdict(unknot, dependent).is_metabolizer
    # the genus-one normal form's column (x, y) is primitive, (0, 2) is not
    r = genus_one_normalize(2, 1)
    m = validate([[2, 1], [0, 0]], "interleaved")
    assert metabolizer_verdict(m, MetabolizerBasis(((r.x, r.y),))) == MetabolizerVerdict(True, True, True)
    assert metabolizer_verdict(m, MetabolizerBasis(((0, 2),))) == MetabolizerVerdict(True, True, False)


def test_is_metabolizer_dimension_errors(unknot):
    with pytest.raises(ValueError, match="column length"):
        is_metabolizer(unknot, MetabolizerBasis(((0, 1),)))
    with pytest.raises(ValueError, match="exactly 3 columns"):
        is_metabolizer(unknot, MetabolizerBasis((unit(1), unit(3))))


def test_metabolizer_verdict_genus_guard():
    assert MAX_VERDICT_GENUS == 16
    m = validate(unknot_sum_rows(MAX_VERDICT_GENUS), "interleaved")
    assert is_metabolizer(m, standard_metabolizer(m))
    big = validate(unknot_sum_rows(MAX_VERDICT_GENUS + 1), "interleaved")
    with pytest.raises(ValueError, match="metabolizer-test guard"):
        metabolizer_verdict(big, standard_metabolizer(big))
    # refused before the column checks or any arithmetic
    with pytest.raises(ValueError, match="metabolizer-test guard"):
        metabolizer_verdict(big, MetabolizerBasis(((0, 1),)))


def test_metabolizer_verdict_reads_the_gram_matrix(unknot, monkeypatch):
    import trilink.seifert as seifert

    def no_bilinear(*args):
        raise AssertionError("bilinear called")

    monkeypatch.setattr(seifert, "bilinear", no_bilinear)
    rng = Random(24)
    for _ in range(100):
        cols = tuple(tuple(rng.randint(-1, 1) for _ in range(6)) for _ in range(3))
        gram = [[sum(u[i] * UNKNOT_ROWS[i][j] * v[j] for i in range(6) for j in range(6))
                 for v in cols] for u in cols]
        verdict = metabolizer_verdict(unknot, MetabolizerBasis(cols))
        assert verdict.form_vanishes == (not any(x for row in gram for x in row))


# ---------------------------------------------------------------- enumerate


def test_enumerate_unknot_contains_standard(unknot):
    found = enumerate_metabolizers(unknot, 1)
    std = standard_metabolizer(unknot)
    assert lattice_keys([std]) <= lattice_keys(found)
    for v in found:
        assert is_metabolizer(unknot, v)


def test_enumerate_genus_one_examples():
    m = validate([[0, 1], [0, 0]], "interleaved")
    found = enumerate_metabolizers(m, 1)
    keys = lattice_keys(found)
    assert lattice_keys([MetabolizerBasis(((0, 1),))]) <= keys
    assert lattice_keys([MetabolizerBasis(((1, 0),))]) <= keys  # a-curve is isotropic too

    # positive definite quadratic form: no isotropic vectors at all
    pos = validate([[1, 1], [0, 1]], "interleaved")
    assert enumerate_metabolizers(pos, 2) == []
    assert brute_force_metabolizer_lattices(pos, 2) == set()


def test_enumerate_agrees_with_brute_force_genus_2():
    rng = Random(6)
    mats = [
        validate(
            [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], "interleaved"
        ),
        validate(
            [[2, 1, 0, 3], [0, 0, 3, 0], [0, 3, -1, 2], [3, 0, 1, 0]], "interleaved"
        ),
    ]
    for m in mats:
        assert lattice_keys(enumerate_metabolizers(m, 1)) == \
            brute_force_metabolizer_lattices(m, 1)


def test_enumerate_unknot_genus_3_bound_2_matches_golden(unknot):
    golden = json.loads((DATA / "enumerate_unknot_genus3_bound2.json").read_text())
    assert golden["entries"] == UNKNOT_ROWS
    found = enumerate_metabolizers(unknot, golden["bound"])
    assert [[list(c) for c in v.columns] for v in found] == golden["lattices"]
    oracle = visit_every_basis_metabolizers(unknot, golden["bound"])
    assert [[list(c) for c in v.columns] for v in oracle] == golden["lattices"]


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("genus", [1, 2, 3])
def test_enumerate_matches_visit_every_basis_oracle(genus, bound):
    rng = Random(1000 * genus + bound)
    total = 0
    for trial in range(4):
        m = random_seifert(rng, genus, rng.choice(("interleaved", "blocked")), trial % 2 == 1)
        found = enumerate_metabolizers(m, bound)
        assert found == visit_every_basis_metabolizers(m, bound)
        total += len(found)
    assert total > 0


def assert_bulk_builders_match_pairwise(m, bound) -> tuple[int, int]:
    """The search's candidates and masks equal the pairwise oracle's; returns
    the number of candidates and of adjacent pairs."""
    cands, adj = pairwise_candidates_and_adjacency(m, bound)
    assert seifert._box_candidates(m, bound) == cands
    assert seifert._adjacency_masks(m, cands, bound) == adj
    return len(cands), sum(mask.bit_count() for mask in adj) // 2


def assert_some_work(genus, work):
    # Two adjacent candidates span an isotropic plane, which genus 1 lacks.
    cands, pairs = map(sum, zip(*work))
    assert cands > 0 and (pairs > 0 or genus == 1)


@pytest.mark.parametrize("genus, bounds", [(1, range(1, 63)), (2, range(1, 6)), (3, (1, 2))])
def test_bulk_builders_match_pairwise_oracle(genus, bounds):
    # every bound the box limit allows at genus 1 and 2; entries of 1 to 40 digits
    rng = Random(800 + genus)
    work = []
    for bound in bounds:
        for ordering in seifert.ORDERINGS:
            digits = rng.randint(1, 40)
            big = [rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)
                   for _ in range(2)]
            m = random_seifert(rng, genus, ordering, True, (0, 0, 0, 1, -1, *big))
            work.append(assert_bulk_builders_match_pairwise(m, bound))
    assert_some_work(genus, work)


@pytest.mark.parametrize("genus, bound", [(1, 2), (2, 1), (2, 2), (3, 1)])
def test_bulk_builders_at_slot_width_edges(genus, bound):
    # An unknot-like surface with d = +-2^j or +-(2^j - 1) added to the
    # symmetric pair of entries (0, n-1) and (n-1, 0): e_0 and e_(n-1) stay
    # isotropic, and the largest pairings |f.c_j| come within a few units
    # of |f|_1 * bound, on either side of each power of two where the slot
    # width steps up.
    # At genus 3 only the j next to a multiple of 8 run, to bound the oracle's time.
    js = [j for j in range(1, 70) if genus < 3 or j % 8 in (7, 0)]
    work = []
    for j in js:
        for d in (2**j, -(2**j), 2**j - 1, 1 - 2**j):
            rows = unknot_sum_rows(genus)
            rows[0][-1] += d
            rows[-1][0] += d
            m = reorder(validate(rows, "interleaved"), seifert.ORDERINGS[j % 2])
            work.append(assert_bulk_builders_match_pairwise(m, bound))
    assert_some_work(genus, work)


def test_bulk_builders_without_candidates():
    pos = validate([[1, 1], [0, 1]], "interleaved")  # positive definite
    assert assert_bulk_builders_match_pairwise(pos, 62) == (0, 0)


def test_bulk_builders_pin_the_unknot_search_work(unknot):
    # The same candidates and adjacent pairs as the pairwise route, so the
    # search does the same work.  The 640-digit limit on int <-> str
    # conversion in bases other than powers of two does not touch the
    # base-2 read of a 1,034-bit mask.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert assert_bulk_builders_match_pairwise(unknot, 1) == (122, 1500)
        assert assert_bulk_builders_match_pairwise(unknot, 2) == (1034, 35880)
    finally:
        sys.set_int_max_str_digits(limit)


def test_enumerate_prunes_only_prefixes_inside_a_found_lattice():
    # Pruning a prefix that merely meets a found lattice, instead of lying
    # inside it, loses two of these 13 lattices at bound 1.
    rows = [[1, 2, 0, 1, 0, 0], [2, 0, 0, 2, -1, -1], [0, 0, 0, 0, 0, 0],
            [0, 2, 0, 0, 0, 0], [0, -2, 0, 0, 0, 0], [0, -1, -1, 0, 0, 0]]
    m = validate(rows, "blocked")
    found = enumerate_metabolizers(m, 1)
    assert len(found) == 13
    assert found == visit_every_basis_metabolizers(m, 1)


@pytest.mark.parametrize("bound", [1, 2])
def test_enumerate_canonicalizes_each_lattice_once(unknot, monkeypatch, bound):
    calls = []

    def counting(mat):
        calls.append(mat)
        return row_hnf(mat)

    monkeypatch.setattr(seifert, "row_hnf", counting)
    found = enumerate_metabolizers(unknot, bound)
    assert len(calls) == len(found) == (28, 100)[bound - 1]


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("genus", [1, 2])
def test_enumerate_agrees_with_brute_force_random(genus, bound):
    rng = Random(100 * genus + bound)
    total = 0
    for _ in range(8):
        m = random_seifert(rng, genus, rng.choice(("interleaved", "blocked")))
        found = enumerate_metabolizers(m, bound)
        keys = [v.columns for v in found]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for v in found:  # each basis is its lattice's canonical (sort) key
            assert v.columns == tuple(map(tuple, row_hnf([list(c) for c in v.columns])))
        assert lattice_keys(found) == brute_force_metabolizer_lattices(m, bound)
        total += len(found)
    assert total > 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wedge_gives_maximal_minors(k):
    rng = Random(30 + k)
    gcds = set()
    for trial in range(40):
        cols = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(k)]
        if trial % 4 == 1:  # index >= 2 in its saturation
            cols[-1] = [2 * x for x in cols[-1]]
        elif trial % 4 == 2 and k > 1:  # dependent
            cols[-1] = [x + y for x, y in zip(cols[0], cols[-2])]
        p = [1]
        for level, v in enumerate(cols):
            p = _wedge(_wedge_coefficients(_wedge_table(6, level), p), v)
        mat = transpose(cols)
        minors = [cofactor_det([mat[r] for r in rows])
                  for rows in itertools.combinations(range(6), k)]
        assert p == minors
        assert gcd(*p) == minors_gcd(mat, k)
        gcds.add(gcd(*p))
    assert 1 in gcds and any(x > 1 for x in gcds)
    assert k == 1 or 0 in gcds


def test_enumerate_guards(unknot):
    with pytest.raises(ValueError, match=">= 1"):
        enumerate_metabolizers(unknot, 0)
    with pytest.raises(ValueError, match="above cap"):
        enumerate_metabolizers(unknot, 3)
    # the box limit (2*bound+1)**(2*genus) <= 5**6 is exact at genus 1 and 2
    genus_one = validate([[0, 1], [0, 0]], "interleaved")
    genus_two = validate([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], "interleaved")
    for m, top in ((genus_one, 62), (genus_two, 5)):
        assert enumerate_metabolizers(m, top)
        with pytest.raises(ValueError, match="above cap"):
            enumerate_metabolizers(m, top + 1)
    g4 = [[0] * 8 for _ in range(8)]
    for i in range(4):
        g4[2 * i][2 * i + 1] = 1
    with pytest.raises(ValueError, match="search guard"):
        enumerate_metabolizers(validate(g4, "interleaved"), 1)


# ------------------------------------------------------- symplectic_complete


def test_complete_unknot_standard(unknot):
    t = symplectic_complete(unknot, standard_metabolizer(unknot))
    cols = transpose(t)
    assert cols[:3] == [list(unit(0)), list(unit(2)), list(unit(4))]
    assert cols[3:] == [list(unit(1)), list(unit(3)), list(unit(5))]


def test_complete_genus_one_bezout():
    m = validate([[2, 1], [0, 0]], "interleaved")
    v = MetabolizerBasis(((1, -2),))
    t = symplectic_complete(m, v)
    (z, x), (w, y) = t
    assert (x, y) == (1, -2)
    assert -x * w + z * y == 1


def test_complete_postcondition_random():
    rng = Random(8)
    for _ in range(40):
        m = random_params(rng, 5).seifert_matrix(random_stars(rng, 5))
        u = random_unimodular(rng, 3, steps=6)
        vmat = mat_mul(standard_metabolizer(m).as_matrix(), u)
        v = MetabolizerBasis(tuple(tuple(c) for c in transpose(vmat)))
        t = symplectic_complete(m, v, rng=rng)
        got = mat_mul(transpose(t), mat_mul(skew_part(m), t))
        assert got == intersection_form(3, "blocked")
        assert abs(det(t)) == 1
        assert transpose(t)[3:] == [list(c) for c in v.columns]


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_complete_blocked_ordering(genus):
    # J comes from the ordering's intersection form, so blocked input is its own case
    rng = Random(40 + genus)
    blocked = intersection_form(genus, "blocked")
    completed = 0
    for _ in range(6):
        m = random_seifert(rng, genus, "blocked", metabolic=True)
        for v in enumerate_metabolizers(m, 1)[:8]:
            t = symplectic_complete(m, v, rng=rng)
            assert mat_mul(transpose(t), mat_mul(skew_part(m), t)) == blocked
            assert abs(det(t)) == 1
            assert transpose(t)[genus:] == [list(c) for c in v.columns]
            completed += 1
    assert completed >= 6


def test_complete_refuses_non_metabolizer(unknot):
    with pytest.raises(PreconditionError, match="refused"):
        symplectic_complete(unknot, basis_from(0, 1, 3))
    with pytest.raises(PreconditionError, match="refused"):
        # primitive failure: doubled column
        cols = (unit(1), unit(3), tuple(2 * x for x in unit(5)))
        symplectic_complete(unknot, MetabolizerBasis(cols))


# --------------------------------------------------------------- generators


def test_generator_from_block_examples():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    res = generator_from_block(eye)
    assert (res.generator, res.signed) == (1, -1)
    assert generator_from_block([[2, 0, 0], [0, 2, 0], [0, 0, 2]]).generator == 7
    zero = generator_from_block([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert (zero.generator, zero.signed) == (1, -1)
    assert "n*1" in res.meaning


def test_generator_from_block_refuses_floats():
    with pytest.raises(TypeError):
        generator_from_block([[1.5, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_generator_from_block_matches_cofactor_route():
    rng = Random(10)
    for _ in range(200):
        b = [[rng.randint(-50, 50) for _ in range(3)] for _ in range(3)]
        bt_minus = [[b[j][i] - (i == j) for j in range(3)] for i in range(3)]
        assert generator_from_block(b).signed == cofactor_det(bt_minus) - cofactor_det(b)


def test_generator_invariant_under_dual_basis_change():
    rng = Random(12)
    for _ in range(100):
        b = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        p1 = random_unimodular(rng, 3, steps=8)
        p2 = unimodular_inverse(transpose(p1))  # duality forces P2 = (P1^T)^-1
        changed = mat_mul(transpose(p2), mat_mul(b, p1))
        assert generator_from_block(changed).generator == generator_from_block(b).generator


def test_generator_for_metabolizer_unknot(unknot):
    assert generator_for_metabolizer(unknot, standard_metabolizer(unknot)).generator == 1


def test_generator_for_metabolizer_connected_sum_of_trivial_summands():
    rng = Random(14)
    summands = [validate([[rng.randint(-5, 5), 1], [0, 0]], "interleaved") for _ in range(3)]
    m = connected_sum(*summands)
    assert generator_for_metabolizer(m, standard_metabolizer(m)).generator == 1


def test_generator_independent_of_completion_and_stars():
    rng = Random(16)
    for _ in range(25):
        p = random_params(rng, 5)
        base = generator_for_metabolizer(
            p.seifert_matrix(), standard_metabolizer(p.seifert_matrix())
        )
        m = p.seifert_matrix(random_stars(rng, 5))
        v = standard_metabolizer(m)
        r1 = generator_for_metabolizer(m, v, rng=Random(rng.randrange(10**6)))
        r2 = generator_for_metabolizer(m, v, rng=Random(rng.randrange(10**6)))
        assert r1.generator == r2.generator == base.generator
        assert base.signed == p.generator()


def test_generator_requires_genus_3():
    m = validate([[0, 1], [0, 0]], "interleaved")
    with pytest.raises(ValueError, match="genus-3"):
        generator_for_metabolizer(m, MetabolizerBasis(((0, 1),)))


# ------------------------------------------------------------ connected sum


def test_connected_sum_of_trivial_blocks_is_unknot_matrix(unknot):
    block = validate([[0, 1], [0, 0]], "interleaved")
    assert connected_sum(block, block, block) == unknot


def test_connected_sum_layout_and_validity():
    rng = Random(18)
    for _ in range(30):
        ms = [
            validate([[rng.randint(-9, 9), e], [e - 1, 0]], "interleaved")
            for e in (rng.randint(-9, 9) for _ in range(3))
        ]
        total = connected_sum(*ms)
        for k in range(3):
            for i in range(2):
                for j in range(2):
                    assert total.entries[2 * k + i][2 * k + j] == ms[k].entries[i][j]


def test_connected_sum_rejects_wrong_genus(unknot):
    block = validate([[0, 1], [0, 0]], "interleaved")
    with pytest.raises(ValueError, match="genus 1"):
        connected_sum(unknot, block, block)


# --------------------------------------------------------- genus-one pipeline


def test_genus_one_normalize_examples():
    r = genus_one_normalize(2, 1)
    assert (r.n, r.x, r.y, r.z, r.w) == (1, 1, -2, 0, -1)
    assert r.new_matrix.entries == ((0, 0), (-1, 0))

    r0 = genus_one_normalize(0, 1)
    assert (r0.n, r0.x, r0.y, r0.z, r0.w) == (1, 1, 0, 0, -1)


def test_genus_one_normalize_identities_random():
    rng = Random(20)
    for _ in range(400):
        d, e = rng.randint(-10, 10), rng.randint(-10, 10)
        r = genus_one_normalize(d, e)
        m = [[d, e], [e - 1, 0]]
        zw, xy = [r.z, r.w], [r.x, r.y]
        assert sum(zw[i] * m[i][j] * xy[j] for i in range(2) for j in range(2)) == 1 - e
        assert sum(xy[i] * m[i][j] * zw[j] for i in range(2) for j in range(2)) == -e
        assert sum(xy[i] * m[i][j] * xy[j] for i in range(2) for j in range(2)) == 0
        assert r.z * r.y - r.w * r.x == 1  # unimodular change of basis
        assert r.new_matrix.entries[0][1] == 1 - e
        assert r.new_matrix.entries[1] == (-e, 0)
        assert r.n > 0 and r.n * r.x == 2 * e - 1 and r.n * r.y == -d


def test_genus_one_bezout_canonical():
    # w minimized, ties toward w <= 0, and the degenerate y = 0 case pins z = 0;
    # on random (d, e) the pair agrees with a search (helpers.brute_force_bezout)
    r = genus_one_normalize(2, 1)
    assert (r.z, r.w) == (0, -1)
    for e in (-3, 0, 1, 4):
        r = genus_one_normalize(0, e)
        assert r.z == 0 and abs(r.w) == 1
    rng = Random(23)
    pairs = [(rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(400)]
    pairs += [(rng.randint(-10**6, 10**6), rng.randint(-10**3, 10**3)) for _ in range(50)]
    pairs += [(0, e) for e in (-2, 0, 1, 3)] + [(-30, 8), (-2, -7), (12, 4)]
    for d, e in pairs:
        r = genus_one_normalize(d, e)
        assert (r.z, r.w) == brute_force_bezout(r.x, r.y), (d, e)


def test_normalize_e():
    assert normalize_e(3) == 3
    assert normalize_e(0) == 1
    assert normalize_e(-2) == 3
    assert normalize_e(1) == 1
    for e in range(-25, 26):
        ne = normalize_e(e)
        assert ne >= 1 and ne in (e, 1 - e)
        assert abs(ne) > abs(ne - 1)


def test_normalized_summands_give_nonzero_generator():
    rng = Random(22)
    for _ in range(100):
        es = [normalize_e(rng.randint(-20, 20)) for _ in range(3)]
        prod = es[0] * es[1] * es[2]
        shifted = (es[0] - 1) * (es[1] - 1) * (es[2] - 1)
        assert abs(prod) > abs(shifted)
        block = [[es[0], 0, 0], [0, es[1], 0], [0, 0, es[2]]]
        assert generator_from_block(block).generator == abs(shifted - prod) != 0


# ----------------------------------------------------------------- plumbing


def test_standard_metabolizer_orderings(unknot):
    std = standard_metabolizer(unknot)
    assert std.columns == (unit(1), unit(3), unit(5))
    blocked = reorder(unknot, "blocked")
    assert standard_metabolizer(blocked).columns == (unit(3), unit(4), unit(5))


def test_seifert_matrix_is_immutable(unknot):
    with pytest.raises(AttributeError):
        unknot.genus = 2
    assert isinstance(unknot.entries[0], tuple)
