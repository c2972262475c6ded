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
    first_skew_failure,
    lattice_keys,
    minors_gcd,
    mixed_b_curves,
    pairwise_adjacency,
    pairwise_candidates,
    pairwise_candidates_and_adjacency,
    plain_product,
    random_symplectic,
    random_unimodular,
    rebased,
    skew_part,
    unimodular_inverse,
    unknot_sum_rows,
    visit_every_basis_metabolizers,
)
from trilink import seifert
from trilink.errors import CrossCheckError, PreconditionError
from trilink.intlinalg import _Slots, bilinear, det, identity, mat_mul, row_hnf, transpose
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


def test_skew_error_is_the_first_failure_of_a_full_scan():
    # SeifertMatrix reads the skew part above the diagonal only; its message
    # must still name the pair a scan of every (i, j) in row order fails first
    rng = Random(37)
    for genus in range(1, 5):
        n = 2 * genus
        for ordering in ("interleaved", "blocked"):
            for trial in range(40):
                rows = [list(row) for row in random_seifert(rng, genus, ordering).entries]
                for step in range(1 + trial % 3):
                    i, j = rng.sample(range(n), 2)
                    if (i < j) != (step % 2 == 0):  # alternate upper and lower triangle
                        i, j = j, i
                    rows[i][j] += rng.choice((-2, -1, 1, 3))
                want = first_skew_failure(rows, ordering)
                if want is None:  # two changes cancelled in M - M^T
                    assert validate(rows, ordering).entries == tuple(map(tuple, rows))
                    continue
                with pytest.raises(ValueError) as exc:
                    validate(rows, ordering)
                assert str(exc.value) == want


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


def curve_position(genus, ordering, k):
    """Position of curve k of (a1..ag, b1..bg) in an ordering's basis, as the
    README writes the orderings: (a1, b1, ..., ag, bg) or (a1..ag, b1..bg)."""
    if ordering == "blocked":
        return k
    return 2 * k if k < genus else 2 * (k - genus) + 1


def written_form(genus, ordering):
    """The README's forms: the block diagonal of [[0, 1], [-1, 0]] for
    interleaved, [[0, I], [-I, 0]] for blocked."""
    n = 2 * genus
    if ordering == "interleaved":
        return [[int(i % 2 == 0 and j == i + 1) - int(j % 2 == 0 and i == j + 1)
                 for j in range(n)] for i in range(n)]
    return [[int(j == i + genus) - int(i == j + genus) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("genus", range(1, 6))
@pytest.mark.parametrize("ordering", seifert.ORDERINGS)
def test_layout_at_every_genus(genus, ordering):
    assert intersection_form(genus, ordering) == written_form(genus, ordering)
    other = next(o for o in seifert.ORDERINGS if o != ordering)
    where = [curve_position(genus, ordering, k) for k in range(2 * genus)]
    there = [curve_position(genus, other, k) for k in range(2 * genus)]
    rng = Random(10 * genus + len(ordering))
    for _ in range(10):
        m = random_seifert(rng, genus, ordering, entries=range(-9, 10))
        moved = reorder(m, other)
        assert reorder(moved, ordering) == m
        assert reorder(m, ordering) is m
        assert all(moved.entries[there[k]][there[l]] == m.entries[where[k]][where[l]]
                   for k in range(2 * genus) for l in range(2 * genus))
        permuted = []
        for col in standard_metabolizer(m).columns:
            new = [0] * 2 * genus
            for k in range(2 * genus):
                new[there[k]] = col[where[k]]
            permuted.append(tuple(new))
        assert standard_metabolizer(moved).columns == tuple(permuted)
        assert standard_metabolizer(m).columns == tuple(
            unit(where[genus + i], 2 * genus) for i in range(genus))


@pytest.mark.parametrize("genus", range(1, 6))
def test_unknown_ordering_reported_at_every_genus(genus):
    rows = unknot_sum_rows(genus)
    m = validate(rows, "interleaved")
    calls = [
        lambda: intersection_form(genus, "bogus"),
        lambda: validate(rows, "bogus"),
        lambda: reorder(m, "bogus"),
        lambda: SeifertMatrix(genus, "bogus", m.entries),
        # a bad ordering and a bad shape: the ordering is reported
        lambda: SeifertMatrix(genus + 1, "bogus", m.entries),
        lambda: SeifertMatrix(genus, "bogus", m.entries[1:]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^unknown ordering 'bogus'$"):
            call()


def test_shape_is_checked_before_the_form_is_built(monkeypatch):
    # 200,000 empty rows: building the form first would take 4 * 10**10 slots
    def refuse(*args):
        raise AssertionError("intersection form built before the shape check")

    monkeypatch.setattr(seifert, "intersection_form", refuse)
    with pytest.raises(ValueError, match="expected a 200000x200000 matrix"):
        validate([[]] * 200_000, "interleaved")


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
    assert bilinear(b1, unknot.entries, b1) == 0
    assert bilinear([0] * 6, unknot.entries, [1] * 6) == 0
    m = PARAMS.seifert_matrix()
    assert bilinear(list(unit(0)), m.entries, list(unit(1))) == PARAMS.a
    assert bilinear(list(unit(1)), m.entries, list(unit(0))) == PARAMS.a - 1


def test_form_length_check(unknot):
    with pytest.raises(ValueError):
        bilinear([1, 0], unknot.entries, [0] * 6)


def test_skew_part_is_intersection_form():
    rng = Random(3)
    for _ in range(20):
        m = random_params(rng).seifert_matrix(random_stars(rng))
        assert skew_part(m) == intersection_form(3, "interleaved")


def test_pushoff_examples():
    # lk(x, y+) is x^T M y, and lk(x, y-) is y^T M x
    m = PARAMS.seifert_matrix()
    e4, e6 = list(unit(3)), list(unit(5))
    assert bilinear(e6, m.entries, [0, 0, 0, 0, -1, 0]) == -(PARAMS.c - 1) == -3
    assert bilinear(e4, m.entries, [-1, 1, 0, 0, 0, -1]) == -PARAMS.x1 == -5
    # a1 with b1's - pushoff
    assert bilinear(list(unit(1)), m.entries, list(unit(0))) == PARAMS.a - 1
    assert bilinear([1] * 6, m.entries, [0] * 6) == bilinear([0] * 6, m.entries, [1] * 6) == 0


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
        for v in found:  # the search does not re-test what it returns
            assert metabolizer_verdict(m, v) == (True, True, True)
        total += len(found)
    assert total > 0


@pytest.mark.parametrize("bound, lattices", [(1, 28), (2, 100)])
def test_enumerate_runs_no_metabolizer_test(unknot, monkeypatch, bound, lattices):
    # each clique is a metabolizer by construction, so the search never tests one
    def no_test(*args):
        raise AssertionError("metabolizer test called")

    for name in ("is_metabolizer", "metabolizer_verdict"):
        monkeypatch.setattr(seifert, name, no_test)
    assert len(enumerate_metabolizers(unknot, bound)) == lattices


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
    # An unknot-like surface with d added to the symmetric pair of entries
    # (0, n-1) and (n-1, 0): e_0 and e_(n-1) stay isotropic, and the width
    # rule's figure bound^2 * sum |M_st| = bound^2 * (genus + 2|d|) is
    # reached by |v^T M v| for a box vector v.  |d| puts that figure within
    # 4 * bound^2 either side of 2^(8s - 1), where the width of both
    # builders' _Slots(k, figure) steps from 8s to 8s + 8 bits.
    work = []
    for s in range(1, 10):
        base = (2 ** (8 * s - 1) // bound**2 - genus) // 2
        widths = set()
        for d in (base - 1, base, base + 1, base + 2):
            for sign in (1, -1):
                rows = unknot_sum_rows(genus)
                rows[0][-1] += sign * d
                rows[-1][0] += sign * d
                m = reorder(validate(rows, "interleaved"), seifert.ORDERINGS[(d + s) % 2])
                widths.add(_Slots(0, bound**2 * sum(map(abs, itertools.chain(*rows)))).width)
                work.append(assert_bulk_builders_match_pairwise(m, bound))
        assert widths == {8 * s, 8 * s + 8}
    assert_some_work(genus, work)


@pytest.mark.parametrize("digits", [40, 1000, 4300])
@pytest.mark.parametrize("genus, bound", [(3, 1), (1, 62)])
def test_bulk_builders_on_large_symmetric_perturbations(genus, bound, digits):
    # An unknot-like surface plus a symmetric perturbation (M - M^T
    # unchanged): d on the pair (0, n-1), (n-1, 0) and diag on a diagonal
    # entry other than the last, so that e_(n-1) stays isotropic.
    rng = Random(900 + digits + genus)
    work = []
    for ordering in seifert.ORDERINGS:
        d, diag = (rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)
                   for _ in range(2))
        rows = unknot_sum_rows(genus)
        rows[0][-1] += d
        rows[-1][0] += d
        p = rng.randrange(2 * genus - 1)
        rows[p][p] += diag
        m = reorder(validate(rows, "interleaved"), ordering)
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


def test_adjacency_builds_one_k_slot_sum_and_reads_it_once_per_candidate(unknot, monkeypatch):
    built, reads = [], []

    class Spy(_Slots):
        def __init__(self, k, limit):
            built.append(k)
            super().__init__(k, limit)

        def zeros(self, *args):
            reads.append(self.k)
            return super().zeros(*args)

    cands, adj = pairwise_candidates_and_adjacency(unknot, 1)
    monkeypatch.setattr(seifert, "_Slots", Spy)
    assert seifert._adjacency_masks(unknot, cands, 1) == adj
    assert built == [122] and reads == [122] * 122


def edge_surface(genus, ordering, d, c):
    """The unknot-like surface of an ordering plus d + genus + c on the
    diagonal entry of a1 and d on that of b1, so every entry is >= 0."""
    rows = [[max(x, 0) for x in row] for row in intersection_form(genus, ordering)]
    a, b = seifert._curve_positions(genus, ordering)
    rows[a[0]][a[0]] += d + genus + c
    rows[b[0]][b[0]] += d
    return validate(rows, ordering)


@pytest.mark.parametrize("genus, top", [(1, 62), (2, 5), (3, 2)])
def test_adjacency_slot_at_its_edges(genus, top):
    # Slot j of c_i's adjacency read holds x A + B, with A = c_i^T M c_j,
    # B = c_i^T J c_j and x = 4g bound^2 + 1, and the masks need both to
    # vanish.  The builder's sums hold for any box vectors, so these are
    # every bound * (+-1, ..., +-1), primitive only at bound 1, with
    # u = bound * (1, ..., 1) twice.  On edge_surface, u against u and -u
    # has B = 0 and A = +-bound^2 sum |M_st|, and u against t, bound on
    # each a-curve and -bound on each b-curve, has B = -2g bound^2, the
    # largest |B|, and A = c bound^2: 0 at c = 0, and at c = 1 and bound 1
    # an x of 2g would cancel the pair.  d puts the slot figure
    # x bound^2 sum |M_st| + 2g bound^2 on both sides of 2^(8s - 1),
    # where the width of _Slots(k, figure) steps from 8s to 8s + 8 bits.
    n = 2 * genus
    for bound in range(1, top + 1):
        x, sq = 4 * genus * bound * bound + 1, bound * bound
        u = (bound,) * n
        vectors = [u, *itertools.product((bound, -bound), repeat=n)]
        for ordering in seifert.ORDERINGS:
            a_curves, _ = seifert._curve_positions(genus, ordering)
            t = tuple(bound if p in a_curves else -bound for p in range(n))
            j = intersection_form(genus, ordering)
            for c in (0, 1):
                def figure(d):
                    return x * sq * (2 * d + 2 * genus + c) + 2 * genus * sq

                first = figure(2).bit_length() // 8 + 1
                for s in (first, first + 2):
                    base = ((2 ** (8 * s - 1) - 2 * genus * sq) // (x * sq) - 2 * genus - c) // 2
                    widths = set()
                    for d in range(base - 1, base + 3):
                        m = edge_surface(genus, ordering, d, c)
                        total = sum(map(abs, itertools.chain(*m.entries)))
                        assert figure(d) == x * sq * total + 2 * genus * sq
                        widths.add(_Slots(0, figure(d)).width)
                        assert (bilinear(u, m.entries, u), bilinear(u, j, u)) == (sq * total, 0)
                        assert bilinear(u, m.entries, [-e for e in u]) == -sq * total
                        assert (bilinear(u, m.entries, t), bilinear(u, j, t)) == \
                            (c * sq, -2 * genus * sq)
                        assert seifert._adjacency_masks(m, vectors, bound) == \
                            pairwise_adjacency(m, vectors)
                    assert widths == {8 * s, 8 * s + 8}


def zero_top_half(cands, genus):
    """The candidates (0, w): those whose top half u is 0."""
    return [c for c in cands if not any(c[:genus])]


def test_box_candidates_with_a_zero_top_half():
    # The scan packs only the top halves u that are 0 or have a positive
    # first nonzero, and with u = 0 keeps only w with a positive first
    # nonzero.  The genus-2 unknot at its box cap has 2 of its 320
    # candidates at u = 0; its hits (0, 0, 0, -1), (0, 0, -1, 0) and
    # (0, 0, 0, 0) are dropped.
    m = validate(unknot_sum_rows(2), "interleaved")
    cands = seifert._box_candidates(m, 5)
    assert cands == pairwise_candidates(m, 5)
    assert len(cands) == 320
    assert zero_top_half(cands, 2) == [(0, 0, 0, 1), (0, 0, 1, 0)]
    # the bottom block [[1, -1], [-1, 1]] vanishes on w = (t, t): of the hits
    # (0, 0, t, t), t <= 0 lies up to the centre, and t > 1 is not primitive
    m = validate([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, -1], [0, 0, -1, 1]], "blocked")
    for bound in (1, 2, 5):
        cands = seifert._box_candidates(m, bound)
        assert cands == pairwise_candidates(m, bound)
        assert zero_top_half(cands, 2) == [(0, 0, 1, 1)]


@pytest.mark.parametrize("genus, bound, ordering, count, at_zero", [
    (1, 62, "interleaved", 2, 1), (1, 62, "blocked", 2, 1),
    (2, 5, "interleaved", 320, 2), (2, 5, "blocked", 320, 40),
    (3, 2, "interleaved", 1034, 15), (3, 2, "blocked", 1034, 49),
])
def test_box_candidates_at_the_box_cap(genus, bound, ordering, count, at_zero):
    # the unknot surface at each genus's largest box, with at_zero candidates (0, w)
    m = reorder(validate(unknot_sum_rows(genus), "interleaved"), ordering)
    cands = seifert._box_candidates(m, bound)
    assert cands == pairwise_candidates(m, bound)
    assert (len(cands), len(zero_top_half(cands, genus))) == (count, at_zero)


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


UNKNOT_LIKE = list(itertools.product((0, 1), repeat=3))  # (a, b, c)
# The blocked unknot-like surfaces, by (a, b, c), that fold 35 products at bound 1;
# the rest fold 41.
BLOCKED_FOLDS_35 = {(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)}


def wedge_case(abc, ordering, bound, lattices, wedges, folds):
    name = f"{bound}-{lattices}-{wedges}-{folds}"
    if (abc, ordering) != ((1, 1, 1), "interleaved"):
        name = "".join(map(str, abc)) + f"-{ordering}-{name}"
    return pytest.param(abc, ordering, bound, lattices, wedges, folds, id=name)


@pytest.mark.parametrize("abc, ordering, bound, lattices, wedges, folds", [
    wedge_case((1, 1, 1), "interleaved", 2, 100, 234, 106),
    *[wedge_case(abc, "interleaved", 1, 28, 62, 30) for abc in UNKNOT_LIKE],
    *[wedge_case(abc, "blocked", 1, 28, 57, 35 if abc in BLOCKED_FOLDS_35 else 41)
      for abc in UNKNOT_LIKE],
])
def test_enumerate_wedges_only_prefixes_that_keep_leaves(monkeypatch, abc, ordering, bound,
                                                         lattices, wedges, folds):
    # The unknot-like surfaces GenusThreeParams(a, b, c, 0, ...) (a = b = c = 1
    # is unknot_sum_rows(3)).  A prefix whose leaves membership pruning has
    # dropped is never wedged, one candidate is its own exterior product,
    # and a prefix folds its product into coefficients only on its first
    # wedge.  The counts are pinned exactly: the same pruning does the same
    # work, whatever the bookkeeping of found lattices.
    m = reorder(GenusThreeParams(*abc, 0, 0, 0, 0, 0, 0).seifert_matrix(), ordering)
    calls = {"_wedge": 0, "_wedge_coefficients": 0}

    def counting(name):
        original = getattr(seifert, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(seifert, name, counted)

    counting("_wedge")
    counting("_wedge_coefficients")
    found = enumerate_metabolizers(m, bound)
    assert (len(found), calls["_wedge"], calls["_wedge_coefficients"]) == (lattices, wedges, folds)
    monkeypatch.undo()
    assert found == visit_every_basis_metabolizers(m, bound)


def test_wedge_tables_are_built_once_per_dim_and_level(unknot):
    _wedge_table.cache_clear()
    try:
        for bound in (1, 2, 1):
            enumerate_metabolizers(unknot, bound)
        enumerate_metabolizers(validate(unknot_sum_rows(2), "interleaved"), 1)
        info = _wedge_table.cache_info()
        assert (info.misses, info.currsize) == (5, 5)  # (6, 0..2) and (4, 0..1)
        assert _wedge_table(6, 2) is _wedge_table(6, 2)
        assert isinstance(_wedge_table(6, 2), tuple)  # shared, so immutable
    finally:
        _wedge_table.cache_clear()


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
        v = mixed_b_curves(rng, m)
        for basis in (v, rebased(rng, v)):
            t = symplectic_complete(m, basis)
            got = mat_mul(transpose(t), mat_mul(skew_part(m), t))
            assert got == intersection_form(3, "blocked")
            assert abs(det(t)) == 1
            assert transpose(t)[3:] == [list(c) for c in basis.columns]


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_complete_blocked_ordering(genus):
    # J comes from the ordering's intersection form, so blocked input is its own case
    rng = Random(40 + genus)
    blocked = intersection_form(genus, "blocked")
    completed = 0
    for _ in range(6):
        m = random_seifert(rng, genus, "blocked", metabolic=True)
        for v in enumerate_metabolizers(m, 1)[:8]:
            for basis in (v, rebased(rng, v)):
                t = symplectic_complete(m, basis)
                assert mat_mul(transpose(t), mat_mul(skew_part(m), t)) == blocked
                assert abs(det(t)) == 1
                assert transpose(t)[genus:] == [list(c) for c in basis.columns]
            completed += 1
    assert completed >= 6


def symplectic_change(rng, m, bases, steps=8):
    """(T^T M T, [T^-1 V for V in bases]) for a random symplectic T."""
    t, t_inv = random_symplectic(rng, m.genus, m.ordering, steps)
    assert plain_product(t, t_inv) == identity(m.dim)
    assert plain_product(transpose(t), plain_product(skew_part(m), t)) == skew_part(m)
    moved = plain_product(transpose(t), plain_product([list(r) for r in m.entries], t))
    return validate(moved, m.ordering), [
        basis_of_columns(transpose(plain_product(t_inv, v.as_matrix()))) for v in bases]


def basis_of_columns(cols):
    return MetabolizerBasis(tuple(tuple(c) for c in cols))


@pytest.mark.parametrize("ordering", ["interleaved", "blocked"])
def test_generator_is_symplectic_invariant(ordering):
    rng = Random(71 if ordering == "interleaved" else 72)
    for _ in range(40):
        m = random_seifert(rng, 3, ordering, metabolic=True, entries=range(-6, 7))
        v = mixed_b_curves(rng, m)
        expected = generator_for_metabolizer(m, v)
        moved, (v_moved,) = symplectic_change(rng, m, [v])
        for basis in (v_moved, rebased(rng, v_moved)):
            got = generator_for_metabolizer(moved, basis)
            assert got.generator == expected.generator
            assert got.signed == expected.signed


@pytest.mark.parametrize("ordering", ["interleaved", "blocked"])
@pytest.mark.parametrize("genus", [1, 2, 3])
def test_verdict_and_completion_are_symplectic_invariant(genus, ordering):
    rng = Random(80 + 2 * genus + (ordering == "blocked"))
    blocked = intersection_form(genus, "blocked")
    verdicts = set()
    for _ in range(15):
        m = random_seifert(rng, genus, ordering, metabolic=True, entries=range(-6, 7))
        v = mixed_b_curves(rng, m)
        cols = [list(c) for c in v.columns]
        index_two = basis_of_columns(cols[:-1] + [[2 * x for x in cols[-1]]])
        dependent = basis_of_columns(cols[:-1] + [cols[0] if genus > 1 else [0] * m.dim])
        random_cols = basis_of_columns(
            [[rng.randint(-2, 2) for _ in range(m.dim)] for _ in range(genus)])
        bases = [v, index_two, dependent, random_cols]
        moved, moved_bases = symplectic_change(rng, m, bases)
        for before, after in zip(bases, moved_bases):
            verdict = metabolizer_verdict(m, before)
            assert metabolizer_verdict(moved, after) == verdict
            verdicts.add(verdict)
        again = rebased(rng, moved_bases[0])
        t = symplectic_complete(moved, again)
        assert mat_mul(transpose(t), mat_mul(skew_part(moved), t)) == blocked
        assert transpose(t)[genus:] == [list(c) for c in again.columns]
    assert len(verdicts) >= 3


@pytest.mark.parametrize("genus", [8, 16])
@pytest.mark.parametrize("steps", [20, 40])
def test_verdict_known_answers_at_scale(genus, steps):
    # T^-1 V of the unknot sum's b-curves is a metabolizer of T^T M T whose
    # largest entries have 19 to 38 digits; scaling a column by k gives
    # index k, and repeating a column makes the set dependent
    m = validate(unknot_sum_rows(genus), "interleaved")
    moved, (v,) = symplectic_change(Random(100 * genus + steps), m, [standard_metabolizer(m)], steps)
    cols = [list(c) for c in v.columns]
    assert max(abs(x) for col in cols for x in col) > 10**16
    assert metabolizer_verdict(moved, basis_of_columns(cols)) == (True, True, True)
    for k in (2, 3, 7):
        scaled = [[k * x for x in cols[0]]] + cols[1:]
        assert metabolizer_verdict(moved, basis_of_columns(scaled)) == (True, True, False)
    repeated = cols[:-1] + [cols[0]]
    assert metabolizer_verdict(moved, basis_of_columns(repeated)) == (True, False, False)


def test_complete_refuses_non_metabolizer(unknot):
    with pytest.raises(PreconditionError, match="refused"):
        symplectic_complete(unknot, basis_from(0, 1, 3))
    with pytest.raises(PreconditionError, match="refused"):
        # primitive failure: doubled column
        cols = (unit(1), unit(3), tuple(2 * x for x in unit(5)))
        symplectic_complete(unknot, MetabolizerBasis(cols))



def completion_matches_verdict(m, basis):
    """Check that symplectic_complete refuses basis exactly when is_metabolizer
    rejects it, and otherwise meets its postcondition; return the oracle's answer."""
    if not is_metabolizer(m, basis):
        with pytest.raises(PreconditionError, match="^not a metabolizer; completion refused$"):
            symplectic_complete(m, basis)
        return False
    t = symplectic_complete(m, basis)
    assert mat_mul(transpose(t), mat_mul(skew_part(m), t)) == intersection_form(m.genus, "blocked")
    assert transpose(t)[m.genus:] == [list(c) for c in basis.columns]
    return True


@pytest.mark.parametrize("ordering", ["interleaved", "blocked"])
@pytest.mark.parametrize("genus", [1, 2, 3])
def test_completion_refuses_exactly_the_bases_the_verdict_rejects(genus, ordering):
    rng = Random(90 + 2 * genus + (ordering == "blocked"))
    n = 2 * genus
    a_curves, b_curves = ([[int(i == p) for i in range(n)] for p in positions]
                          for positions in seifert._curve_positions(genus, ordering))
    verdicts = set()
    for _ in range(10):
        m = random_seifert(rng, genus, ordering, metabolic=True, entries=range(-6, 7))
        v = mixed_b_curves(rng, m)
        cols = [list(c) for c in v.columns]
        bases = [v, rebased(rng, v)]
        bases += [basis_of_columns(cols[:-1] + [[k * x for x in cols[-1]]]) for k in (2, 3, 7)]
        bases.append(basis_of_columns(cols[:-1] + [[0] * n]))
        if genus > 1:  # the last column is the sum of the others
            bases.append(basis_of_columns(cols[:-1] + [[sum(c) for c in zip(*cols[:-1])]]))
            # a1 pairs with b1 under J, so the form cannot vanish on these
            bases.append(basis_of_columns(a_curves[:1] + b_curves[:-1]))
        bases.append(basis_of_columns(a_curves[:1] + b_curves[1:]))
        bases.append(basis_of_columns(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(genus)]))
        moved, moved_bases = symplectic_change(rng, m, bases)
        for matrix, group in ((m, bases), (moved, moved_bases)):
            for basis in group:
                verdicts.add(metabolizer_verdict(matrix, basis))
                completion_matches_verdict(matrix, basis)
    assert {(True, True, True), (True, True, False), (True, False, False),
            (False, True, True)} <= verdicts


@pytest.mark.parametrize("genus, steps", [(8, 20), (8, 40), (16, 0)])
def test_completion_known_answers_at_scale(genus, steps):
    # at genus 8, the bases of test_verdict_known_answers_at_scale, with entries of
    # 19 to 38 digits; at genus 16 the unknot sum's own b-curves, since row_hnf([V | I])
    # of a moved genus-16 basis can take minutes
    m = validate(unknot_sum_rows(genus), "interleaved")
    moved, (v,) = symplectic_change(Random(100 * genus + steps), m, [standard_metabolizer(m)], steps)
    cols = [list(c) for c in v.columns]
    assert max(abs(x) for col in cols for x in col) > (10**16 if steps else 0)
    assert completion_matches_verdict(moved, basis_of_columns(cols))
    for k in (2, 3, 7):
        scaled = [[k * x for x in cols[0]]] + cols[1:]
        assert not completion_matches_verdict(moved, basis_of_columns(scaled))
    assert not completion_matches_verdict(moved, basis_of_columns(cols[:-1] + [cols[0]]))


def test_completion_runs_no_smith_form_and_no_verdict(unknot, monkeypatch):
    def banned(*args):
        raise AssertionError("the completion reads its precondition off its own Hermite form")

    for name in ("snf", "metabolizer_verdict", "is_metabolizer"):
        monkeypatch.setattr(seifert, name, banned)
    real_form = seifert.intersection_form

    def blocked_only(genus, ordering):  # J_b is the target; J itself is never built
        assert ordering == "blocked"
        return real_form(genus, ordering)

    monkeypatch.setattr(seifert, "intersection_form", blocked_only)
    t = symplectic_complete(unknot, standard_metabolizer(unknot))
    assert transpose(t)[3:] == [list(unit(1)), list(unit(3)), list(unit(5))]
    assert generator_for_metabolizer(unknot, basis_from(1, 3, 5)).signed == -1
    for refused in (basis_from(0, 1, 3), basis_from(1, 3, 3),
                    MetabolizerBasis((unit(1), unit(3), tuple(2 * x for x in unit(5))))):
        with pytest.raises(PreconditionError, match="completion refused"):
            symplectic_complete(unknot, refused)


def test_completion_checks_the_genus_guard_then_the_shape(unknot):
    big = validate(unknot_sum_rows(MAX_VERDICT_GENUS + 1), "interleaved")
    for wrong in (MetabolizerBasis(((0, 1),)), standard_metabolizer(unknot)):
        with pytest.raises(ValueError, match=r"^genus 17 exceeds the metabolizer-test guard \(16\)$"):
            symplectic_complete(big, wrong)
    with pytest.raises(ValueError, match="^column length 2 does not match matrix dimension 6$"):
        symplectic_complete(unknot, MetabolizerBasis(((0, 1), (1, 0))))
    with pytest.raises(ValueError, match="^need exactly 3 columns, got 2$"):
        symplectic_complete(unknot, MetabolizerBasis((unit(1), unit(3))))

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


def test_generator_from_block_refuses_a_block_that_is_not_3x3():
    for block in ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1], [0, 0, 1]]):
        with pytest.raises(ValueError, match="block must be 3x3"):
            generator_from_block(block)


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
        r1 = generator_for_metabolizer(m, rebased(rng, v))
        r2 = generator_for_metabolizer(m, rebased(rng, v))
        assert r1 == r2 == base  # the signed value too
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
    big = 10**40
    pairs = [(rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(400)]
    pairs += [(0, e) for e in range(-5, 6)]  # y = 0, x = +-1
    pairs += [(rng.randint(-big, big), rng.randint(-big, big)) for _ in range(100)]
    huge = 10**1000
    pairs += [(rng.randint(-huge, huge), rng.randint(-huge, huge)) for _ in range(4)]
    for d, e in pairs:
        r = genus_one_normalize(d, e)
        m = [[d, e], [e - 1, 0]]
        zw, xy = [r.z, r.w], [r.x, r.y]
        # the one entry genus_one_normalize computes; the other three are proved
        assert r.new_matrix.entries[0][0] == sum(
            zw[i] * m[i][j] * zw[j] for i in range(2) for j in range(2))
        assert sum(zw[i] * m[i][j] * xy[j] for i in range(2) for j in range(2)) == 1 - e
        assert sum(xy[i] * m[i][j] * zw[j] for i in range(2) for j in range(2)) == -e
        assert sum(xy[i] * m[i][j] * xy[j] for i in range(2) for j in range(2)) == 0
        assert r.z * r.y - r.w * r.x == 1  # unimodular change of basis
        assert r.new_matrix.entries[0][1] == 1 - e
        assert r.new_matrix.entries[1] == (-e, 0)
        assert r.n > 0 and r.n * r.x == 2 * e - 1 and r.n * r.y == -d
        assert gcd(r.x, r.y) == 1


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
