from operator import neg
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import cofactor_det, minors_gcd, plain_product, random_unimodular, reference_row_hnf
from trilink.intlinalg import (
    _Slots,
    bilinear,
    det,
    identity,
    mat_mul,
    row_hnf,
    snf,
    transpose,
    xgcd,
)


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_xgcd():
    rng = Random(3)
    for _ in range(500):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_det_against_cofactor():
    rng = Random(7)
    for _ in range(300):
        n = rng.randint(0, 5)
        m = random_matrix(rng, n, n)
        assert det(m) == cofactor_det(m)


def test_mat_mul_against_triple_loop():
    rng = Random(17)
    for _ in range(300):
        rows, inner, cols = rng.randint(0, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = random_matrix(rng, rows, inner), random_matrix(rng, inner, cols)
        assert mat_mul(a, b) == plain_product(a, b)
    big = 10**40
    for _ in range(50):
        n = rng.randint(1, 6)
        row = random_matrix(rng, 1, n, big)
        col = random_matrix(rng, n, 1, big)
        assert mat_mul(row, col) == plain_product(row, col)
        assert mat_mul(col, row) == plain_product(col, row)
    for a, b in (([], [[1, 2]]), ([[], []], []), ([[1, 2]], [[], []]), ([], [])):
        assert mat_mul(a, b) == plain_product(a, b)


def test_mat_mul_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match=r"^cannot multiply 2x3 by 2x2$"):
        mat_mul([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4]])


def test_det_multiplicative():
    rng = Random(9)
    for _ in range(100):
        a = random_matrix(rng, 4, 4, 5)
        b = random_matrix(rng, 4, 4, 5)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def test_bilinear():
    m = [[1, 2], [3, 4]]
    assert bilinear([1, 0], m, [0, 1]) == 2
    assert bilinear([1, 1], m, [1, 1]) == 10
    with pytest.raises(ValueError, match="lengths 2/2, got 1/2"):
        bilinear([1], m, [1, 1])
    with pytest.raises(ValueError, match="lengths 2/2, got 2/3"):
        bilinear([1, 1], m, [1, 1, 1])
    with pytest.raises(ValueError, match="lengths 0/0, got 1/0"):
        bilinear([1], [], [])


def test_bilinear_against_triple_loop():
    rng = Random(19)
    for bound in (9, 10**40):
        for _ in range(200):
            rows, cols = rng.randint(0, 5), rng.randint(1, 5)
            u, v = random_matrix(rng, 1, rows, bound)[0], random_matrix(rng, 1, cols, bound)[0]
            m = random_matrix(rng, rows, cols, bound)
            want = sum(u[i] * m[i][j] * v[j] for i in range(rows) for j in range(cols))
            assert bilinear(u, m, v) == want


def test_row_hnf_properties():
    rng = Random(11)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, 6)
        h = row_hnf(m)
        eye = identity(rows)
        aug = row_hnf([m[i] + eye[i] for i in range(rows)])
        assert [row[:cols] for row in aug] == h
        u = [row[cols:] for row in aug]
        assert mat_mul(u, m) == h
        assert abs(det(u)) == 1
        # echelon shape with positive pivots and reduced columns above
        last = -1
        for r_i, row in enumerate(h):
            piv = next((j for j, x in enumerate(row) if x), None)
            if piv is None:
                continue
            assert piv > last
            last = piv
            assert row[piv] > 0
            for r_j in range(r_i):
                assert 0 <= h[r_j][piv] < row[piv]


def test_row_hnf_canonical_under_unimodular():
    rng = Random(13)
    for _ in range(150):
        m = random_matrix(rng, 3, 4, 5)
        u = random_unimodular(rng, 3)
        h1 = row_hnf(m)
        h2 = row_hnf(mat_mul(u, m))
        assert h1 == h2


@st.composite
def hnf_inputs(draw):
    """Matrices of 0-8 rows and 0-10 columns, entries in +-3 or in +-10**40.

    Some rows and columns are zeroed.  Half the time the first column
    opens with a coprime pair a, a + 1 (a >= 2, signs drawn), so the
    second row takes the xgcd branch.  Or the [V | I] of the completion:
    2g x g columns V beside the 2g x 2g identity, g = 1..3.
    """
    big = draw(st.booleans())
    top = 10**40 if big else 3
    entry = st.integers(-top, top)
    if draw(st.booleans()):
        n = 2 * draw(st.integers(1, 3))
        v = draw(st.lists(st.lists(entry, min_size=n // 2, max_size=n // 2),
                          min_size=n, max_size=n))
        return [row + unit for row, unit in zip(v, identity(n))]
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 10))
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if rows and cols:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
            m[i] = [0] * cols
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
            for row in m:
                row[j] = 0
        if rows > 1 and draw(st.booleans()):
            a = draw(st.integers(2, top))
            sign = st.sampled_from((1, -1))
            m[0][0], m[1][0] = a * draw(sign), (a + 1) * draw(sign)
    return m


@settings(max_examples=400, deadline=None)
@given(hnf_inputs())
@example([])
@example([[], []])
@example([[0, 0], [0, 0]])
@example([[-2, 1], [0, -3]])  # negative pivots
@example([[2, 1], [3, 0]])  # the xgcd branch
@example([[0, 4, 1], [0, -6, 5], [0, 9, 2]])
def test_row_hnf_matches_the_reference_loop(m):
    assert row_hnf(m) == reference_row_hnf(m)


def test_snf_properties():
    assert snf([[0], [2]]) == [2]  # a doubled column: not primitive
    assert snf([[2, 0], [0, 3]]) == [1, 6]
    assert snf([[0, 0], [0, 3]]) == [3, 0]
    assert snf([[1, 2], [2, 4], [3, 6]]) == [1, 0]  # dependent columns
    rng = Random(19)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, 7)
        diag = snf(m)
        assert len(diag) == min(rows, cols)
        u, v = random_unimodular(rng, rows), random_unimodular(rng, cols)
        assert snf(mat_mul(u, mat_mul(m, v))) == diag
        assert snf(transpose(m)) == diag
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_snf_matches_minor_gcds():
    # d_1 * ... * d_k = gcd of all k x k minors
    rng = Random(23)
    for _ in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, 6)
        factors = snf(m)
        prod = 1
        for k, f in enumerate(factors, start=1):
            prod *= f
            assert prod == minors_gcd(m, k)


def test_unimodular_detection():
    rng = Random(31)
    for _ in range(50):
        assert abs(det(random_unimodular(rng, 4))) == 1
    assert det([[2, 0], [0, 1]]) == 2
    assert transpose([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]
    assert transpose([]) == []
    assert identity(2) == [[1, 0], [0, 1]]


def between(lo, hi):
    """Integers in [lo, hi], with 0 and both ends drawn often; lo <= 0 <= hi."""
    return st.one_of(st.sampled_from((0, lo, hi)), st.integers(lo, hi))


@settings(deadline=None)
@given(data=st.data(), limit=st.integers(0, 2**40), k=st.integers(0, 300))
def test_slots_pack_zeros_and_read(data, limit, k):
    # every v_j and v_j + shift within limit, some v_j = -shift
    shift = data.draw(between(-limit, limit))
    lo, hi = max(-limit, -limit - shift), min(limit, limit - shift)
    value = st.one_of(st.just(-shift), between(lo, hi))
    values = data.draw(st.lists(value, min_size=k, max_size=k))
    slots = _Slots(k, limit)
    packed = slots.pack(values)
    assert packed == sum(v << (slots.width * j) for j, v in enumerate(values))
    assert slots.read(packed) == values
    assert slots.zeros(packed) == sum(1 << j for j, v in enumerate(values) if v == 0)
    assert slots.zeros(packed, shift) == sum(1 << j for j, v in enumerate(values) if v == -shift)


@settings(deadline=None)
@given(data=st.data(), limit=st.integers(0, 2**40), k=st.integers(0, 40))
def test_slots_read_back_integer_combinations(data, limit, k):
    # sum of a_i * v_i with sum |a_i| * max |v_i| <= limit: every slot exact
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    part = limit // max(1, sum(map(abs, coeffs)))
    vectors = [data.draw(st.lists(between(-part, part), min_size=k, max_size=k))
               for _ in coeffs]
    slots = _Slots(k, limit)
    packed = sum(a * slots.pack(v) for a, v in zip(coeffs, vectors))
    combo = [sum(a * v[j] for a, v in zip(coeffs, vectors)) for j in range(k)]
    assert slots.read(packed) == combo
    assert slots.zeros(packed) == sum(1 << j for j, x in enumerate(combo) if x == 0)


@pytest.mark.parametrize("s", range(1, 6))
def test_slots_at_limits_where_the_width_steps(s):
    # bit_length(limit) is 8s - 1 for the first two limits and 8s for the
    # last two: the width steps from 8s to 8s + 8 bits between them
    top = 2 ** (8 * s - 1)
    for limit, width in ((top // 2, 8 * s), (top - 1, 8 * s),
                         (top, 8 * s + 8), (2 * top - 1, 8 * s + 8)):
        slots = _Slots(3, limit)
        assert slots.width == width
        for values in ([limit, -limit, 0], [-limit, 0, limit], [limit, limit, -limit]):
            packed = slots.pack(values)
            assert slots.read(packed) == values
            assert slots.zeros(packed) == sum(1 << j for j, v in enumerate(values) if v == 0)
        for c in (limit, -limit):
            assert slots.zeros(slots.pack([c, 0, c]), -c) == 0b101


def test_slots_of_no_values():
    for limit in (0, 1, 2**64):
        slots = _Slots(0, limit)
        assert slots.pack([]) == 0
        assert slots.zeros(0) == slots.zeros(0, limit) == slots.zeros(0, -limit) == 0
        assert slots.read(0) == []


def pack_limits():
    """Limits at the 8s-bit width edges (bit length 8s - 1 or 8s), small
    ones and 4,300-digit ones."""
    edge = st.builds(lambda s, d: 2 ** (8 * s - 1) + d, st.integers(1, 8), st.integers(-2, 1))
    return st.one_of(edge, st.integers(0, 2**40), st.integers(10**4299, 10**4300 - 1))


@settings(deadline=None)
@given(data=st.data(), limit=pack_limits(), k=st.integers(0, 40))
def test_slots_pack_any_iterable_at_wide_and_edge_limits(data, limit, k):
    # the bulk builders pack map iterators; a few distinct values keep the
    # drawn data small at 4,300 digits, each sign of the limit drawn often
    pool = data.draw(st.lists(between(-limit, limit), min_size=1, max_size=4))
    values = data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    slots = _Slots(k, limit)
    packed = slots.pack(iter(values))
    assert packed == sum(v << (slots.width * j) for j, v in enumerate(values))
    assert slots.pack(map(neg, values)) == -packed
    assert slots.read(packed) == values
