from random import Random

import pytest

from helpers import cofactor_det, minors_gcd, random_unimodular
from trilink.intlinalg import (
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
    with pytest.raises(ValueError):
        bilinear([1], m, [1, 1])


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


def test_invariant_factors_match_minor_gcds():
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
    assert identity(2) == [[1, 0], [0, 1]]
