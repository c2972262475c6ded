from random import Random

import pytest

from helpers import cofactor_det
from trilink.infection import (
    BandSumCounts,
    IntersectionProfile,
    band_sum_expansion,
    infected_mu,
)

IDENTITY = IntersectionProfile(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def random_profile(rng, lo=-4, hi=4):
    return IntersectionProfile(
        tuple(tuple(rng.randint(lo, hi) for _ in range(3)) for _ in range(3))
    )


def random_counts(rng, hi=4):
    mat = lambda: tuple(tuple(rng.randint(0, hi) for _ in range(3)) for _ in range(3))
    return BandSumCounts(mat(), mat())


def test_triple_det_examples():
    # the infection term mu_j * det(profile) on two profiles with known determinant
    assert infected_mu(1, IDENTITY, 0) == 1
    assert infected_mu(1, IntersectionProfile(((0, 0, 0), (1, 2, 3), (4, 5, 6))), 0) == 0


def test_infection_term_equals_determinant():
    rng = Random(1)
    for _ in range(300):
        p = random_profile(rng)
        assert infected_mu(1, p, 0) == cofactor_det([list(r) for r in p.rows])


def test_infection_term_antisymmetry():
    rng = Random(2)
    for _ in range(200):
        p = random_profile(rng)
        rows = [list(r) for r in p.rows]
        swapped_rows = IntersectionProfile((tuple(rows[1]), tuple(rows[0]), tuple(rows[2])))
        assert infected_mu(1, swapped_rows, 0) == -infected_mu(1, p, 0)
        swapped_cols = IntersectionProfile(
            tuple((r[1], r[0], r[2]) for r in rows)
        )
        assert infected_mu(1, swapped_cols, 0) == -infected_mu(1, p, 0)


def test_infected_mu_examples():
    assert infected_mu(1, IDENTITY, 0) == 1
    zero = IntersectionProfile(((0,) * 3,) * 3)
    assert infected_mu(17, zero, -4) == -4
    diag = IntersectionProfile(((1, 0, 0), (0, 2, 0), (0, 0, 3)))
    assert infected_mu(2, diag, -5) == 7
    singular = IntersectionProfile(((0, 0, 0), (1, 2, 3), (4, 5, 6)))
    assert infected_mu(5, singular, 3) == 3


def test_band_sum_examples():
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    zero = ((0, 0, 0),) * 3
    assert band_sum_expansion(4, BandSumCounts(ident, zero), 3) == 7
    same = BandSumCounts(ident, ident)
    assert band_sum_expansion(9, same, -2) == -2


def test_band_sum_counts_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        BandSumCounts((((-1, 0, 0), (0, 0, 0), (0, 0, 0))), ((0,) * 3,) * 3)
    with pytest.raises(ValueError, match="3x3"):
        IntersectionProfile(((1, 2), (3, 4)))
    with pytest.raises(TypeError):
        IntersectionProfile(((1.0, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(TypeError):
        BandSumCounts(((0, 0, 0),) * 3, ((0, 0, 2.5), (0, 0, 0), (0, 0, 0)))


def test_oracle_equivalence():
    rng = Random(3)
    for _ in range(2000):
        counts = random_counts(rng)
        mu_j, mu_l = rng.randint(-9, 9), rng.randint(-9, 9)
        assert band_sum_expansion(mu_j, counts, mu_l) == \
            infected_mu(mu_j, counts.net_profile(), mu_l)


def test_difference_invariance():
    rng = Random(4)
    for _ in range(1000):
        p = random_profile(rng)
        mu_j = rng.randint(-9, 9)
        m1, m2 = rng.randint(-99, 99), rng.randint(-99, 99)
        assert infected_mu(mu_j, p, m1) - infected_mu(mu_j, p, m2) == m1 - m2


def test_column_swap_negates_infection_term():
    # swapping two link components negates mu-bar; the infection term follows
    rng = Random(5)
    for _ in range(200):
        p = random_profile(rng)
        mu_j, mu_l = rng.randint(-5, 5), rng.randint(-5, 5)
        swapped = IntersectionProfile(tuple((r[0], r[2], r[1]) for r in p.rows))
        shift = infected_mu(mu_j, p, mu_l) - mu_l
        shift_swapped = infected_mu(mu_j, swapped, mu_l) - mu_l
        assert shift_swapped == -shift
