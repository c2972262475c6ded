from random import Random

import pytest

from helpers import assemble_commutator_contribution, swapped
from trilink.realization import GenusThreeParams, ledger, pushoff_ledger_entries
from trilink.seifert import generator_from_block

PARAMS = GenusThreeParams(2, 3, 4, 5, 6, 7, 8, 9, 10)
UNKNOT_PARAMS = GenusThreeParams(1, 1, 1, 0, 0, 0, 0, 0, 0)


def random_params(rng, bound=9):
    return GenusThreeParams(*(rng.randint(-bound, bound) for _ in range(9)))


def test_ledger_unknot():
    led = ledger(UNKNOT_PARAMS, 1)
    assert (led.band1_term, led.band3_term, led.band5_term, led.residual_term) == \
        (0, 0, 0, -1)
    assert led.total == -1


def test_ledger_zero_passes():
    led = ledger(PARAMS, 0)
    assert led.total == 0
    assert (led.band1_term, led.band3_term, led.band5_term, led.residual_term) == \
        (0, 0, 0, 0)


def test_ledger_two_passes():
    led = ledger(PARAMS, 2)
    assert led.total == 2 * ((1) * (2) * (3) - 24 + 30 + 56 + 90) == 316
    assert led.total == sum(
        (led.band1_term, led.band3_term, led.band5_term, led.residual_term)
    )


def test_ledger_matches_generator_random():
    rng = Random(1)
    for _ in range(400):
        p = random_params(rng)
        n = rng.randint(-10, 10)
        led = ledger(p, n)
        assert led.total == n * generator_from_block(p.block()).signed
        assert led.description.parallel_copies == n


def test_ledger_negative_passes():
    rng = Random(2)
    for _ in range(100):
        p = random_params(rng)
        n = rng.randint(1, 10)
        assert ledger(p, -n).total == -ledger(p, n).total


def test_band_slide_mirror():
    # the mirror fixes the generator and every term but band3 and band5,
    # which trade places; at -n it negates the total
    rng = Random(6)
    for _ in range(600):
        p = random_params(rng, bound=20)
        n = rng.randint(-9, 9)
        led, mirror = ledger(p, n), ledger(swapped(p), n)
        assert swapped(p).generator() == p.generator()
        assert mirror.total == led.total
        assert (mirror.band3_term, mirror.band5_term) == (led.band5_term, led.band3_term)
        assert (mirror.band1_term, mirror.residual_term) == (led.band1_term, led.residual_term)
        assert ledger(swapped(p), -n).total == -led.total
        assert swapped(swapped(p)) == p


def test_pushoff_entries_closed_forms():
    entries = dict(pushoff_ledger_entries(PARAMS, 3))
    a, b, c = 2, 3, 4
    x1, x2, y1, y2, z1, z2 = 5, 6, 7, 8, 9, 10
    assert entries["band1_pair1_vs_3"] == -(c - 1) == -3
    assert entries["band1_pair2_vs_2"] == b
    assert entries["band3_pair_vs_2"] == -x1
    assert entries["band5_pair_vs_3"] == y1
    assert entries["core_first_vs_2"] == b
    assert entries["core_first_vs_3"] == z1
    assert entries["core_second_vs_2"] == -z2
    assert entries["core_second_vs_3"] == -c
    assert entries["band1_pair2_vs_2_n"] == 3 * b
    assert entries["core_first_vs_2_n"] == 3 * b
    assert entries["core_first_vs_3_n"] == 3 * z1
    assert entries["core_second_vs_2_n"] == -(3 - 1) * b - z2
    assert entries["core_second_vs_3_n"] == -(3 - 1) * z1 - c


def test_pushoff_entries_spot_values():
    # n-pass wrap curve against the second component scales with n
    entries = dict(pushoff_ledger_entries(GenusThreeParams(1, 5, 1, 0, 0, 0, 0, 0, 0), 3))
    assert entries["band1_pair2_vs_2_n"] == 15
    # second core curve against the third component at n = 2
    entries = dict(pushoff_ledger_entries(GenusThreeParams(1, 1, 4, 0, 0, 0, 0, 9, 0), 2))
    assert entries["core_second_vs_3_n"] == -(2 - 1) * 9 - 4 == -13


def test_pushoff_entries_random_instantiations():
    rng = Random(3)
    for _ in range(200):
        p = random_params(rng)
        n = rng.randint(-5, 5)
        stars = tuple(rng.randint(-9, 9) for _ in range(6))
        entries = dict(pushoff_ledger_entries(p, n, stars=stars))
        assert entries["band1_pair1_vs_3"] == -(p.c - 1)
        assert entries["core_second_vs_2_n"] == -(n - 1) * p.b - p.z2
        assert len(entries) == 13


def test_entries_independent_of_stars():
    rng = Random(4)
    for _ in range(50):
        p = random_params(rng)
        n = rng.randint(-4, 4)
        plain = pushoff_ledger_entries(p, n)
        starred = pushoff_ledger_entries(p, n, stars=tuple(rng.randint(-99, 99) for _ in range(6)))
        assert plain == starred


def test_assemble_examples():
    assert assemble_commutator_contribution(5, 9, -10, -4) == -20 + 90 == 70
    assert assemble_commutator_contribution(1, 0, 0, 1) == 1
    assert assemble_commutator_contribution(3, 7, 3, 7) == 0


def test_assemble_reproduces_ledger_terms():
    rng = Random(5)
    for _ in range(200):
        p = random_params(rng)
        n = rng.randint(-6, 6)
        led = ledger(p, n)
        # each band1 pass: (1,0) against (., -(c-1)) plus (0,1) against (b, .)
        per_pass = (
            assemble_commutator_contribution(1, 0, 0, -(p.c - 1))
            + assemble_commutator_contribution(0, 1, p.b, 0)
        )
        assert led.band1_term == n * (p.a - 1) * per_pass
        # each band3 pass: (0,1) against (-x1, .)
        assert led.band3_term == n * p.x2 * assemble_commutator_contribution(0, 1, -p.x1, 0)
        # each band5 pass: (1,0) against (., y1)
        assert led.band5_term == n * p.y2 * assemble_commutator_contribution(1, 0, 0, p.y1)
        # the core pair: (b, z1) against (-z2, -c)
        assert led.residual_term == n * assemble_commutator_contribution(
            p.b, p.z1, -p.z2, -p.c
        )


def test_parametrized_matrix_shape():
    m = PARAMS.seifert_matrix()
    assert m.ordering == "interleaved"
    assert m.entries[0][1] == PARAMS.a
    assert m.entries[1][0] == PARAMS.a - 1
    assert m.entries[5][4] == PARAMS.c - 1
    with pytest.raises(ValueError):
        PARAMS.seifert_matrix(stars=(1, 2, 3))  # needs all six star values
