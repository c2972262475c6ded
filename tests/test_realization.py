import io
import json
from random import Random

import pytest

from helpers import assemble_commutator_contribution, swapped
from trilink import cli
from trilink.errors import CrossCheckError
from trilink.magnus import mu123
from trilink.nilpotent import class_of
from trilink.realization import GenusThreeParams, ledger
from trilink.seifert import generator_from_block, validate
from trilink.words import FreeWord, commutator, generator

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


def test_ledger_n_must_be_an_integer():
    with pytest.raises(TypeError):
        ledger(PARAMS, 1.5)


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
    pairs = ledger(PARAMS, 3).pushoff_entries
    assert [name for name, _ in pairs] == [
        "band1_pair1_vs_3", "band1_pair2_vs_2", "band3_pair_vs_2", "band5_pair_vs_3",
        "core_first_vs_2", "core_first_vs_3", "core_second_vs_2", "core_second_vs_3",
        "band1_pair2_vs_2_n", "core_first_vs_2_n", "core_first_vs_3_n",
        "core_second_vs_2_n", "core_second_vs_3_n",
    ]
    entries = dict(pairs)
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
    entries = dict(ledger(GenusThreeParams(1, 5, 1, 0, 0, 0, 0, 0, 0), 3).pushoff_entries)
    assert entries["band1_pair2_vs_2_n"] == 15
    # second core curve against the third component at n = 2
    entries = dict(ledger(GenusThreeParams(1, 1, 4, 0, 0, 0, 0, 9, 0), 2).pushoff_entries)
    assert entries["core_second_vs_3_n"] == -(2 - 1) * 9 - 4 == -13


def test_pushoff_entries_random_instantiations():
    rng = Random(3)
    for _ in range(200):
        p = random_params(rng)
        n = rng.randint(-5, 5)
        stars = tuple(rng.randint(-9, 9) for _ in range(6))
        entries = dict(ledger(p, n, stars=stars).pushoff_entries)
        assert entries["band1_pair1_vs_3"] == -(p.c - 1)
        assert entries["core_second_vs_2_n"] == -(n - 1) * p.b - p.z2
        assert len(entries) == 13


def test_entries_independent_of_stars():
    rng = Random(4)
    for _ in range(50):
        p = random_params(rng)
        n = rng.randint(-4, 4)
        plain = ledger(p, n)
        starred = ledger(p, n, stars=tuple(rng.randint(-99, 99) for _ in range(6)))
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


X1, X2 = generator(3, 1), generator(3, 2)


def ledger_word(p: GenusThreeParams, n: int) -> FreeWord:
    """The ledger's commutator pairs as one rank-3 word.

    Each pair [x1^e12 x2^e13, x1^f12 x2^f13] of
    helpers.assemble_commutator_contribution is raised to its pass count,
    with the exponents read off the ledger's own pushoff entries.
    """
    (pair1, _, band3, band5, _, _, _, _, pair2_n, first2, first3, second2,
     second3) = (value for _, value in ledger(p, n).pushoff_entries)
    pairs = [  # ((e12, e13), (f12, f13), passes)
        ((1, 0), (0, pair1), n * (p.a - 1)),
        ((0, 1), (pair2_n, 0), p.a - 1),
        ((0, 1), (band3, 0), n * p.x2),
        ((1, 0), (0, band5), n * p.y2),
        ((first2, first3), (second2, second3), 1),
    ]
    word = FreeWord(3, ())
    for (e12, e13), (f12, f13), passes in pairs:
        word = word * commutator(X1**e12 * X2**e13, X1**f12 * X2**f13) ** passes
    return word


def test_ledger_total_through_magnus():
    # the paper's link through the Magnus route: mu-bar of the product of
    # the ledger's commutator pairs is the ledger's total
    rng = Random(7)
    for _ in range(200):
        p = random_params(rng, bound=4)
        n = rng.randint(-3, 3)
        word = ledger_word(p, n)
        assert mu123(word) == class_of(word).n1 == ledger(p, n).total


def test_a_matrix_layout_slip_fails_its_entry(monkeypatch):
    # x1 and y1 trade places in the first row and column: still a matrix
    # validate accepts, but band3's linking number now reads y1
    original = GenusThreeParams.seifert_matrix

    def slipped(self, stars=None):
        rows = [list(r) for r in original(self, stars).entries]
        rows[0][3], rows[0][5] = rows[0][5], rows[0][3]
        rows[3][0], rows[5][0] = rows[5][0], rows[3][0]
        return validate(rows, "interleaved")

    monkeypatch.setattr(GenusThreeParams, "seifert_matrix", slipped)
    with pytest.raises(CrossCheckError,
                       match=r"^entry band3_pair_vs_2: matrix gives -7, closed form -5$"):
        ledger(PARAMS, 2)


def test_a_block_slip_fails_the_total(monkeypatch, capsys):
    # x1 and y1 trade places in the block: the linking numbers still total
    # 316, the generator now reads 154
    monkeypatch.setattr(GenusThreeParams, "block", lambda self: [
        [self.a, self.y1, self.x1],
        [self.x2, self.b, self.z1],
        [self.y2, self.z2, self.c],
    ])
    with pytest.raises(CrossCheckError, match=r"^ledger total 316 != n \* generator 308$"):
        ledger(PARAMS, 2)
    params = {name: getattr(PARAMS, name) for name in GenusThreeParams.__slots__}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"params": params, "n": 2})))
    assert cli.main(["ledger"]) == 4
    assert '"error": "internal-check"' in capsys.readouterr().out


def test_parametrized_matrix_shape():
    m = PARAMS.seifert_matrix()
    assert m.ordering == "interleaved"
    assert m.entries[0][1] == PARAMS.a
    assert m.entries[1][0] == PARAMS.a - 1
    assert m.entries[5][4] == PARAMS.c - 1
    with pytest.raises(ValueError):
        PARAMS.seifert_matrix(stars=(1, 2, 3))  # needs all six star values
