from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_commutator_subgroup_word, random_word, series_dict, spread_word
from trilink import magnus, nilpotent
from trilink.errors import PreconditionError
from trilink.magnus import MagnusSeries, _degree_two, lcs_depth, mu123, one, phi, series_mul
from trilink.words import (
    FreeWord,
    commutator,
    generator,
    parse_word,
    word_inverse,
    word_power,
    word_product,
)

X1, X2, X3 = (generator(3, i) for i in (1, 2, 3))


def test_phi_generator():
    s = phi(X1, 3)
    assert s.terms == {(): 1, (1,): 1}
    assert s.to_text() == "1 + 1*a1"


def test_phi_inverse_letter():
    s = phi(word_inverse(X1), 3)
    assert s.terms == {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}


def test_phi_commutator_full_expansion():
    # frozen from the independent dict-convolution oracle
    w = commutator(X1, X2)
    expected = {
        (): 1,
        (1, 2): 1,
        (2, 1): -1,
        (1, 2, 1): -1,
        (1, 2, 2): -1,
        (2, 1, 1): 1,
        (2, 1, 2): 1,
    }
    assert phi(w, 3).terms == expected
    assert series_dict(w, 3) == expected


def test_series_mul_distributes():
    s1 = MagnusSeries(3, 3, {(): 1, (1,): 1})
    s2 = MagnusSeries(3, 3, {(): 1, (2,): 1})
    assert series_mul(s1, s2).terms == {(): 1, (1,): 1, (2,): 1, (1, 2): 1}


def test_series_mul_unit_and_associativity_instance():
    s = phi(parse_word("x1 x2 x3^-1", 3), 3)
    assert series_mul(s, one(3, 3)) == s
    f = MagnusSeries(3, 3, {(): 1, (1,): 1})
    assert series_mul(series_mul(f, f), f) == series_mul(f, series_mul(f, f))


def test_series_mul_mismatch_errors():
    with pytest.raises(ValueError, match="rank"):
        series_mul(one(2, 3), one(3, 3))
    with pytest.raises(ValueError, match="cap"):
        series_mul(one(3, 2), one(3, 3))


def test_coefficient_bounds():
    s = phi(commutator(X1, X2), 3)
    assert s.coefficient((1, 2)) == 1
    assert s.coefficient((2, 1)) == -1
    assert s.coefficient(()) == 1
    assert s.coefficient((3, 3, 3)) == 0
    with pytest.raises(ValueError, match="exceeds cap"):
        s.coefficient((1, 2, 1, 2))


def test_phi_multiplicative_and_inverse_law_random():
    rng = Random(7)
    for _ in range(200):
        u = random_word(rng, 3, 8)
        v = random_word(rng, 3, 8)
        cap = rng.randint(1, 4)
        assert phi(word_product(u, v), cap) == series_mul(phi(u, cap), phi(v, cap))
        assert series_mul(phi(u, cap), phi(word_inverse(u), cap)) == one(3, cap)


def test_phi_against_independent_expansion():
    rng = Random(11)
    for _ in range(150):
        w = random_word(rng, 3, 10)
        cap = rng.randint(1, 4)
        assert phi(w, cap).terms == series_dict(w, cap)


def test_mu123_examples():
    assert mu123(commutator(X1, X2)) == 1
    assert mu123(FreeWord(3)) == 0
    assert mu123(word_power(commutator(X1, X2), 5)) == 5


def test_mu123_preconditions():
    with pytest.raises(ValueError, match="rank 3"):
        mu123(generator(2, 1))
    with pytest.raises(PreconditionError, match="generator 1"):
        mu123(parse_word("x1", 3))
    with pytest.raises(PreconditionError, match="generator 3"):
        mu123(parse_word("x1 x1^-1 x3", 3))


def test_mu123_cap_independent():
    w = word_product(commutator(X1, X2), commutator(X2, X3))
    for cap in (2, 3, 4, 5):
        assert phi(w, cap).coefficient((1, 2)) == mu123(w)


def test_mu123_conjugation_invariance():
    rng = Random(23)
    for _ in range(300):
        w = random_commutator_subgroup_word(rng)
        g = random_word(rng, 3, 5)
        conj = word_product(word_product(g, w), word_inverse(g))
        assert mu123(conj) == mu123(w)


def test_mu123_inversion_antisymmetry():
    rng = Random(29)
    for _ in range(300):
        w = random_commutator_subgroup_word(rng)
        assert mu123(word_inverse(w)) == -mu123(w)


def test_lcs_depth_examples():
    assert lcs_depth(X1, 3) == 1
    assert lcs_depth(commutator(X1, X2), 3) == 2
    assert lcs_depth(commutator(commutator(X1, X2), X3), 3) == 3
    assert lcs_depth(FreeWord(3), 5) == 5  # identity: as deep as we can see
    assert lcs_depth(FreeWord(3), 10**12) == 10**12  # at once, with no loop to kmax


def test_degree_two_against_independent_expansion():
    rng = Random(31)
    for rank, max_len in ((3, 12), (3, 40), (5, 20)):
        for _ in range(100):
            w = random_word(rng, rank, max_len)
            expected = series_dict(w, 2)
            sums, got = _degree_two(w)
            assert {i: e for i, e in sums.items() if e} == {
                m[0]: c for m, c in expected.items() if len(m) == 1}
            assert all(i != j for i, j in got)
            for i in range(1, rank + 1):
                for j in range(1, rank + 1):
                    if i != j:
                        assert got.get((i, j), 0) == expected.get((i, j), 0), (w, i, j)


def test_mu123_and_class_of_do_not_expand_the_series(monkeypatch):
    def no_phi(*args):
        raise AssertionError("the series was expanded")

    monkeypatch.setattr(magnus, "phi", no_phi)
    monkeypatch.setattr(magnus, "series_mul", no_phi)
    w = word_product(commutator(X1, X2), commutator(X2, X3))
    assert mu123(w) == 1
    assert nilpotent.class_of(w) == (1, 0, 1)


def _left_normed(rng, weight):
    """[..[[g1, g2], g3].., g_weight] of generators with g1 != g2: depth = weight."""
    g1, g2 = rng.sample((X1, X2, X3), 2)
    w = commutator(g1, g2)
    for _ in range(weight - 2):
        g = rng.choice((X1, X2, X3))
        w = commutator(w, g if rng.random() < 0.5 else word_inverse(g))
    return w


def test_lcs_depth_against_lowest_degree():
    rng = Random(37)
    for kmax in range(1, 7):
        words = [FreeWord(3), _left_normed(rng, kmax), _left_normed(rng, kmax + 1)]
        if kmax >= 2:
            words.append(_left_normed(rng, kmax - 1))
        for _ in range(15):
            u, v = random_word(rng, 3, 4), random_word(rng, 3, 4)
            words += [
                random_word(rng, 3, 8),
                random_commutator_subgroup_word(rng),
                commutator(commutator(u, v), random_word(rng, 3, 3)),
            ]
        for w in words:
            degrees = [len(m) for m in series_dict(w, kmax) if m]
            assert lcs_depth(w, kmax) == (min(degrees) if degrees else kmax), (w, kmax)


def test_lcs_depth_reads_degrees_one_and_two_without_the_series(monkeypatch):
    rng = Random(41)
    cases = [(spread_word(200), 2), (X1, 1), (commutator(X1, X2), 2)]  # a_i a_j = -1, i > j
    while len(cases) < 60:
        w = random_commutator_subgroup_word(rng) if len(cases) % 2 else random_word(rng, 3, 8)
        degrees = [len(m) for m in series_dict(w, 2) if m]
        if degrees:
            cases.append((w, min(degrees)))

    def no_phi(*args):
        raise AssertionError("the series was expanded")

    monkeypatch.setattr(magnus, "phi", no_phi)
    for w, depth in cases:
        for kmax in (1, 2, 3, 8):
            assert lcs_depth(w, kmax) == min(depth, kmax), (w, kmax)


def _conjugated(core, n):
    """core conjugated by x4 ... x(n+3): the same depth, n + 3 distinct generators."""
    c = FreeWord(n + 3, tuple((i, 1) for i in range(4, n + 4)))
    return c * FreeWord(n + 3, core.letters) * ~c


def test_lcs_depth_refuses_degrees_over_the_term_limit():
    # r**d against MAX_DEPTH_TERMS = 2**16 for r distinct generators at degree d
    assert magnus.MAX_DEPTH_TERMS == 2**16
    assert lcs_depth(spread_word(256), 3) == 2
    assert lcs_depth(spread_word(257), 2) == 2  # degree 2 is read only below kmax
    for n in (257, 500, 1000, 2000, 4000):
        with pytest.raises(ValueError, match="MAX_DEPTH_TERMS"):
            lcs_depth(spread_word(n), 3)
    core = commutator(commutator(X1, X2), X3)
    assert lcs_depth(_conjugated(core, 37), 4) == 3  # 40**3 terms at most
    for n in (38, 80):
        with pytest.raises(ValueError, match=r"degree 3 .* \d+\*\*3"):
            lcs_depth(_conjugated(core, n), 4)
    assert lcs_depth(_conjugated(core, 80), 3) == 3  # degree 2 only: 83**2 pairs
    with pytest.raises(ValueError, match="MAX_DEPTH_TERMS"):  # whatever kmax is
        lcs_depth(_conjugated(core, 38), 10**12)


def test_lcs_depth_caps_at_kmax():
    deep = commutator(commutator(X1, X2), X3)
    assert lcs_depth(deep, 2) == 2
    assert lcs_depth(deep, 1) == 1


@settings(max_examples=60)
@given(st.integers(min_value=-6, max_value=6))
def test_mu123_scales_on_commutator_powers(n):
    assert mu123(word_power(commutator(X1, X2), n)) == n


def test_degree_cap_validation():
    with pytest.raises(ValueError, match="positive"):
        phi(X1, 0)
    with pytest.raises(ValueError, match="positive"):
        lcs_depth(X1, 0)


def test_series_invariants_enforced():
    with pytest.raises(ValueError, match="longer than degree cap"):
        MagnusSeries(3, 2, {(1, 2, 3): 1})
    with pytest.raises(ValueError, match="outside"):
        MagnusSeries(2, 2, {(3,): 1})
    assert MagnusSeries(3, 2, {(1,): 0}).terms == {}  # zeros dropped


def test_to_text_canonical():
    assert one(3, 2).to_text() == "1"
    assert MagnusSeries(3, 2, {}).to_text() == "0"
    s = MagnusSeries(3, 2, {(): 1, (1, 2): 2, (2, 1): -2})
    assert s.to_text() == "1 + 2*a1 a2 - 2*a2 a1"
    # lexicographic: a1 a2 sorts before a2, prefix before extension
    t = MagnusSeries(3, 2, {(2,): 1, (1, 2): 1, (1,): -1})
    assert t.to_text() == "-1*a1 + 1*a1 a2 + 1*a2"
