import copy
import io
import itertools
import json
import pickle
from itertools import permutations, product
from math import comb
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    counted_sums,
    list_levels,
    packed_degree_two,
    random_commutator_subgroup_word,
    random_word,
    rows_degree_two,
    series_dict,
    series_product,
    spread_word,
)
from trilink import cli, intlinalg, magnus, nilpotent
from trilink.errors import PreconditionError
from trilink.magnus import MagnusSeries, _degree_two, lcs_depth, mu123, phi
from trilink.words import FreeWord, abelianization, commutator, generator, parse_word

X1, X2, X3 = (generator(3, i) for i in (1, 2, 3))


def test_phi_generator():
    s = phi(X1, 3)
    assert s.terms == {(): 1, (1,): 1}
    assert s.to_text() == "1 + 1*a1"


def test_phi_inverse_letter():
    s = phi(~X1, 3)
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


def test_coefficient_bounds():
    s = phi(commutator(X1, X2), 3)
    assert s.coefficient((1, 2)) == 1
    assert s.coefficient((2, 1)) == -1
    assert s.coefficient(()) == 1
    assert s.coefficient((3, 3, 3)) == 0
    with pytest.raises(ValueError, match="longer than degree cap"):
        s.coefficient((1, 2, 1, 2))


def test_phi_multiplicative_and_inverse_law_random():
    rng = Random(7)
    for _ in range(200):
        u = random_word(rng, 3, 8)
        v = random_word(rng, 3, 8)
        cap = rng.randint(1, 4)
        product = series_product(phi(u, cap).terms, phi(v, cap).terms, cap)
        assert phi(u * v, cap).terms == product
        assert series_product(phi(u, cap).terms, phi(~u, cap).terms, cap) == {(): 1}


def _inverse_heavy_word(rng, rank, max_len):
    """A random word whose letters are inverses about four times in five."""
    n = rng.randint(1, max_len)
    letters = tuple((rng.randint(1, rank), 1 if rng.random() < 0.2 else -1) for _ in range(n))
    return FreeWord(rank, letters)


def test_phi_against_independent_expansion():
    # every rank 1-6 and cap 1-8 whose rank**cap levels fit MAX_DEPTH_TERMS
    rng = Random(11)
    for rank in range(1, 7):
        for cap in range(1, 9):
            if rank**cap > magnus.MAX_DEPTH_TERMS:
                continue
            words = [FreeWord(rank)]
            words += [generator(rank, rng.randint(1, rank)) ** n for n in (1, -1, 3, -4)]
            for _ in range(4):
                words.append(random_word(rng, rank, 9))
                words.append(_inverse_heavy_word(rng, rank, 9))
            for w in words:
                assert phi(w, cap).terms == series_dict(w, cap), (w, cap)


def _out_of_order_or_vanishing(rng, rank):
    """u g^e v g^-e w and g, with u, v, w random over the generators other than g, met
    in a shuffled order; v is empty half the time, and then g leaves the reduced word."""
    gens = rng.sample(range(1, rank + 1), rank)
    g, rest = gens[0], gens[1:]

    def part(n):
        return [(rng.choice(rest), rng.choice((1, -1))) for _ in range(rng.randint(0, n))]

    e = rng.choice((1, -1))
    v = part(4) if rng.random() < 0.5 else []
    return FreeWord(rank, tuple(part(5) + [(g, e)] * 2 + v + [(g, -e)] * 2 + part(5))), g


def test_phi_on_codes_met_out_of_order_and_with_vanished_generators():
    rng = Random(59)
    cases = [(parse_word("x3 x1 x3^-1 x1^-1", 3), 3),
             (parse_word("x2 x3 x3^-1 x1 x2^-1 x1^-1", 3), 3),
             (FreeWord(5, ((5, 1), (2, -1), (4, 1), (4, -1), (3, 1), (5, -1))), 4)]
    cases += [_out_of_order_or_vanishing(rng, rng.randint(2, 5)) for _ in range(150)]
    vanished = 0
    for w, g in cases:
        vanished += g not in w._gens
        for cap in (1, 2, 3, 4):
            assert phi(w, cap).terms == series_dict(w, cap), (w, cap)
    assert vanished > 30


def _unpacked(codes, r, cap):
    """magnus._packed_levels read slot by slot, in list_levels' order of monomials."""
    slots, levels, top = magnus._packed_levels(codes, r, cap)
    values = [layout.read(level) for layout, level in zip(slots, levels)]
    values.append([c for block in top for c in slots[-1].read(block)])
    out = []
    for d, level in enumerate(values):
        by_monomial = dict(zip((m[::-1] for m in product(range(r), repeat=d)), level))
        out.append([by_monomial[m] for m in product(range(r), repeat=d)])
    return out


@st.composite
def _coded_words(draw):
    """Codes 0..2r-1 for r = 1-6, as bytes or a list, and a cap 1-8 whose r**cap fits
    MAX_DEPTH_TERMS."""
    r = draw(st.integers(1, 6))
    cap = draw(st.integers(1, max(c for c in range(1, 9) if r**c <= magnus.MAX_DEPTH_TERMS)))
    codes = draw(st.lists(st.integers(0, 2 * r - 1), max_size=12 if r**cap > 4096 else 40))
    return draw(st.sampled_from((bytes, list)))(codes), r, cap


@settings(max_examples=150, deadline=None)
@given(_coded_words())
def test_packed_levels_against_list_levels(case):
    codes, r, cap = case
    assert _unpacked(codes, r, cap) == list_levels(codes, r, cap)


def _width_edges():
    """(cap, n, slot width) on both sides of each byte step of the width, s = 1, 2, 3:
    the last n with bit_length(C(n + cap, cap)) < 8s, the first with 8s or more, and
    the next, whose x^-n has a degree-cap coefficient C(n + cap - 1, cap) of 8s bits."""
    edges = []
    for cap in range(1, 9):
        for s in (1, 2, 3):
            n = next((n for n in range(1, 40001) if comb(n + cap, cap).bit_length() >= 8 * s), None)
            if n is not None:
                edges += [(cap, n - 1, 8 * s), (cap, n, 8 * s + 8), (cap, n + 1, 8 * s + 8)]
    return edges


@pytest.mark.parametrize("cap, n, width", _width_edges())
def test_packed_levels_hold_the_coefficient_bound_at_slot_width_edges(cap, n, width):
    # x^n has a^d coefficient C(n, d); x^-n has (-1)**d C(n + d - 1, d), the bound itself
    for sign in (1, -1):
        codes = bytes([sign == -1]) * n
        slots, _, _ = magnus._packed_levels(codes, 1, cap)
        assert slots[0].width == width
        levels = _unpacked(codes, 1, cap)
        assert levels == list_levels(codes, 1, cap)
        expected = [comb(n, d) if sign == 1 else (-1) ** d * comb(n + d - 1, d)
                    for d in range(cap + 1)]
        assert [c for (c,) in levels] == expected
        w = generator(3, 2) ** (sign * n)
        assert phi(w, cap).terms == {(2,) * d: c for d, c in enumerate(expected) if c}


def test_mu123_examples():
    assert mu123(commutator(X1, X2)) == 1
    assert mu123(FreeWord(3)) == 0
    assert mu123(commutator(X1, X2) ** 5) == 5


def test_mu123_preconditions():
    with pytest.raises(ValueError, match="rank 3"):
        mu123(generator(2, 1))
    with pytest.raises(PreconditionError, match="generator 1"):
        mu123(parse_word("x1", 3))
    with pytest.raises(PreconditionError, match="generator 3"):
        mu123(parse_word("x1 x1^-1 x3", 3))


def test_mu123_cap_independent():
    w = commutator(X1, X2) * commutator(X2, X3)
    for cap in (2, 3, 4, 5):
        assert phi(w, cap).coefficient((1, 2)) == mu123(w)


def test_mu123_conjugation_invariance():
    rng = Random(23)
    for _ in range(300):
        w = random_commutator_subgroup_word(rng)
        g = random_word(rng, 3, 5)
        conj = g * w * ~g
        assert mu123(conj) == mu123(w)


def test_mu123_inversion_antisymmetry():
    rng = Random(29)
    for _ in range(300):
        w = random_commutator_subgroup_word(rng)
        assert mu123(~w) == -mu123(w)


def test_lcs_depth_examples():
    assert lcs_depth(X1, 3) == 1
    assert lcs_depth(commutator(X1, X2), 3) == 2
    assert lcs_depth(commutator(commutator(X1, X2), X3), 3) == 3
    assert lcs_depth(FreeWord(3), 5) == 5  # identity: as deep as we can see
    assert lcs_depth(FreeWord(3), 10**12) == 10**12  # at once, with no loop to kmax


def _levels_degree_two(w):
    """Exponent sums and nonzero a_i a_j (i != j) coefficients from the cap-2 _packed_levels,
    in rows_degree_two's shape."""
    gens = w._gens
    _, sums, pairs = _unpacked(w._codes, len(gens), 2)
    coeffs = {m: c for m, c in zip(product(gens, repeat=2), pairs) if c and m[0] != m[1]}
    return dict(zip(gens, sums)), coeffs


def _rank_three(read):
    """rows_degree_two's shape of a rank-3 word in _degree_two's: the sums of x1, x2, x3."""
    sums, coeffs = read
    return tuple(sums.get(i, 0) for i in (1, 2, 3)), coeffs


def test_degree_two_against_independent_expansion():
    rng = Random(31)
    for rank, max_len in ((3, 12), (3, 40), (5, 20)):
        for _ in range(100):
            w = random_word(rng, rank, max_len)
            expected = series_dict(w, 2)
            if rank == 3:
                sums, got = _degree_two(w)
                sums = dict(zip((1, 2, 3), sums))
            else:
                sums, got = _levels_degree_two(w)
            assert {i: e for i, e in sums.items() if e} == {
                m[0]: c for m, c in expected.items() if len(m) == 1}
            assert all(i != j for i, j in got)
            for i in range(1, rank + 1):
                for j in range(1, rank + 1):
                    if i != j:
                        assert got.get((i, j), 0) == expected.get((i, j), 0), (w, i, j)


def test_packed_degree_two_against_rows_route():
    rng = Random(43)
    words = [FreeWord(1), FreeWord(40), FreeWord(256, spread_word(256).letters * 127)]
    for rank, lengths in ((1, (1, 9, 500)), (2, (7, 300, 10**4)), (3, (5, 200, 10**4)),
                          (5, (50, 10**4)), (40, (100, 10**4))):
        for n in lengths:
            for _ in range(3):
                letters = tuple((rng.randint(1, rank), rng.choice((1, -1))) for _ in range(n))
                words.append(FreeWord(rank, letters))
    assert max(map(len, words)) == 65024
    for w in words:
        if w.rank == 3:
            assert _degree_two(w) == _rank_three(rows_degree_two(w))
        else:
            assert _levels_degree_two(w) == rows_degree_two(w), w.rank
    assert _degree_two(FreeWord(3)) == ((0, 0, 0), {})



@pytest.mark.parametrize("kmax", [3, 4])
def test_commutator_of_long_powers_against_the_oracles(kmax):
    # [x1^3000, x2^3000], 12,000 letters: every letter puts a unit into level 1,
    # and lcs_depth reads the caps 2..kmax-1 whose levels are compared here
    w = commutator(X1 ** 3000, X2 ** 3000)
    codes, r = w._codes, len(w._gens)
    for cap in range(2, kmax):
        levels = _unpacked(codes, r, cap)
        assert levels == list_levels(codes, r, cap)
        assert levels[2] == [0, 9 * 10**6, -9 * 10**6, 0]
    assert _levels_degree_two(w) == rows_degree_two(w) == ({1: 0, 2: 0},
                                                             {(1, 2): 9 * 10**6,
                                                              (2, 1): -9 * 10**6})
    assert lcs_depth(w, kmax) == 2

# The words below have L = n, 2n and 4n letters.  The slot width of the
# per-letter oracle (helpers.packed_degree_two) steps from 8s to 8s + 8
# bits where bit_length(L**2) passes 8s - 1, and the pairs n = 11|12,
# 181|182, 2896|2897 (L = n), 5|6, 90|91, 1448|1449 (L = 2n) and 2|3,
# 45|46, 724|725 (L = 4n) sit on its two sides, s = 1, 2, 3.  _degree_two
# reads the same values as popcount sums, which have no slot width.
@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 8, 11, 12, 45, 46, 63, 64, 65, 90, 91, 181, 182,
                               255, 256, 724, 725, 1023, 1024, 1448, 1449, 2896, 2897, 4095,
                               4096, 5000])
def test_degree_two_holds_the_largest_slot_values(n):
    # x1^n x2^n x1^-n x2^-n: coefficient +-n**2, the largest off the diagonal
    x1n, x2n = X1 ** n, X2 ** n
    w = commutator(x1n, x2n)
    assert _degree_two(w) == ((0, 0, 0), {(1, 2): n * n, (2, 1): -n * n})
    assert _degree_two(w) == _rank_three(rows_degree_two(w)) == packed_degree_two(w)
    # x1^n x2^n: n**2 from 2n letters; x1^n: diagonal slot C(n, 2), dropped
    assert _degree_two(x1n * x2n) == ((n, n, 0), {(1, 2): n * n})
    assert _degree_two(X1 ** -n * X2 ** -n) == ((-n, -n, 0), {(1, 2): n * n})
    assert _degree_two(x1n) == ((n, 0, 0), {})


def _agreeing_degree_two(w):
    """_degree_two of a rank-3 word, checked against the per-letter loop, the list
    rows and phi(w, 2), at every pair and at each pair alone."""
    got = _degree_two(w)
    assert got == packed_degree_two(w) == _rank_three(rows_degree_two(w)), w
    s = phi(w, 2)
    assert got[0] == tuple(s.coefficient((g,)) for g in (1, 2, 3))
    assert got[1] == {m: s.coefficient(m) for m in permutations((1, 2, 3), 2) if s.coefficient(m)}
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert _degree_two(w, ((i, j),)) == (got[0], {m: c for m, c in got[1].items()
                                                       if set(m) == {i, j}})
    return got


def _exact_length(rng, n, letters):
    """A reduced rank-3 word of exactly n letters drawn from letters, no inverse pair adjacent."""
    out = []
    while len(out) < n:
        g, s = rng.choice(letters)
        if not out or out[-1] != (g, -s):
            out.append((g, s))
    w = FreeWord(3, tuple(out))
    assert len(w) == n
    return w


def _worst_case_words():
    """The three 200,000-letter words of tests/test_worst_case.py, parsed."""
    import test_worst_case

    for name, field in (("mu-200000-letters", "longitude3"),
                        ("mu-200000-letters-cancelling", "longitude3"),
                        ("class-200000-letters-cancelling", "word")):
        _, payload, _ = test_worst_case.CASES[name][0]()
        yield parse_word(payload[field], 3)


def test_degree_two_from_codes_against_the_oracles():
    rng = Random(53)
    u, v = random_word(rng, 3, 30), random_word(rng, 3, 30)
    words = [
        FreeWord(3),  # empty
        X2 ** 5, ~X3,  # one generator
        commutator(X1, X3) * X1 ** 2, commutator(X3 ** 2, X2),  # one generator missing
        parse_word("x3 x1 x3^-1 x1^-1", 3),  # x3 met before x1
        parse_word("x3 x2^-1 x1 x2 x3^-1 x1^-1", 3),
        # cancels in the constructor, and in parse_word
        FreeWord(3, ((2, 1), (2, -1), (1, 1), (3, 1), (3, -1), (2, 1))),
        parse_word("x2 x2^-1 x1 x3 x1^-1 x3^-1", 3),
        parse_word("x1 x2 x3 x3^-1 x2^-1 x1^-1 x2 x1", 3),  # cancels back to letter 0
        u * v, ~u, u ** 3, u ** -2, v * ~v * u,  # products, inverses and powers
        pickle.loads(pickle.dumps(u)), copy.deepcopy(v), copy.copy(u * v),
        commutator(X1 ** 3000, X2 ** 3000),
        *_worst_case_words(),
    ]
    # lengths where the count of position masks steps; the second alphabet
    # makes the whole word the view V+ of the pair (1, 2)
    for alphabet in (((1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1)),
                     ((1, 1), (2, 1), (2, -1))):
        for t in range(1, 12):
            words += [_exact_length(rng, n, alphabet) for n in (2**t - 1, 2**t, 2**t + 1)]
    for _ in range(300):
        words.append(random_word(rng, 3, rng.choice((6, 40, 400))))
        words.append(random_commutator_subgroup_word(rng, 3, 60))
    for w in words:
        _agreeing_degree_two(w)
    assert _agreeing_degree_two(parse_word("x3 x1 x3^-1 x1^-1", 3)) == (
        (0, 0, 0), {(1, 3): -1, (3, 1): 1})
    assert _agreeing_degree_two(commutator(X1 ** 3000, X2 ** 3000)) == (
        (0, 0, 0), {(1, 2): 9 * 10**6, (2, 1): -9 * 10**6})


def _sums_over_every_pair_choice(w):
    """The exponent sums _degree_two gives under every subset of _PAIRS, one per subset."""
    return {_degree_two(w, pairs)[0] for n in range(4)
            for pairs in itertools.combinations(magnus._PAIRS, n)}


@settings(deadline=None)
@given(data=st.data(), gens=st.sets(st.sampled_from((1, 2, 3))), n=st.integers(0, 600))
def test_degree_two_sums_against_the_count_route(data, gens, n):
    # words over any subset of x1, x2, x3, so that none, one, two or all three
    # generators are in no computed pair for some choice of pairs
    letters = st.tuples(st.sampled_from(sorted(gens)), st.sampled_from((1, -1))) if gens \
        else st.nothing()
    w = FreeWord(3, tuple(data.draw(st.lists(letters, max_size=n if gens else 0))))
    assert _sums_over_every_pair_choice(w) == {counted_sums(w)}


def test_degree_two_reads_the_last_uncovered_sum_off_the_length():
    # mu123 computes the pair (1, 2) only: x3 is read off the signed length
    # with no bytes.count pass; of three uncovered generators, the first two
    # are counted and the last is read off the length
    passes = []

    class Codes(bytes):
        def count(self, *args):
            passes.append(args)
            return super().count(*args)

    w = commutator(X1 ** 5 * X3 ** -2, X2 * X3 ** 4)
    spied = SimpleNamespace(_codes=Codes(w._codes), _gens=w._gens)  # all _degree_two reads
    assert _degree_two(spied, ((1, 2),)) == _degree_two(w, ((1, 2),)) and not passes
    assert _degree_two(spied, ())[0] == counted_sums(w) and len(passes) == 4


def test_equal_words_store_the_same_codes():
    # the codes number the generators by first appearance in the reduced word,
    # so d, met x3-first, stores what a, b and c store
    a = parse_word("x2 x2^-1 x1 x3", 3)
    b = FreeWord(3, ((1, 1), (3, 1)))
    c = generator(3, 3) * ~generator(3, 3) * generator(3, 1) * generator(3, 3)
    d = FreeWord(3, ((3, 1), (2, 1), (2, -1), (3, -1), (1, 1), (3, 1)))
    for w in (a, b, c, d):
        assert (w.rank, w._gens, w._codes) == (3, (1, 3), b"\x00\x02")
    for w in (b, c, d, pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert w == a and a == w and hash(w) == hash(a) and repr(w) == repr(a)
        assert w.letters == a.letters == ((1, 1), (3, 1))
        assert _degree_two(w) == _degree_two(a) == ((1, 0, 1), {(1, 3): 1})
    assert len({a, b, c, d}) == 1


def test_mu123_and_class_of_read_no_letter(monkeypatch, capsys):
    # nor do parse_word, lcs_depth, phi and the CLI: every Magnus question reads the word's codes
    long = commutator(X1 ** 3000, X2 ** 3000)
    wide = FreeWord(256, spread_word(256).letters * 127)  # codes past one byte
    empty = FreeWord(3)
    texts = (str(commutator(X1, X2) * commutator(X2, X3)),
             "x3 x1 x3^-1 x1^-1",  # x3 met before x1
             "x3 x1 x2",  # refused: nonzero exponent sums
             "x2 x3 x3^-1 x1 x2^-1 x1^-1")  # x3 cancels out entirely
    series = {(t, cap): series_dict(parse_word(t, 3), cap) for t in texts for cap in (1, 2, 3, 4)}
    shown = MagnusSeries(3, 3, series[texts[1], 3]).to_text()

    def no_letters(self):
        raise AssertionError("a letter tuple was read")

    monkeypatch.setattr(FreeWord, "letters", property(no_letters))
    w, out_of_order, refused, vanished = (parse_word(t, 3) for t in texts)
    with pytest.raises(AssertionError, match="letter tuple"):
        w.letters
    assert mu123(w) == 1
    assert nilpotent.class_of(w) == (1, 0, 1)
    assert (mu123(out_of_order), nilpotent.class_of(out_of_order)) == (0, (0, -1, 0))
    assert (mu123(long), nilpotent.class_of(long)) == (9 * 10**6, (9 * 10**6, 0, 0))
    for read in (mu123, nilpotent.class_of):
        with pytest.raises(PreconditionError, match="nonzero exponent sum for generator 1"):
            read(refused)
    assert [lcs_depth(v, 5) for v in (w, out_of_order, long, refused, vanished, wide)] == [
        2, 2, 2, 1, 2, 2]
    assert lcs_depth(empty, 5) == 5
    for (text, cap), terms in series.items():
        assert phi(parse_word(text, 3), cap).terms == terms, (cap, terms)

    def reply(argv, payload):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code = cli.main(argv)
        return code, json.loads(capsys.readouterr().out)

    assert reply(["mu"], {"longitude3": texts[1]}) == (0, {"mu123": 0})
    assert reply(["class"], {"word": texts[1]}) == (0, {"class": [0, -1, 0], "mu123": 0})
    assert reply(["mu", "--show-series"], {"longitude3": texts[1]}) == (
        0, {"mu123": 0, "series": shown, "degree_cap": 3})
    assert reply(["depth"], {"rank": 3, "kmax": 5, "word": texts[3]}) == (0, {"depth": 2})
    assert reply(["mu"], {"longitude3": texts[2]}) == (
        3, {"error": "precondition", "detail": "nonzero exponent sum for generator 1"})


def test_long_words_read_degree_two_as_the_series_does():
    rng = Random(47)
    for _ in range(4):
        w = FreeWord(3, tuple((rng.randint(1, 3), rng.choice((1, -1))) for _ in range(16000)))
        for i, e in abelianization(w).items():
            w = w * generator(3, i) ** -e
        assert len(w) >= 10**4 and not any(abelianization(w).values())
        s = phi(w, 2)
        assert mu123(w) == s.coefficient((1, 2))
        assert nilpotent.class_of(w) == tuple(s.coefficient(m) for m in ((1, 2), (1, 3), (2, 3)))


def test_mu123_and_class_of_do_not_expand_the_series(monkeypatch):
    def no_phi(*args):
        raise AssertionError("the series was expanded")

    monkeypatch.setattr(magnus, "phi", no_phi)
    monkeypatch.setattr(magnus, "_packed_levels", no_phi)
    monkeypatch.setattr(magnus, "abelianization", no_phi)  # the views give the sums
    w = commutator(X1, X2) * commutator(X2, X3)
    assert mu123(w) == 1
    assert nilpotent.class_of(w) == (1, 0, 1)


def _left_normed(rng, weight):
    """[..[[g1, g2], g3].., g_weight] of generators with g1 != g2: depth = weight."""
    g1, g2 = rng.sample((X1, X2, X3), 2)
    w = commutator(g1, g2)
    for _ in range(weight - 2):
        g = rng.choice((X1, X2, X3))
        w = commutator(w, g if rng.random() < 0.5 else ~g)
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


def test_lcs_depth_reads_degree_one_without_the_series(monkeypatch):
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
            with monkeypatch.context() as m:
                if kmax == 1:  # as deep as kmax, with nothing read
                    m.setattr(magnus, "abelianization", no_phi)
                if depth == 1 or kmax <= 2:  # no degree below kmax is left to read
                    m.setattr(magnus, "_packed_levels", no_phi)
                assert lcs_depth(w, kmax) == min(depth, kmax), (w, kmax)


def _conjugated(core, n):
    """core conjugated by x4 ... x(n+3): the same depth, n + 3 distinct generators."""
    c = FreeWord(n + 3, tuple((i, 1) for i in range(4, n + 4)))
    return c * FreeWord(n + 3, core.letters) * ~c


def test_lcs_depth_refuses_degrees_over_the_term_limit():
    # r**d against MAX_DEPTH_TERMS = 2**16 for r distinct generators at degree d
    assert magnus.MAX_DEPTH_TERMS == 2**16
    assert lcs_depth(spread_word(256), 3) == 2
    wide = FreeWord(256, spread_word(256).letters * 127)  # 65,024 letters
    assert len(wide) == 65024
    assert lcs_depth(wide, 3) == 2
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


def _repeat(w, k):
    """w**k for a cyclically reduced w, in one pass."""
    return FreeWord(w.rank, w.letters * k)


def _forbid(monkeypatch, *names):
    def no_work(*args):
        raise AssertionError("work started")

    for name in names:
        monkeypatch.setattr(magnus, name, no_work)


def test_lcs_depth_refuses_work_over_the_limit_before_building(monkeypatch):
    # slot updates letters * (1 + r + ... + r**(d-1)), summed over degrees 2..d
    assert magnus.MAX_DEPTH_WORK == 2**24
    core = commutator(commutator(X1, X2), X3)
    below = _conjugated(_repeat(core, 990), 37)  # 9,974 letters * (41 + 1641)
    above = _conjugated(_repeat(core, 991), 37)  # 9,984 letters
    assert 9974 * 1682 <= magnus.MAX_DEPTH_WORK < 9984 * 1682
    build = magnus._packed_levels

    def degree_two_only(letters, r, cap):
        if cap > 2:
            raise AssertionError("work started")
        return build(letters, r, cap)

    monkeypatch.setattr(magnus, "_packed_levels", degree_two_only)
    with pytest.raises(AssertionError, match="work started"):
        lcs_depth(below, 4)
    with pytest.raises(ValueError, match=r"degrees up to 3 .* 40 distinct .* MAX_DEPTH_WORK = 16777216"):
        lcs_depth(above, 4)
    assert lcs_depth(above, 3) == 3  # degree 2 alone: 9,984 * 41 updates
    wide = _repeat(spread_word(256), 128)  # 65,536 letters * 257 at degree 2
    _forbid(monkeypatch, "_packed_levels")
    with pytest.raises(ValueError, match="degrees up to 2 .* MAX_DEPTH_WORK"):
        lcs_depth(wide, 3)
    monkeypatch.setattr(magnus, "MAX_DEPTH_WORK", 65536 * 257)  # the limit is inclusive
    with pytest.raises(AssertionError, match="work started"):
        lcs_depth(wide, 3)
    monkeypatch.setattr(magnus, "MAX_DEPTH_WORK", 65536 * 257 - 1)
    with pytest.raises(ValueError, match="MAX_DEPTH_WORK"):
        lcs_depth(wide, 3)


def test_lcs_depth_reads_no_slot(monkeypatch):
    # every degree asks only whether the packed top level is zero
    def no_read(*args):
        raise AssertionError("a slot was read")

    monkeypatch.setattr(intlinalg._Slots, "read", no_read)
    assert lcs_depth(spread_word(256), 3) == 2
    assert lcs_depth(FreeWord(256, spread_word(256).letters * 127), 3) == 2
    assert lcs_depth(_conjugated(commutator(commutator(X1, X2), X3), 37), 4) == 3
    assert lcs_depth(_conjugated(commutator(commutator(X1, X2), X3), 80), 3) == 3
    assert lcs_depth(commutator(X1, X2), 3) == 2
    assert lcs_depth(commutator(commutator(X1, X2), X3), 3) == 3
    rng = Random(37)
    for kmax in range(3, 7):
        assert lcs_depth(_left_normed(rng, kmax - 1), kmax) == kmax - 1
        assert lcs_depth(_left_normed(rng, kmax), kmax) == kmax


def test_phi_refuses_caps_over_the_limits_before_building(monkeypatch):
    _forbid(monkeypatch, "_packed_levels")
    long = _repeat(commutator(X1, X2), 1279)  # 5,116 letters * (1 + 2 + ... + 2**7)
    assert 5116 * 255 <= magnus.MAX_DEPTH_WORK
    with pytest.raises(AssertionError, match="work started"):
        phi(long, 8)
    longer = _repeat(commutator(commutator(X1, X2), X3), 512)  # 5,120 letters * 3,280
    assert 5120 * 3280 > magnus.MAX_DEPTH_WORK
    with pytest.raises(ValueError, match="degrees up to 8 .* MAX_DEPTH_WORK"):
        phi(longer, 8)
    with pytest.raises(ValueError, match=r"17\*\*4 .* MAX_DEPTH_TERMS"):
        phi(_conjugated(commutator(commutator(X1, X2), X3), 14), 4)


def test_lcs_depth_caps_at_kmax():
    deep = commutator(commutator(X1, X2), X3)
    assert lcs_depth(deep, 2) == 2
    assert lcs_depth(deep, 1) == 1


@settings(max_examples=60)
@given(st.integers(min_value=-6, max_value=6))
def test_mu123_scales_on_commutator_powers(n):
    assert mu123(commutator(X1, X2) ** n) == n


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


def test_series_rank_and_cap_are_exact_ints():
    for rank, cap in ((2.5, 2), (2, 2.0), ("2", 2)):
        with pytest.raises(TypeError):
            MagnusSeries(rank, cap)
    s = MagnusSeries(True, True, {(1,): 1})
    assert (type(s.rank), type(s.degree_cap)) == (int, int)
    assert s == MagnusSeries(1, 1, {(1,): 1})
    w = phi(FreeWord(True, ((1, 1),)), 2)
    assert type(w.rank) is int and w == MagnusSeries(1, 2, {(): 1, (1,): 1})


@pytest.mark.parametrize("cap", [2.0, 3.0, 5.0, 2.5, "3"])
@pytest.mark.parametrize("text", [
    "x1 x2 x1^-1 x2^-1",  # depth 2
    "x1 x2 x1^-1 x2^-1 x3 x2 x1 x2^-1 x1^-1 x3^-1",  # [[x1, x2], x3], depth 3
])
def test_kmax_and_degree_cap_go_through_index(text, cap):
    w = parse_word(text, 3)
    with pytest.raises(TypeError):
        lcs_depth(w, cap)
    with pytest.raises(TypeError):
        phi(w, cap)


def test_bool_kmax_and_degree_cap_become_ints():
    w = parse_word("x1 x2 x1^-1 x2^-1 x3 x2 x1 x2^-1 x1^-1 x3^-1", 3)
    assert lcs_depth(w, 5) == 3
    depth = lcs_depth(w, True)
    assert type(depth) is int and depth == 1
    assert phi(w, True) == phi(w, 1)
    with pytest.raises(ValueError, match="positive"):
        lcs_depth(w, False)
    with pytest.raises(ValueError, match="positive"):
        phi(w, False)


def test_to_text_canonical():
    assert MagnusSeries(3, 2, {(): 1}).to_text() == "1"
    assert MagnusSeries(3, 2, {}).to_text() == "0"
    s = MagnusSeries(3, 2, {(): 1, (1, 2): 2, (2, 1): -2})
    assert s.to_text() == "1 + 2*a1 a2 - 2*a2 a1"
    # lexicographic: a1 a2 sorts before a2, prefix before extension
    t = MagnusSeries(3, 2, {(2,): 1, (1, 2): 1, (1,): -1})
    assert t.to_text() == "-1*a1 + 1*a1 a2 + 1*a2"
