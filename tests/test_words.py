import copy
import pickle
import re
from random import Random

import pytest
from hypothesis import given, strategies as st

from helpers import random_word, stack_reduced
from trilink import words as words_module
from trilink.words import FreeWord, abelianization, commutator, generator, parse_word

letters = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from((1, -1))),
    max_size=12,
).map(tuple)
words = letters.map(lambda ls: FreeWord(3, ls))


def test_parse_reduced_word():
    w = parse_word("x1 x2 x1^-1 x2^-1", 3)
    assert len(w) == 4
    assert w.letters == ((1, 1), (2, 1), (1, -1), (2, -1))


def test_parse_cancellation():
    assert parse_word("x1 x1^-1", 3) == FreeWord(3)
    assert str(parse_word("", 3)) == ""


def test_parse_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        parse_word("x4", 3)


@pytest.mark.parametrize("bad", ["y1", "x0", "x1^2", "x1^", "x1^-2", "x-1", "x1x2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_word(bad, 3)


@pytest.mark.parametrize("text, message", [
    ("x1 y1 x2 y1", "malformed token 'y1'"),
    ("x2 x2 x4 x1 x4", "generator index 4 out of range"),
    ("x5 x1 y1 x5 y1", "generator index 5 out of range"),
    ("x1 y1 x5 y1 x5", "malformed token 'y1'"),
])
def test_parse_reports_first_bad_token_when_it_repeats(text, message):
    with pytest.raises(ValueError, match=message):
        parse_word(text, 3)


def test_str_roundtrip():
    w = parse_word("x1 x3^-1 x3^-1 x2", 3)
    assert parse_word(str(w), 3) == w


def test_product_and_inverse():
    x1, x2, x3 = (generator(3, i) for i in (1, 2, 3))
    assert x1 * ~x1 == FreeWord(3)
    assert ~(x1 * x2) == parse_word("x2^-1 x1^-1", 3)
    assert parse_word("x1 x2", 3) * parse_word("x2^-1 x3", 3) == x1 * x3


def test_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        generator(2, 1) * generator(3, 1)
    with pytest.raises(ValueError, match="rank mismatch"):
        commutator(generator(2, 1), generator(3, 1))


@pytest.mark.parametrize("product", [lambda w: w * 3, lambda w: 3 * w, lambda w: w * None],
                         ids=["w*3", "3*w", "w*None"])
def test_product_with_a_non_word_is_a_type_error(product):
    with pytest.raises(TypeError, match="unsupported operand"):
        product(generator(3, 1))


def test_exponent_sum_examples():
    assert abelianization(parse_word("x1 x2 x1^-1 x2^-1", 3)).get(1, 0) == 0
    assert abelianization(parse_word("x1 x1 x2^-1", 3)).get(1, 0) == 2


def test_commutator_examples():
    x1, x2 = generator(3, 1), generator(3, 2)
    assert commutator(x1, x2) == parse_word("x1 x2 x1^-1 x2^-1", 3)
    w = parse_word("x1 x3 x2^-1", 3)
    assert commutator(w, w) == FreeWord(3)
    assert commutator(parse_word("x1 x3", 3), x2) == \
        parse_word("x1 x3 x2 x3^-1 x1^-1 x2^-1", 3)


def test_power():
    x1 = generator(3, 1)
    assert x1 ** 3 == parse_word("x1 x1 x1", 3)
    assert x1 ** -2 == parse_word("x1^-1 x1^-1", 3)
    assert x1 ** 0 == FreeWord(3)
    assert (x1 ** 2) * ~x1 == x1


def test_power_matches_repeated_products():
    rng = Random(7)
    not_cyclically_reduced = 0
    for _ in range(40):
        u, v = random_word(rng, 3, 6), random_word(rng, 3, 6)
        w = u * v * ~u  # a conjugate, so copies of w mostly cancel where they meet
        if len(w) > 1 and w.letters[0] == (w.letters[-1][0], -w.letters[-1][1]):
            not_cyclically_reduced += 1
        for n in range(-6, 7):
            want = FreeWord(3)
            for _ in range(abs(n)):
                want = want * (w if n > 0 else ~w)
            assert w ** n == want
    assert not_cyclically_reduced >= 20


def test_reduce_is_idempotent_on_raw_letters():
    raw = ((1, 1), (1, -1), (2, 1), (3, 1), (3, -1), (2, -1), (2, 1))
    once = FreeWord(3, raw).letters
    assert FreeWord(3, once).letters == once
    assert once == ((2, 1),)  # cascading cancellations collapse through the stack


@given(words, words)
def test_exponent_sums_additive(u, v):
    for i in (1, 2, 3):
        assert abelianization(u * v).get(i, 0) == \
            abelianization(u).get(i, 0) + abelianization(v).get(i, 0)


@given(words, words)
def test_commutator_kills_exponent_sums(u, v):
    c = commutator(u, v)
    assert all(abelianization(c).get(i, 0) == 0 for i in (1, 2, 3))


@given(words, words, words)
def test_product_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words)
def test_inverse_law(w):
    assert w * ~w == FreeWord(3)
    for i in (1, 2, 3):
        assert abelianization(~w).get(i, 0) == -abelianization(w).get(i, 0)


def test_constructor_validates():
    with pytest.raises(ValueError):
        FreeWord(0)
    with pytest.raises(ValueError):
        FreeWord(2, ((3, 1),))
    with pytest.raises(ValueError):
        FreeWord(2, ((1, 2),))
    # validation and reduction share one pass: the first bad letter is
    # reported, even one that would cancel
    with pytest.raises(ValueError, match="index 3 out of range"):
        FreeWord(2, ((1, 1), (3, 1), (3, -1), (1, 2)))
    with pytest.raises(ValueError, match="sign must be"):
        FreeWord(2, ((1, 1), (1, -1), (1, 2), (3, 1)))


@pytest.mark.parametrize("letters", [
    ((1.5, 1), (2, 1)),
    ((2, -1.0),),
    (("1", 1),),
    ((1, "-1"),),
    ((1, 1), (2, 1), (3.0, 1)),  # integral, but equal to no letter seen before
])
def test_constructor_refuses_non_integer_letters(letters):
    with pytest.raises(TypeError):
        FreeWord(3, letters)


@pytest.mark.parametrize("rank", [2.5, 2.0, "2", None])
def test_constructor_refuses_non_integer_rank(rank):
    with pytest.raises(TypeError):
        FreeWord(rank, ((1, 1), (2, 1)))


def test_constructor_rank_forms():
    # the rank goes through operator.index, as letters do: a bool rank
    # is the int it stands for, and the stored rank is an exact int
    w = FreeWord(True, ((1, 1),))
    assert type(w.rank) is int and w.rank == 1
    assert repr(w) == "FreeWord(rank=1, 'x1')"
    assert w == FreeWord(1, ((1, 1),))
    with pytest.raises(ValueError, match="rank must be positive"):
        FreeWord(False)


def test_constructor_letter_forms():
    # a letter must be hashable: lists are refused
    with pytest.raises(TypeError, match="unhashable"):
        FreeWord(3, ([1, 1],))
    # bools are ints; the stored letters are exact ints either way
    assert FreeWord(3, ((True, -1),)).letters == ((1, -1),)
    assert type(FreeWord(3, ((True, True),)).letters[0][1]) is int
    # each distinct letter is checked once, and an equal letter shares that
    # check: (1.0, 1) after (1, 1) is the letter (1, 1)
    w = FreeWord(3, ((1, 1), (1.0, 1), (2, 1)))
    assert w.letters == ((1, 1), (1, 1), (2, 1))
    assert str(w) == "x1 x1 x2"


def test_constructor_reports_first_bad_letter_in_a_long_word():
    good = tuple((1 + k % 3, 1 - 2 * (k % 2)) for k in range(10**4))
    with pytest.raises(ValueError, match="sign must be"):
        FreeWord(3, good + ((2, 0), (4, 1)) + good)
    with pytest.raises(ValueError, match="index 4 out of range"):
        FreeWord(3, good + ((4, 1), (2, 0)) + good)


def test_constructor_checks_each_distinct_letter_once(monkeypatch):
    calls = []
    monkeypatch.setattr(words_module, "_as_index", lambda x: calls.append(x) or x)
    w = FreeWord(3, ((1, 1), (2, -1), (2, 1), (1, 1), (3, 1), (1, -1)) * 500)
    # the rank, then the index and sign of each distinct letter
    assert calls == [3, 1, 1, 2, -1, 2, 1, 3, 1, 1, -1]
    # each copy reduces to x1 x1 x3 x1^-1, and x1^-1 x1 cancels where copies meet
    assert len(w) == 4 + 2 * 499


def test_parse_matches_each_distinct_token_once(monkeypatch):
    matched = []
    token = words_module._TOKEN

    class Counting:
        def match(self, text):
            matched.append(text)
            return token.match(text)

    monkeypatch.setattr(words_module, "_TOKEN", Counting())
    w = parse_word("x2 x1^-1 x3 " * 400 + "x1", 3)
    assert matched == ["x2", "x1^-1", "x3", "x1"]
    assert len(w) == 1201


# --- the reducer against the per-letter stack loop (helpers.stack_reduced)

def _text(letters) -> str:
    return " ".join(f"x{i}" if s == 1 else f"x{i}^-1" for i, s in letters)


def _agree(rank, letters):
    """Both ways in reduce letters as the stack loop does; returns the reduced letters."""
    want = stack_reduced(rank, letters)
    assert FreeWord(rank, letters).letters == want
    assert parse_word(_text(letters), rank).letters == want
    return want


@pytest.mark.parametrize("letters, want", [
    # a cancellation at letter 0
    (((1, 1), (1, -1), (2, 1)), ((2, 1),)),
    # at the last pair
    (((2, 1), (3, -1), (1, -1), (1, 1)), ((2, 1), (3, -1))),
    # a cascade from the first pair back to letter 0 and on past it
    (((2, 1), (3, 1), (1, 1), (1, -1), (3, -1), (2, -1), (3, 1)), ((3, 1),)),
    # a cascade back to before the first pair that stops at a kept letter
    (((1, -1), (2, 1), (3, 1), (3, -1), (2, -1), (2, -1)), ((1, -1), (2, -1))),
    # pairs that cancel completely, nested and side by side
    (((1, 1), (2, 1), (3, 1), (3, -1), (2, -1), (1, -1)), ()),
    (((1, 1), (1, -1)) * 50, ()),
    (((2, -1), (2, 1)), ()),
    # no pair: equal letters, and inverses that are not adjacent
    (((1, 1), (1, 1), (2, -1), (1, -1)), ((1, 1), (1, 1), (2, -1), (1, -1))),
    (((2, -1),), ((2, -1),)),
    ((), ()),
])
def test_reducer_cases(letters, want):
    assert _agree(3, letters) == want


def test_reducer_agrees_with_stack_loop_on_random_words():
    rng = Random(22)
    for _ in range(400):
        # few generators, so inverse pairs meet often, anywhere in the word
        gens = rng.sample(range(1, 5), rng.randint(1, 3))
        letters = tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, 40)))
        _agree(4, letters)
    for rank in (256, 300, 10**6):
        for _ in range(30):
            gens = rng.sample(range(1, rank + 1), rng.randint(1, min(rank, 300)))
            u = [(g, rng.choice((1, -1))) for g in gens]
            inverse = [(g, -s) for g, s in reversed(u)]
            cut = rng.randint(0, len(u))
            # u v u^-1 with v a random word over u's generators: the cascade
            # reaches back through all of u when v cancels, and stops in u otherwise
            v = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))]
            _agree(rank, tuple(u[:cut] + v + u[cut:] + inverse))


def test_reducer_over_many_generators_cancels_completely():
    # 600 distinct generators: codes up to 1,199, and a cascade through all of them
    u = tuple((g, 1 - 2 * (g % 2)) for g in range(1, 601))
    inverse = tuple((g, -s) for g, s in reversed(u))
    assert _agree(600, u + inverse) == ()
    assert _agree(600, u + inverse[:-1]) == ((1, -1),)
    big = 10**6
    assert _agree(big, ((big, 1), (1, -1), (1, 1), (big, -1), (big, -1))) == ((big, -1),)


@pytest.mark.parametrize("n", [127, 128, 129])
def test_reducer_at_the_byte_code_edge(n):
    # n distinct generators have codes 0..2n-1: one byte a code up to n = 128
    u = tuple((g, 1) for g in range(1, n + 1))
    inverse = tuple((g, -1) for g in range(n, 0, -1))
    assert _agree(n, u) == u
    assert _agree(n, u + inverse) == ()
    assert _agree(n, u + ((n, -1),)) == u[:-1]  # the highest codes, at the last pair
    assert _agree(n, ((1, 1), (1, -1)) + u) == u  # a pair at letter 0
    assert _agree(n, u[:-1] + ((1, -1), (1, 1)) + u[-1:]) == u


@st.composite
def ranked_letters(draw):
    rank = draw(st.sampled_from((1, 2, 3, 256, 10**6)))
    gens = draw(st.lists(st.integers(min_value=1, max_value=rank), min_size=1, max_size=4))
    letters = draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))),
                            max_size=40))
    return rank, tuple(letters)


@given(ranked_letters())
def test_reducer_agrees_with_stack_loop(case):
    _agree(*case)


def _raised(build, *args):
    """(exception type, message) that build(*args) raises, or None."""
    try:
        build(*args)
    except (TypeError, ValueError) as error:
        return type(error), str(error)
    return None


BAD_LETTERS = [(4, 1), (0, -1), (1, 0), (2, 2), (1.5, 1), (2, -1.0), ("1", 1), [1, 1], (1, 1, 1), (1,)]


def test_constructor_reports_the_same_first_bad_letter_as_the_stack_loop():
    rng = Random(23)
    for _ in range(300):
        letters = [(rng.randint(1, 3), rng.choice((1, -1))) for _ in range(rng.randint(0, 30))]
        for bad in rng.sample(BAD_LETTERS, 2):
            letters.insert(rng.randint(0, len(letters)), bad)
        got = _raised(FreeWord, 3, tuple(letters))
        assert got is not None and got == _raised(stack_reduced, 3, tuple(letters))


def test_parse_reports_the_first_bad_token():
    rng = Random(24)
    bad_tokens = {"y1": "malformed token 'y1'", "x0": "malformed token 'x0'",
                  "x1^2": "malformed token 'x1^2'", "x4": "generator index 4 out of range 1..3",
                  "x9^-1": "generator index 9 out of range 1..3"}
    for _ in range(200):
        tokens = _text((rng.randint(1, 3), rng.choice((1, -1))) for _ in range(rng.randint(0, 30)))
        tokens = tokens.split()
        first, second = rng.sample(sorted(bad_tokens), 2)
        at = rng.randint(0, len(tokens))
        tokens[at:at] = [first]
        tokens.insert(rng.randint(at + 1, len(tokens)), second)
        with pytest.raises(ValueError, match=re.escape(bad_tokens[first])):
            parse_word(" ".join(tokens), 3)


def test_parse_checks_the_rank_after_every_token():
    with pytest.raises(ValueError, match="rank must be positive, got 0"):
        parse_word("", 0)
    with pytest.raises(ValueError, match="rank must be positive, got -2"):
        parse_word(" \n ", -2)
    # every token is out of range below rank 1, and a token is checked first
    with pytest.raises(ValueError, match=re.escape("generator index 1 out of range 1..0")):
        parse_word("x1 x1^-1", 0)
    # a rank that is not an integer: the tokens, then the rank
    with pytest.raises(ValueError, match="malformed token 'y1'"):
        parse_word("x1 y1", 2.5)
    with pytest.raises(ValueError, match=re.escape("generator index 3 out of range 1..2.5")):
        parse_word("x1 x3", 2.5)
    with pytest.raises(TypeError):
        parse_word("x1 x2 x2^-1", 2.5)


def test_equal_letters_share_the_first_ones_check():
    # (1.0, 1) after (1, 1) is the letter (1, 1); before it, it is checked and refused
    for letters, want in [(((1, 1), (1.0, 1)), ((1, 1), (1, 1))),
                          (((1, 1), (2, 1), (2, -1), (1, -1), (1.0, 1)), ((1, 1),))]:
        assert FreeWord(3, letters).letters == stack_reduced(3, letters) == want
    for letters in [((1.0, 1), (1, 1)), ((1, 1), (1, -1.0))]:
        assert _raised(FreeWord, 3, letters) == _raised(stack_reduced, 3, letters)
        with pytest.raises(TypeError):
            FreeWord(3, letters)


def test_parse_stores_its_letters_without_checking_them_again(monkeypatch):
    calls = []
    monkeypatch.setattr(words_module, "_as_index", lambda x: calls.append(x) or x)
    w = parse_word("x1 x2 x2^-1 x3^-1 " * 300, 3)
    assert calls == [3]  # the rank only
    monkeypatch.undo()
    want = FreeWord(3, ((1, 1), (3, -1)) * 300)
    assert w == want and hash(w) == hash(want)
    assert pickle.loads(pickle.dumps(w)) == w
    assert type(w) is FreeWord and type(w.rank) is int


# --- the canonical codes a word stores against its letters

def _assert_coded(w):
    """w._codes decodes through w._gens to w.letters, _gens lists the letters'
    generators in order of first appearance, and the codes are bytes iff 2r <= 256."""
    codes, gens = w._codes, w._gens
    assert tuple((gens[c >> 1], -1 if c & 1 else 1) for c in codes) == w.letters
    assert gens == tuple(dict.fromkeys(g for g, _ in w.letters))
    assert type(codes) is (bytes if 2 * len(gens) <= 0x100 else tuple)


RANKS = st.sampled_from((1, 3, 130, 300))


@st.composite
def built_words(draw, ranks=RANKS):
    """A word from the constructor or parse_word, then a few products, inverses,
    powers, copies or pickle round trips."""
    rank = draw(ranks)
    gens = draw(st.lists(st.integers(1, rank), min_size=1, max_size=6))

    def raw():
        return tuple(draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))),
                                   max_size=20)))

    def fresh():
        letters = raw()
        return FreeWord(rank, letters) if draw(st.booleans()) else parse_word(_text(letters), rank)

    w = fresh()
    for op in draw(st.lists(st.sampled_from("*~p=cdk"), max_size=4)):
        if op == "*":
            w = w * fresh()
        elif op == "~":
            w = ~w
        elif op == "p":
            w = w ** draw(st.integers(-3, 3))
        elif op == "=":
            w = FreeWord(rank, w.letters + raw())
        elif op == "c":
            w = copy.copy(w)
        elif op == "d":
            w = copy.deepcopy(w)
        else:
            w = pickle.loads(pickle.dumps(w))
        _assert_coded(w)
    return w


@given(built_words())
def test_codes_decode_to_the_letters(w):
    _assert_coded(w)


@st.composite
def word_pairs(draw):
    """Two words of one rank: another built word, or the first again with inverse
    pairs put in, so that its input meets the generators in another order."""
    a = draw(built_words())
    if draw(st.booleans()):
        return a, draw(built_words(st.just(a.rank)))
    letters = list(a.letters)
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.integers(1, a.rank))
        s = draw(st.sampled_from((1, -1)))
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = (g, s), (g, -s)
    return a, FreeWord(a.rank, letters)


@given(word_pairs())
def test_words_are_equal_exactly_when_their_letters_and_their_codes_are(pair):
    a, b = pair
    same = a.letters == b.letters and a.rank == b.rank
    assert (a == b) == same == ((a.rank, a._gens, a._codes) == (b.rank, b._gens, b._codes))
    if same:
        assert hash(a) == hash(b)
    for c in (FreeWord(a.rank, a.letters), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert c == a and hash(c) == hash(a)


def _spread(n, k=1):
    """The letters of (x1 ... xn x1^-1 ... xn^-1)**k, over n distinct generators."""
    letters = tuple((g, 1) for g in range(1, n + 1)) + tuple((g, -1) for g in range(1, n + 1))
    return letters * k


def _cascade(n, gens=3):
    """n letters, x1 x2 ... cycling through gens generators and then their inverse:
    all cancel, from the middle out."""
    half = tuple((1 + i % gens, 1) for i in range(n // 2))
    return half + tuple((g, -s) for g, s in reversed(half))


@pytest.mark.parametrize("rank, letters, slot", [
    (3, ((1, 1), (2, 1), (2, -1)), {1: 0}),  # x2 cancels out
    (3, ((2, 1), (3, 1), (3, -1), (1, 1), (2, -1), (1, -1)), {2: 0, 1: 1}),
    (3, _cascade(12000), {}),
    (128, _spread(128), {g: g - 1 for g in range(1, 129)}),  # the widest bytes
    (129, _spread(129), {g: g - 1 for g in range(1, 130)}),  # the narrowest tuple
    (256, _spread(256, 3), {g: g - 1 for g in range(1, 257)}),
    # 129 and 256 generators met, 128 and 3 left: the stack's codes become bytes
    (129, ((129, 1), (129, -1)) + _spread(128), {g: g - 1 for g in range(1, 129)}),
    (256, ((3, 1), (2, -1), (200, 1)) + _cascade(512, 256), {3: 0, 2: 1, 200: 2}),
    # 300 met, 200 left, past one byte a code: renumbered in the tuple
    (300, _cascade(600, 300)[:400], {g: g - 1 for g in range(1, 201)}),
    # x3 met first, then cancelled: x1 comes first in the reduced word
    (3, ((3, 1), (2, 1), (2, -1), (3, -1), (1, 1), (3, 1)), {1: 0, 3: 1}),
])
def test_codes_of_words_that_lose_generators_or_pass_a_byte(rank, letters, slot):
    for w in (FreeWord(rank, letters), parse_word(_text(letters), rank)):
        for v in (w, ~w, w * w, w ** -2, copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            _assert_coded(v)
        assert w.letters == stack_reduced(rank, letters)
        assert w._gens == tuple(sorted(slot, key=slot.get))  # slot: generator -> k
        assert hash(w) == hash(FreeWord(rank, letters))  # a tuple of codes past one byte hashes
