from random import Random

import pytest
from hypothesis import given, strategies as st

from helpers import random_word
from trilink import words as words_module
from trilink.words import (
    FreeWord,
    commutator,
    exponent_sum,
    generator,
    parse_word,
    word_inverse,
    word_power,
    word_product,
)

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
    assert word_product(x1, word_inverse(x1)) == FreeWord(3)
    assert word_inverse(word_product(x1, x2)) == parse_word("x2^-1 x1^-1", 3)
    assert word_product(parse_word("x1 x2", 3), parse_word("x2^-1 x3", 3)) == \
        word_product(x1, x3)


def test_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        word_product(generator(2, 1), generator(3, 1))
    with pytest.raises(ValueError, match="rank mismatch"):
        commutator(generator(2, 1), generator(3, 1))


def test_exponent_sum_examples():
    assert exponent_sum(parse_word("x1 x2 x1^-1 x2^-1", 3), 1) == 0
    assert exponent_sum(parse_word("x1 x1 x2^-1", 3), 1) == 2
    with pytest.raises(ValueError, match="out of range"):
        exponent_sum(generator(3, 1), 4)


def test_commutator_examples():
    x1, x2 = generator(3, 1), generator(3, 2)
    assert commutator(x1, x2) == parse_word("x1 x2 x1^-1 x2^-1", 3)
    w = parse_word("x1 x3 x2^-1", 3)
    assert commutator(w, w) == FreeWord(3)
    assert commutator(parse_word("x1 x3", 3), x2) == \
        parse_word("x1 x3 x2 x3^-1 x1^-1 x2^-1", 3)


def test_power():
    x1 = generator(3, 1)
    assert word_power(x1, 3) == parse_word("x1 x1 x1", 3)
    assert word_power(x1, -2) == parse_word("x1^-1 x1^-1", 3)
    assert word_power(x1, 0) == FreeWord(3)
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
                want = word_product(want, w if n > 0 else word_inverse(w))
            assert word_power(w, n) == want
    assert not_cyclically_reduced >= 20


def test_reduce_is_idempotent_on_raw_letters():
    raw = ((1, 1), (1, -1), (2, 1), (3, 1), (3, -1), (2, -1), (2, 1))
    once = FreeWord(3, raw).letters
    assert FreeWord(3, once).letters == once
    assert once == ((2, 1),)  # cascading cancellations collapse through the stack


@given(words, words)
def test_exponent_sums_additive(u, v):
    for i in (1, 2, 3):
        assert exponent_sum(word_product(u, v), i) == exponent_sum(u, i) + exponent_sum(v, i)


@given(words, words)
def test_commutator_kills_exponent_sums(u, v):
    c = commutator(u, v)
    assert all(exponent_sum(c, i) == 0 for i in (1, 2, 3))


@given(words, words, words)
def test_product_associative(u, v, w):
    assert word_product(word_product(u, v), w) == word_product(u, word_product(v, w))


@given(words)
def test_inverse_law(w):
    assert word_product(w, word_inverse(w)) == FreeWord(3)
    for i in (1, 2, 3):
        assert exponent_sum(word_inverse(w), i) == -exponent_sum(w, i)


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
