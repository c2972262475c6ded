from random import Random

import pytest

from helpers import random_commutator_subgroup_word, random_word
from trilink.errors import PreconditionError
from trilink.magnus import mu123
from trilink.nilpotent import CommutatorClass, class_of, commutator_class
from trilink.words import FreeWord, commutator, generator, parse_word

X1, X2, X3 = (generator(3, i) for i in (1, 2, 3))


def test_commutator_class_examples():
    assert commutator_class(X1, X2) == (1, 0, 0)
    w = parse_word("x1 x3 x2^-1", 3)
    assert commutator_class(w, w) == (0, 0, 0)
    assert commutator_class(X1 * X3, X2) == (1, 0, -1)


def test_commutator_class_requires_rank_3():
    with pytest.raises(ValueError, match="rank-3"):
        commutator_class(generator(2, 1), generator(2, 2))


def test_class_of_examples():
    assert class_of(commutator(X1, X2)) == (1, 0, 0)
    assert class_of(FreeWord(3)) == (0, 0, 0)
    w = commutator(X2, X3) * ~commutator(X1, X2)
    assert class_of(w) == (-1, 0, 1)


def test_class_of_precondition():
    with pytest.raises(PreconditionError, match="generator 2"):
        class_of(parse_word("x2", 3))


def test_commutator_class_n1():
    assert CommutatorClass(1, 0, 0).n1 == 1
    assert CommutatorClass(0, 5, -2).n1 == 0
    assert CommutatorClass(-3, 1, 1).n1 == -3


def test_bilinearity_random():
    rng = Random(5)
    for _ in range(300):
        u, v, w = (random_word(rng, 3, 6) for _ in range(3))
        left = commutator_class(u * v, w)
        split = tuple(
            a + b for a, b in zip(commutator_class(u, w), commutator_class(v, w))
        )
        assert tuple(left) == split
        right = commutator_class(w, u * v)
        split_r = tuple(
            a + b for a, b in zip(commutator_class(w, u), commutator_class(w, v))
        )
        assert tuple(right) == split_r


def test_antisymmetry_random():
    rng = Random(13)
    for _ in range(200):
        u, v = random_word(rng, 3, 6), random_word(rng, 3, 6)
        assert tuple(commutator_class(u, v)) == tuple(-x for x in commutator_class(v, u))


def test_oracle_equivalence_with_magnus():
    rng = Random(17)
    for _ in range(400):
        u, v = random_word(rng, 3, 6), random_word(rng, 3, 6)
        cls = commutator_class(u, v)
        assert class_of(commutator(u, v)) == cls
        assert mu123(commutator(u, v)) == cls.n1


def test_mu_agreement():
    rng = Random(19)
    for _ in range(300):
        w = random_commutator_subgroup_word(rng)
        assert class_of(w).n1 == mu123(w)
