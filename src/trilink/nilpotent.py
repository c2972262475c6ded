"""The quotient of a rank-3 free group's commutator subgroup mod depth 3.

F_2/F_3 is free abelian on the basic commutators, ordered here as
([x1,x2], [x1,x3], [x2,x3]); an element is its integer coordinate
triple, and mu-bar(123) of a longitude is the first coordinate.  The
class of a commutator is bilinear in the exponent sums of its
arguments, which gives an arithmetic route entirely independent of the
Magnus expansion and is used to cross-check it.
"""

from __future__ import annotations

from collections import namedtuple

from .magnus import _commutator_degree_two
from .words import FreeWord, abelianization


class CommutatorClass(namedtuple("CommutatorClass", "n1 n2 n3")):
    """Exponents of [x1,x2], [x1,x3], [x2,x3], in that order."""

    __slots__ = ()


def commutator_class(w1: FreeWord, w2: FreeWord) -> CommutatorClass:
    """Class of [w1, w2] from exponent sums alone.

    Antisymmetric in its arguments and biadditive under word products.
    """
    if w1.rank != 3 or w2.rank != 3:
        raise ValueError(f"rank-3 words required, got {w1.rank} and {w2.rank}")
    s1, s2 = abelianization(w1), abelianization(w2)
    n = [s1.get(i, 0) for i in (1, 2, 3)]
    m = [s2.get(i, 0) for i in (1, 2, 3)]
    return CommutatorClass(
        n[0] * m[1] - n[1] * m[0],
        n[0] * m[2] - n[2] * m[0],
        n[1] * m[2] - n[2] * m[1],
    )


def class_of(w: FreeWord) -> CommutatorClass:
    """Coordinates of a commutator-subgroup element, read off degree 2.

    Requires rank 3 and all exponent sums zero (exactly membership in
    the commutator subgroup, since that is the abelianization kernel).
    The coordinates are the a1 a2, a1 a3 and a2 a3 coefficients of the
    Magnus image, from the checked degree-2 read that mu123 uses
    (magnus._commutator_degree_two); phi is its cross-check in the tests.
    """
    coeffs = _commutator_degree_two(w)
    return CommutatorClass(
        coeffs.get((1, 2), 0),
        coeffs.get((1, 3), 0),
        coeffs.get((2, 3), 0),
    )
