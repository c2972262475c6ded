"""Freely reduced words in a finitely generated free group.

A word is a sequence of letters (generator index, sign) with indices in
1..rank and sign +1 or -1, both exact integers.  Construction validates
and reduces in one pass: a letter cancels the top of a stack of kept
letters if it is that letter's inverse and is pushed otherwise, so
adjacent inverse pairs never survive.  Each distinct letter is checked
once, the first time it occurs, so the first bad letter is the one
reported and a long word over few generators costs one dict lookup per
letter.  The commutator convention is

    [a, b] = a b a^-1 b^-1

and every sign in the rest of the package depends on it, so it is fixed
here once and nowhere else.
"""

from __future__ import annotations

import re
from operator import index as _as_index

from ._record import Record

Letter = tuple[int, int]

_TOKEN = re.compile(r"x([1-9][0-9]*)(\^-1)?\Z")


class FreeWord(Record):
    """A reduced word; rank is carried explicitly, never inferred."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: tuple[Letter, ...] = ()):
        rank = _as_index(rank)
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        # each distinct letter -> (its checked form, the checked form of its
        # inverse); equal letters share one entry, so (1.0, 1) after (1, 1)
        # takes the form (1, 1) and is not checked again
        checked: dict = {}
        out: list = [None]  # the stack of kept letters, above a sentinel
        for letter in letters:
            entry = checked.get(letter)
            if entry is None:
                index, sign = map(_as_index, letter)
                if not 1 <= index <= rank:
                    raise ValueError(f"generator index {index} out of range 1..{rank}")
                if sign not in (1, -1):
                    raise ValueError(f"letter sign must be +1 or -1, got {sign}")
                entry = checked[letter] = (index, sign), (index, -sign)
            form, inverse = entry
            if out[-1] == inverse:
                out.pop()
            else:
                out.append(form)
        Record.__init__(self, rank, tuple(out[1:]))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return word_product(self, other)

    def __invert__(self) -> "FreeWord":
        return word_inverse(self)

    def __pow__(self, n: int) -> "FreeWord":
        return word_power(self, n)

    def __str__(self) -> str:
        return " ".join(f"x{i}" if s == 1 else f"x{i}^-1" for i, s in self.letters)

    def __repr__(self) -> str:
        return f"FreeWord(rank={self.rank}, {str(self)!r})"


def generator(rank: int, index: int) -> FreeWord:
    """The one-letter word x_index."""
    return FreeWord(rank, ((index, 1),))


def parse_word(text: str, rank: int) -> FreeWord:
    """Parse whitespace-separated tokens ``x<k>`` / ``x<k>^-1``.

    Empty text is the empty word.  Round trip: parsing str(w) gives w
    back for any reduced word w.  Each distinct token is matched once, in
    order of first occurrence, so the first bad token is the one reported.
    """
    tokens = text.split()
    letter_of: dict[str, Letter] = {}
    for token in dict.fromkeys(tokens):
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"malformed token {token!r}")
        index = int(m.group(1))
        if index > rank:
            raise ValueError(f"generator index {index} out of range 1..{rank}")
        letter_of[token] = (index, -1 if m.group(2) else 1)
    return FreeWord(rank, tuple(map(letter_of.__getitem__, tokens)))


def word_product(w1: FreeWord, w2: FreeWord) -> FreeWord:
    if w1.rank != w2.rank:
        raise ValueError(f"rank mismatch: {w1.rank} vs {w2.rank}")
    return FreeWord(w1.rank, w1.letters + w2.letters)


def word_inverse(w: FreeWord) -> FreeWord:
    return FreeWord(w.rank, tuple((i, -s) for i, s in reversed(w.letters)))


def word_power(w: FreeWord, n: int) -> FreeWord:
    """w^n (the inverse's power for n < 0), reduced in one pass over |n| copies."""
    if n < 0:
        w, n = word_inverse(w), -n
    return FreeWord(w.rank, w.letters * n)


def abelianization(w: FreeWord) -> dict[int, int]:
    """Exponent sum of each generator occurring in w (possibly 0), in one pass."""
    sums: dict[int, int] = {}
    for i, s in w.letters:
        sums[i] = sums.get(i, 0) + s
    return sums


def exponent_sum(w: FreeWord, index: int) -> int:
    """Total exponent of x_index in w; additive under products."""
    if not 1 <= index <= w.rank:
        raise ValueError(f"generator index {index} out of range 1..{w.rank}")
    return abelianization(w).get(index, 0)


def commutator(w1: FreeWord, w2: FreeWord) -> FreeWord:
    """[w1, w2] = w1 w2 w1^-1 w2^-1, reduced."""
    return word_product(word_product(w1, w2),
                        word_product(word_inverse(w1), word_inverse(w2)))
