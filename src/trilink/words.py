"""Freely reduced words in a finitely generated free group.

A word is a sequence of letters (generator index, sign) with indices in
1..rank and sign +1 or -1.  Construction validates and reduces in one
pass: each letter is checked, then cancels the top of a stack of kept
letters if it is that letter's inverse and is pushed otherwise, so
adjacent inverse pairs never survive and the first bad letter is the
one reported.  The commutator convention is

    [a, b] = a b a^-1 b^-1

and every sign in the rest of the package depends on it, so it is fixed
here once and nowhere else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

Letter = tuple[int, int]

_TOKEN = re.compile(r"x([1-9][0-9]*)(\^-1)?\Z")


@dataclass(frozen=True, slots=True)
class FreeWord:
    """A reduced word; rank is carried explicitly, never inferred."""

    rank: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        out: list[Letter] = []
        for index, sign in self.letters:
            if not 1 <= index <= self.rank:
                raise ValueError(f"generator index {index} out of range 1..{self.rank}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")
            if out and out[-1][0] == index and out[-1][1] == -sign:
                out.pop()
            else:
                out.append((index, sign))
        object.__setattr__(self, "letters", tuple(out))

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
    back for any reduced word w.  Each distinct token is matched once.
    """
    letters = []
    seen: dict[str, Letter] = {}
    for token in text.split():
        letter = seen.get(token)
        if letter is None:
            m = _TOKEN.match(token)
            if m is None:
                raise ValueError(f"malformed token {token!r}")
            index = int(m.group(1))
            if index > rank:
                raise ValueError(f"generator index {index} out of range 1..{rank}")
            letter = seen[token] = (index, -1 if m.group(2) else 1)
        letters.append(letter)
    return FreeWord(rank, tuple(letters))


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
