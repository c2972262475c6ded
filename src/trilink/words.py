"""Freely reduced words in a finitely generated free group.

A word is a sequence of letters (generator index, sign) with indices in
1..rank and sign +1 or -1, both exact integers.  Both ways in, the
constructor's letters and parse_word's tokens, go through one coder: a
dict from each distinct letter or token to an integer code, 2k for the
k-th distinct generator met and 2k + 1 for its inverse, so a letter and
its inverse are the codes whose xor is 1.  The coder checks a key on
its first miss, so each distinct letter or token is checked once, in
input order, and the first bad one is the one reported.  parse_word
stores the codes its coder checked with one Record.__init__ call, so
no letter is checked twice.

One reducer, used by the constructor and so by products, inverses and
powers, cancels adjacent inverse pairs in the codes with a stack of
kept codes.  While every code fits a byte (at most 128 distinct
generators), a C-level scan of a few big-integer operations finds the
first pair, the first xor of neighbouring codes that is 1; the codes
before it are kept as they are and the stack runs from that pair on, so
a word that is already reduced runs no Python-level loop per letter.
Wider codes run the stack from the first letter.

A word stores only its rank and its canonical codes: code 2k is x_g and
2k + 1 is x_g^-1 for g = _gens[k], the generators numbered in order of
first appearance in the reduced word.  The codes are bytes while
2r <= 256 for r generators, otherwise a tuple, so every word hashes.
Only the stack can cancel a letter, so only it numbers the generators
again, and equal words store equal fields.  Every magnus question and
the exponent sums read the codes; letters decodes them on demand for
repr, str, the operators and pickle, which rebuilds through the
constructor.

The commutator convention is

    [a, b] = a b a^-1 b^-1

and every sign in the rest of the package depends on it, so it is fixed
here once and nowhere else.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import islice
from operator import index as _as_index

from ._record import Record, _positive

Letter = tuple[int, int]

_TOKEN = re.compile(r"x([1-9][0-9]*)(\^-1)?\Z")


class _Coder(dict):
    """Letter or token -> code; a key is checked on its first miss.

    check(key) returns the key's letter (index, sign) or raises.  Equal
    keys share one entry, so (1.0, 1) after (1, 1) takes the code of
    (1, 1) and is not checked again.
    """

    __slots__ = ("check", "slot")

    def __init__(self, check):
        self.check = check
        self.slot: dict[int, int] = {}  # generator index -> k

    def __missing__(self, key) -> int:
        index, sign = self.check(key)
        k = self.slot.setdefault(index, len(self.slot))
        code = self[key] = 2 * k + (sign == -1)
        return code

    def reduced(self, keys) -> tuple[tuple[int, ...], bytes | tuple[int, ...]]:
        """(gens, codes) of keys, checked, with adjacent inverse pairs cancelled."""
        codes = list(map(self.__getitem__, keys))
        packed = bytes(codes) if 2 * len(self.slot) <= 0x100 else None
        first = 0 if packed is None else _first_pair(packed)
        if first < 0:  # already reduced: the input met the generators in canonical order
            return tuple(self.slot), packed
        kept = codes[:first]
        for code in islice(codes, first, None):
            if kept and kept[-1] == code ^ 1:
                kept.pop()
            else:
                kept.append(code)
        return _canonical(kept, list(self.slot))


def _canonical(kept: list[int], gens: list[int]) -> tuple[tuple[int, ...], bytes | tuple[int, ...]]:
    """(gens, codes) of the codes the stack kept, numbered again in order of first appearance.

    gens[k] is the generator of codes 2k and 2k + 1 in kept.  Byte codes
    are renumbered by one bytes.translate, wider ones code by code; the
    codes come out as bytes iff 2r <= 256 for the r generators left.
    """
    order = list(dict.fromkeys(code >> 1 for code in dict.fromkeys(kept)))  # the k left
    table = [0] * max(2 * len(gens), 0x100)  # old code -> new code
    for new, k in enumerate(order):
        table[2 * k:2 * k + 2] = 2 * new, 2 * new + 1
    if 2 * len(gens) <= 0x100:
        codes = bytes(kept).translate(bytes(table))
    else:
        codes = (bytes if 2 * len(order) <= 0x100 else tuple)(map(table.__getitem__, kept))
    return tuple(map(gens.__getitem__, order)), codes


_FLIP = bytes(code ^ 1 for code in range(256))


def _first_pair(packed: bytes) -> int:
    """The stack loop starts here; -1 means there is no pair.  One byte a code.

    A pair is an i with codes[i] ^ codes[i + 1] == 1.  The codes from
    the second on and the flipped codes up to the last but one, each
    read as one integer, xor to an integer whose byte i is 0 exactly at
    a pair, and bytes.find gives the first.
    """
    z = (int.from_bytes(packed[1:], "little")
         ^ int.from_bytes(packed[:-1].translate(_FLIP), "little"))
    return z.to_bytes(max(len(packed) - 1, 0), "little").find(0)


class FreeWord(Record):
    """A reduced word; rank is carried explicitly, never inferred."""

    __slots__ = ("rank", "_gens", "_codes")

    def __init__(self, rank: int, letters: tuple[Letter, ...] = ()):
        rank = _positive(rank, "rank")

        def check(letter) -> Letter:
            index, sign = map(_as_index, letter)
            if not 1 <= index <= rank:
                raise ValueError(f"generator index {index} out of range 1..{rank}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")
            return index, sign

        Record.__init__(self, rank, *_Coder(check).reduced(letters))

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The letters (generator index, sign), decoded from the codes."""
        table = [(g, s) for g in self._gens for s in (1, -1)]
        return tuple(map(table.__getitem__, self._codes))

    def __len__(self) -> int:
        return len(self._codes)

    def __reduce__(self):
        return FreeWord, (self.rank, self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return FreeWord(self.rank, self.letters + other.letters)

    def __invert__(self) -> "FreeWord":
        return FreeWord(self.rank, tuple((i, -s) for i, s in reversed(self.letters)))

    def __pow__(self, n: int) -> "FreeWord":
        """w^n (the inverse's power for n < 0), reduced in one pass over |n| copies."""
        w = ~self if n < 0 else self
        return FreeWord(w.rank, w.letters * abs(n))

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
    back for any reduced word w.  Each distinct token is matched once, on
    its first occurrence, so the first bad token is the one reported; the
    rank itself is checked after every token has passed.  The checked,
    reduced codes are stored as they are, not checked again by
    FreeWord's constructor.
    """

    def check(token: str) -> Letter:
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"malformed token {token!r}")
        index = int(m.group(1))
        if index > rank:
            raise ValueError(f"generator index {index} out of range 1..{rank}")
        return index, -1 if m.group(2) else 1

    gens, codes = _Coder(check).reduced(text.split())
    word = FreeWord.__new__(FreeWord)
    Record.__init__(word, _positive(rank, "rank"), gens, codes)
    return word


def abelianization(w: FreeWord) -> dict[int, int]:
    """Exponent sum of each generator occurring in w (possibly 0), off its codes in one pass."""
    counts = Counter(w._codes)
    return {g: counts[2 * k] - counts[2 * k + 1] for k, g in enumerate(w._gens)}


def commutator(w1: FreeWord, w2: FreeWord) -> FreeWord:
    """[w1, w2] = w1 w2 w1^-1 w2^-1, reduced."""
    return w1 * w2 * ~w1 * ~w2
