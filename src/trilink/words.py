"""Freely reduced words in a finitely generated free group.

A word is a sequence of letters (generator index, sign) with indices in
1..rank and sign +1 or -1, both exact integers.  Letters become integer
codes, 2k for the k-th distinct generator met and 2k + 1 for its
inverse, so a letter and its inverse are the codes whose xor is 1.
There are two ways from letters to codes:

- The coder, a dict from each distinct letter or token to its code,
  takes the constructor's letters and any text that the bulk read
  refuses.  It checks a key on its first miss, so each distinct letter
  or token is checked once, in input order, and the first bad one is
  the one reported.  It is the only route that raises.
- The bulk read takes parse_word's text when it is canonical: tokens
  x<d> and x<d>^-1, one digit 1 <= d <= rank each, separated by single
  spaces, the form str gives every word over x1 ... x9.  It checks and
  codes the whole text in a fixed number of C-level byte passes, with
  no Python step per token (_bulk_coded).

Either way, parse_word stores the checked codes with one
Record.__init__ call, so no letter is checked twice.

One reducer (_reduced), fed by both routes and so by products, inverses
and powers, cancels adjacent inverse pairs in the codes with a stack of
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

    def coded(self, keys) -> tuple[list[int], list[int]]:
        """(codes, gens) of keys, checked: gens[k] is the generator of codes 2k and 2k + 1."""
        return list(map(self.__getitem__, keys)), list(self.slot)


def _reduced(codes, gens: list[int]) -> tuple[tuple[int, ...], bytes | tuple[int, ...]]:
    """(gens, codes) of the codes, with adjacent inverse pairs cancelled.

    codes is a list of ints or, from the bulk read, bytes; gens[k] is
    the generator of codes 2k and 2k + 1, numbered in order of first
    appearance in the codes.
    """
    packed = bytes(codes) if 2 * len(gens) <= 0x100 else None
    first = 0 if packed is None else _first_pair(packed)
    if first < 0:  # already reduced: the input met the generators in canonical order
        return tuple(gens), packed
    kept = list(islice(codes, first))
    for code in islice(codes, first, None):
        if kept and kept[-1] == code ^ 1:
            kept.pop()
        else:
            kept.append(code)
    return _canonical(kept, gens)


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

        Record.__init__(self, rank, *_reduced(*_Coder(check).coded(letters)))

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


_DIGITS = b"123456789"
_INVERSE = b"!"  # the bulk read's cell marker for "^-1 "; a plain token's marker is its space
_SIGN_BIT = bytes.maketrans(_INVERSE + b" ", b"\1\0")  # a marker -> its sign bit


def _bulk_coded(text, rank) -> tuple[bytes, list[int]] | None:
    """(codes, gens) of canonical one-digit text, or None for any other text.

    With one space appended, and each "^-1 " replaced by the marker "!",
    canonical text is a row of 3-byte cells: "x", a digit, and "!" or
    " ".  So the text is canonical iff it holds no "!" of its own, its
    cells come out whole, and the three stride slices hold only "x",
    digits 1..rank and markers.  Any other byte, whitespace other than
    single spaces between tokens, a multi-digit index, the digit 0 or an
    index above the rank fails one of these.  The generators are
    numbered by the first find of each digit, and the codes are the sum
    of the digit slice translated to 2k and the marker slice translated
    to the sign bit, added as two big integers (no carries: 2k + 1 < 18).
    Refuses, never raises.
    """
    if type(rank) is not int or rank < 1 or type(text) is not str or not text.isascii():
        return None
    raw = text.encode()
    if _INVERSE in raw:
        return None
    cells = (raw + b" ").replace(b"^-1 ", _INVERSE)
    digits, marks = cells[1::3], cells[2::3]
    if (len(cells) % 3 or cells[0::3].translate(None, b"x")
            or digits.translate(None, _DIGITS[:rank]) or marks.translate(None, _INVERSE + b" ")):
        return None
    firsts = sorted((at, d) for d in _DIGITS[:rank] if (at := digits.find(d)) >= 0)
    order = bytes(d for _, d in firsts)  # the digits in order of first appearance
    to_code = bytes.maketrans(order, bytes(range(0, 2 * len(order), 2)))
    codes = (int.from_bytes(digits.translate(to_code), "big")
             + int.from_bytes(marks.translate(_SIGN_BIT), "big")).to_bytes(len(digits), "big")
    return codes, [d - ord("0") for d in order]


def parse_word(text: str, rank: int) -> FreeWord:
    """Parse whitespace-separated tokens ``x<k>`` / ``x<k>^-1``.

    Empty text is the empty word.  Round trip: parsing str(w) gives w
    back for any reduced word w.  Canonical one-digit text (see
    _bulk_coded) is checked and coded in bulk byte passes; any other
    text is split at whitespace and each distinct token is matched once,
    on its first occurrence, so the first bad token is the one reported;
    the rank itself is checked after every token has passed.  Either way
    the codes go through the one reducer, and the checked, reduced codes
    are stored as they are, not checked again by FreeWord's constructor.
    """

    def check(token: str) -> Letter:
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"malformed token {token!r}")
        index = int(m.group(1))
        if index > rank:
            raise ValueError(f"generator index {index} out of range 1..{rank}")
        return index, -1 if m.group(2) else 1

    coded = _bulk_coded(text, rank) or _Coder(check).coded(text.split())
    word = FreeWord.__new__(FreeWord)
    Record.__init__(word, _positive(rank, "rank"), *_reduced(*coded))
    return word


def abelianization(w: FreeWord) -> dict[int, int]:
    """Exponent sum of each generator occurring in w (possibly 0), off its codes in one pass."""
    counts = Counter(w._codes)
    return {g: counts[2 * k] - counts[2 * k + 1] for k, g in enumerate(w._gens)}


def commutator(w1: FreeWord, w2: FreeWord) -> FreeWord:
    """[w1, w2] = w1 w2 w1^-1 w2^-1, reduced."""
    return w1 * w2 * ~w1 * ~w2
