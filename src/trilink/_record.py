"""Immutable value records without the import cost of ``dataclasses``.

A record's fields are its class's ``__slots__``, in order.  Records
compare and hash by the tuple of their fields, only against records of
the same type, print in the dataclass format ``Name(field=value, ...)``,
refuse assignment and deletion, and rebuild themselves through the
constructor for ``copy``, ``deepcopy`` and ``pickle``.  A subclass that
checks or normalizes its fields writes its own ``__init__`` and stores
them with one ``Record.__init__`` call, the one way a field is stored.
A record that stores a normal form of its input instead of the input
itself defines ``__reduce__`` to rebuild through the constructor from
that input, which it reads back from the normal form.

Every matrix or series a caller hands a constructor goes through
``_int_rows`` first: each entry through ``operator.index``, so a float
or a string raises TypeError, and the rows are stored as tuples;
``_check_3x3`` adds the shape rule of every 3x3 matrix.
"""

from __future__ import annotations

from operator import index


def _int_rows(rows) -> tuple[tuple[int, ...], ...]:
    """rows as a tuple of tuples of exact ints (operator.index on each entry)."""
    return tuple([tuple(map(index, row)) for row in rows])


def _check_3x3(rows, what: str) -> tuple[tuple[int, int, int], ...]:
    """_int_rows of a 3x3 matrix; ValueError naming what for any other shape."""
    rows = _int_rows(rows)
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError(f"{what} must be 3x3")
    return rows


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            rest = names[len(args):]
            if kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}; "
                                f"got {len(args)} by position and {', '.join(kwargs)} by name")
            args += tuple(map(kwargs.__getitem__, rest))
        elif len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}; "
                            f"got {len(args)} by position")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
