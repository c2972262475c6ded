"""Value semantics shared by the package's immutable records.

Each record's fields are its ``__slots__``, in order.  Records compare
and hash by value, only against records of their own type, refuse
assignment and deletion, survive copy, deepcopy and pickle, and can be
built by position or by keyword.  MagnusSeries holds a dict, so it
compares by value but does not hash.  FreeWord is built from its rank
and letters but stores its rank and canonical codes, so its slots are
not its constructor's arguments and its hash is not that of
(rank, letters); every other behaviour is checked on those arguments.

Every matrix or series a constructor takes from a caller must be
integral: each entry goes through operator.index, so a float or a
string raises TypeError, and rows given as lists are stored as tuples.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import trilink
from trilink._record import Record
from trilink.infection import BandSumCounts, IntersectionProfile
from trilink.magnus import MagnusSeries
from trilink.nilpotent import CommutatorClass
from trilink.realization import GenusThreeParams, Ledger, LedgerDescription
from trilink.seifert import (
    GeneratorResult,
    GenusOneNormalization,
    MetabolizerBasis,
    MetabolizerVerdict,
    SeifertMatrix,
    enumerate_metabolizers,
    metabolizer_verdict,
    validate,
)
from trilink.words import FreeWord

_GENUS_ONE = validate([[2, 1], [0, -3]], "interleaved")
_PROFILE = ((1, 0, 2), (0, 1, 0), (-1, 0, 1))

# (record type, positional field values); each type appears once
RECORDS = [
    (FreeWord, (3, ((1, 1), (2, -1), (3, 1)))),
    (SeifertMatrix, (1, "interleaved", ((2, 1), (0, -3)))),
    (MetabolizerBasis, (((1, 0, 0, 0), (0, 0, 1, 0)),)),
    (GeneratorResult, (158, -158)),
    (GenusOneNormalization, (1, -1, 0, 0, 1, _GENUS_ONE)),
    (GenusThreeParams, (2, 3, 4, 5, 6, 7, 8, 9, 10)),
    (LedgerDescription, (2, 0, 1)),
    (Ledger, (-30, 60, 112, -6, 136, 2, LedgerDescription(2, 0, 1))),
    (IntersectionProfile, (_PROFILE,)),
    (BandSumCounts, (((1, 0, 2), (0, 1, 0), (0, 0, 1)), ((0, 0, 0), (0, 0, 0), (1, 0, 0)))),
    (MagnusSeries, (3, 2, {(): 1, (1, 2): 2, (2, 1): -2})),
]
# records whose last field has a default, and records with a repr of their own
DEFAULTED = READABLE = (FreeWord, MagnusSeries)


def _cases(records):
    return pytest.mark.parametrize("cls, args", records, ids=[cls.__name__ for cls, _ in records])


every_record = _cases(RECORDS)
hashable_records = _cases([r for r in RECORDS if r[0] is not MagnusSeries])


def _fields(cls) -> tuple[str, ...]:
    """The names of the constructor's arguments, which read back as attributes."""
    return ("rank", "letters") if cls is FreeWord else cls.__slots__


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in _fields(type(record)))


def _stored(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


def test_every_record_is_listed_once():
    assert len({cls for cls, _ in RECORDS}) == len(RECORDS) == 11
    assert all(issubclass(cls, Record) for cls, _ in RECORDS)


@every_record
def test_fields_are_the_slots_in_order(cls, args):
    record = cls(*args)
    assert _values(record) == args
    assert not hasattr(record, "__dict__")


@hashable_records
def test_equal_fields_give_equal_records_and_hashes(cls, args):
    a, b = cls(*args), cls(*copy.deepcopy(args))
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    if cls is not FreeWord:
        assert hash(a) == hash(args)


def test_equal_series_are_equal_and_unhashable():
    args = dict(RECORDS)[MagnusSeries]
    a, b = MagnusSeries(*args), MagnusSeries(*copy.deepcopy(args))
    assert a is not b
    assert a == b and not a != b
    assert a != MagnusSeries(3, 3, args[2]) and a != MagnusSeries(3, 2, {(): 1})
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


@every_record
def test_other_types_with_the_same_values_are_unequal(cls, args):
    twin_type = type(f"Twin{cls.__name__}", (Record,), {"__slots__": cls.__slots__})
    record = cls(*args)
    twin = twin_type(*_stored(record))
    assert _stored(twin) == _stored(record)
    assert record != twin and twin != record
    assert record != args and args != record
    assert record != _stored(record)


@every_record
def test_assignment_and_deletion_raise(cls, args):
    record = cls(*args)
    for name in (*cls.__slots__, *_fields(cls), "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record) == args


@every_record
def test_copy_deepcopy_and_pickle_round_trip(cls, args):
    record = cls(*args)
    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        *(pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert type(clone) is cls
        assert clone == record
        if cls is not MagnusSeries:
            assert hash(clone) == hash(record)


@every_record
def test_keyword_construction(cls, args):
    by_name = dict(zip(_fields(cls), args))
    assert cls(**by_name) == cls(*args)
    assert cls(*args[:1], **dict(list(by_name.items())[1:])) == cls(*args)


@every_record
def test_missing_and_unknown_fields_raise_type_error(cls, args):
    by_name = dict(zip(_fields(cls), args))
    with pytest.raises(TypeError):
        cls()
    if cls not in DEFAULTED:  # FreeWord(rank) is the empty word, MagnusSeries(rank, cap) zero
        with pytest.raises(TypeError):
            cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, 0)
    with pytest.raises(TypeError):
        cls(**by_name, extra=0)
    with pytest.raises(TypeError):
        cls(*args, **{_fields(cls)[0]: args[0]})


@_cases([r for r in RECORDS if r[0] not in READABLE])
def test_repr_names_every_field(cls, args):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, args))
    assert repr(cls(*args)) == f"{cls.__name__}({fields})"


def test_free_word_with_rank_alone_is_the_empty_word():
    w = FreeWord(3)
    assert w.letters == () and len(w) == 0
    assert w == FreeWord(3, ()) == FreeWord(rank=3)
    assert repr(w) == "FreeWord(rank=3, '')"


def test_free_word_stores_its_rank_and_canonical_codes_alone():
    # generators numbered in order of first appearance: x1 -> k = 0, x2 -> 1, x3 -> 2
    args = dict(RECORDS)[FreeWord]
    w = FreeWord(*args)
    assert FreeWord.__slots__ == ("rank", "_gens", "_codes")
    assert _stored(w) == (3, (1, 2, 3), b"\x00\x03\x04")
    assert w.__reduce__() == (FreeWord, args)  # pickles rebuild through the constructor
    assert hash(w) == hash(_stored(w))


def test_series_repr_shows_the_text_form():
    s = MagnusSeries(3, 2, {(): 1, (1, 2): 2, (2, 1): -2})
    assert repr(s) == "MagnusSeries(rank=3, cap=2, '1 + 2*a1 a2 - 2*a2 a1')"
    assert MagnusSeries(3, 2) == MagnusSeries(3, 2, {}) == MagnusSeries(rank=3, degree_cap=2)


def test_tuple_results_keep_their_fields_and_reprs():
    c = CommutatorClass(1, 0, -2)
    assert c == (1, 0, -2) and c._fields == ("n1", "n2", "n3")
    assert repr(c) == "CommutatorClass(n1=1, n2=0, n3=-2)"
    v = MetabolizerVerdict(form_vanishes=True, independent=True, primitive=False)
    assert repr(v) == "MetabolizerVerdict(form_vanishes=True, independent=True, primitive=False)"
    assert not v.is_metabolizer and v._replace(primitive=True).is_metabolizer
    for t in (c, v):
        assert not hasattr(t, "__dict__")
        assert pickle.loads(pickle.dumps(t)) == t


def _modules_after_cli_import(*flags: str) -> set[str]:
    """sys.modules of a fresh interpreter that has imported trilink.cli."""
    src = str(Path(trilink.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, *flags, "-c", "import sys, trilink.cli; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


def test_cli_import_leaves_out_dataclasses_and_inspect():
    modules = _modules_after_cli_import()
    assert "trilink.cli" in modules
    assert not {"dataclasses", "inspect"} & modules


def test_cli_import_without_site_leaves_out_typing_too():
    modules = _modules_after_cli_import("-S")
    assert "trilink.cli" in modules
    assert not {"dataclasses", "inspect", "typing", "random"} & modules


_ZERO_3X3 = ((0, 0, 0),) * 3

# (name, constructor from rows, integral rows it accepts)
ROW_TAKERS = [
    ("SeifertMatrix", lambda rows: SeifertMatrix(1, "interleaved", rows), ((2, 1), (0, -3))),
    ("MetabolizerBasis", MetabolizerBasis, ((1, 0, 0, 0), (0, 0, 1, 0))),
    ("IntersectionProfile", IntersectionProfile, _PROFILE),
    ("BandSumCounts.alpha", lambda rows: BandSumCounts(rows, _ZERO_3X3), ((1, 0, 2), (0, 1, 0), (0, 0, 1))),
    ("BandSumCounts.beta", lambda rows: BandSumCounts(_ZERO_3X3, rows), ((1, 0, 2), (0, 1, 0), (0, 0, 1))),
]
row_takers = pytest.mark.parametrize("build, rows", [t[1:] for t in ROW_TAKERS],
                                     ids=[t[0] for t in ROW_TAKERS])


def _with_first_entry(rows, value):
    return ((value, *rows[0][1:]), *rows[1:])


@row_takers
@pytest.mark.parametrize("convert", [float, str])
def test_float_or_string_entries_raise_type_error(build, rows, convert):
    build(rows)
    with pytest.raises(TypeError):
        build(_with_first_entry(rows, convert(rows[0][0])))


@row_takers
def test_rows_given_as_lists_are_stored_as_tuples(build, rows):
    # a tuple never equals a list, so equality shows the rows were stored as tuples
    from_lists = build([list(row) for row in rows])
    assert from_lists == build(rows) and hash(from_lists) == hash(build(rows))


def test_seifert_genus_goes_through_operator_index():
    rows = ((0, 1), (0, 0))
    m, one = SeifertMatrix(True, "interleaved", rows), SeifertMatrix(1, "interleaved", rows)
    assert type(m.genus) is int and m.genus == 1 and repr(m) == repr(one)
    assert m == one and hash(m) == hash(one)
    with pytest.raises(TypeError):
        SeifertMatrix(1.0, "interleaved", rows)


def test_series_coefficients_and_monomials_must_be_integral():
    assert MagnusSeries(3, 2, {(1, 2): True}).terms == {(1, 2): 1}
    for terms in ({(1, 2): 2.0}, {(1, 2): "2"}, {(1.0, 2): 1}, {"12": 1}):
        with pytest.raises(TypeError):
            MagnusSeries(3, 2, terms)


def test_non_lattice_input_is_refused_before_any_search():
    # a non-lattice column used to pass as an imprimitive one, and a float
    # entry used to reach the packed box scan and fail there
    with pytest.raises(TypeError):
        MetabolizerBasis(((0.5, 0.0),))
    with pytest.raises(TypeError):
        SeifertMatrix(1, "interleaved", ((0.5, 1), (0, 0)))
    m = validate([[0, 1], [0, 0]], "interleaved")
    assert not metabolizer_verdict(m, MetabolizerBasis(((2, 0),))).primitive
    assert len(enumerate_metabolizers(m, 1)) == 2
