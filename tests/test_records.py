"""The frozen value types: construction, immutability, equality and repr.

Every frozen value of the package is a `report.Record`: its fields are
the parameters of its own `__init__`, and it compares, hashes and prints
by them.  The pinned reprs are the ones the package printed when these
types were frozen dataclasses.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import verlinde
from conftest import load
from verlinde import formats, surfaces
from verlinde.categories import _Corner
from verlinde.formats import Document
from verlinde.fusion import FusionRing, fibonacci_ring
from verlinde.report import FrozenInstanceError, Record, Report
from verlinde.surfaces import (BlockSummary, ColouredSurface, ModularReport,
                               SurfaceEntry, Twist, TwistData)
from verlinde.tqft import (Algebra, CobordismWord, FrobeniusAlgebra,
                           WordTensor)

FIB_TABLE = (((1, 0), (0, 1)), ((0, 1), (1, 1)))
Z2_PLANES = (((1, 0), (0, 1)), ((0, 1), (1, 0)))
AXIOMS = Report("fusion axioms")
BLOCK = BlockSummary((0, 1), 0, True, 2)
ENTRY = SurfaceEntry("torus", ColouredSurface(1), 2, (2,))
WORD = CobordismWord((("unit",), ("counit",)))

# class, positional arguments and the field names they fill, in order
RECORDS = [
    (FusionRing, ((0, 1), (0,), FIB_TABLE, ("1", "tau")),
     ("dual", "unit", "table", "names")),
    (ColouredSurface, (2, (0, 1)), ("genus", "boundary")),
    (Twist, (None, 3, 1), ("rational", "order", "exponent")),
    (TwistData, ((Twist(Fraction(-1)), Twist(None, 5, 2)),), ("values",)),
    (BlockSummary, ((0, 1), 0, True, 2),
     ("labels", "unit_component", "nontrivial", "torus_dim")),
    (SurfaceEntry, ("torus", ColouredSurface(1), 2, (2,)),
     ("name", "surface", "total", "per_block")),
    (ModularReport, (2, 1, (BLOCK,), 1, 2, (ENTRY,), None, AXIOMS),
     ("rank", "r", "blocks", "functor_count", "torus_dim", "surfaces",
      "twist_report", "axiom_report")),
    (Algebra, (("1", "g"), (Z2_PLANES, 1), (Fraction(1), Fraction(0))),
     ("names", "mult", "unit")),
    (FrobeniusAlgebra, (("1", "g"), (Z2_PLANES, 1),
                        (Fraction(1), Fraction(0)),
                        (Fraction(1), Fraction(0))),
     ("names", "mult", "unit", "counit")),
    (CobordismWord, ((("unit",), ("comult",), ("mult",), ("counit",)),),
     ("layers",)),
    (WordTensor, (1, 1, (((0, 0), Fraction(1, 2)),)),
     ("inputs", "outputs", "entries")),
    (Document, ("word", WORD, "x.word"), ("kind", "payload", "source")),
    (_Corner, ("x", "y", (), 1, (), 0),
     ("src", "dst", "rows", "den", "pivots", "start")),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=IDS)
def test_a_record_is_made_by_position_or_keyword_alike(cls, args, fields):
    assert issubclass(cls, Record)
    assert cls._fields == fields
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert tuple(getattr(by_keyword, f) for f in fields) == args


def test_defaults_are_kept():
    ring = FusionRing((0, 1), (0,), FIB_TABLE)
    assert ring.names == ("0", "1")
    assert ring == FusionRing((0, 1), (0,), FIB_TABLE, names=())
    assert ColouredSurface(3).boundary == ()
    assert ColouredSurface(3) == ColouredSurface(genus=3, boundary=())
    assert (Twist().rational, Twist().order, Twist().exponent) == (None, 0, 0)
    assert Document("word", WORD).source == "<input>"
    assert Document(kind="word", payload=WORD) == Document(
        "word", WORD, "<input>")


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=IDS)
def test_no_attribute_of_a_record_can_be_assigned_or_deleted(
        cls, args, fields):
    record = cls(*args)
    for name in (*fields, "handle", "extra", "_fields"):
        with pytest.raises(FrozenInstanceError,
                           match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError,
                           match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert issubclass(FrozenInstanceError, AttributeError)
    assert tuple(getattr(record, f) for f in fields) == cls(*args)._values()


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=IDS)
def test_equal_records_hash_alike_and_each_field_counts(cls, args, fields):
    record = cls(*args)
    assert record == cls(*args) and not record != cls(*args)
    assert hash(record) == hash(cls(*args))
    # the hash a frozen dataclass gave: that of the tuple of its fields
    assert hash(record) == hash(tuple(getattr(record, f) for f in fields))
    assert record != object() and record != args
    # a record differs from one of another class with the same fields
    other = type(cls.__name__, (cls,), {})(*args)
    assert record != other and other != record


def test_a_field_that_differs_breaks_equality():
    assert ColouredSurface(2, (0, 1)) != ColouredSurface(2, (1, 0))
    assert Twist(None, 3, 1) != Twist(None, 3, 2)
    assert Document("word", WORD) != Document("word", WORD, "x.word")
    assert CobordismWord([["unit"]]) != CobordismWord([["counit"]])
    assert fibonacci_ring() != FusionRing((0, 1), (0,), FIB_TABLE)


def test_an_algebra_never_equals_a_frobenius_algebra_with_its_fields():
    args = (("1", "g"), (Z2_PLANES, 1), (1, 0))
    algebra, frobenius = Algebra(*args), FrobeniusAlgebra(*args, (1, 0))
    assert (algebra.names, algebra.mult, algebra.unit) == (
        frobenius.names, frobenius.mult, frobenius.unit)
    assert algebra != frobenius and frobenius != algebra
    assert not algebra == frobenius
    assert Algebra._fields == ("names", "mult", "unit")
    assert FrobeniusAlgebra._fields == ("names", "mult", "unit", "counit")


def test_the_handle_and_cached_values_stay_out_of_equality_and_repr():
    ring = fibonacci_ring()
    assert ring.handle == (2, 1)
    assert "handle" not in ring._fields and "handle" not in repr(ring)
    ring.unit_vector(), ring._colour_operators
    assert ring == fibonacci_ring() and hash(ring) == hash(fibonacci_ring())
    assert repr(ring) == repr(fibonacci_ring())
    algebra = load("mat2.algebra")
    algebra._handle
    assert "_derived" in vars(algebra)
    assert algebra == load("mat2.algebra")
    assert repr(algebra) == repr(load("mat2.algebra"))


def test_construction_checks_are_kept():
    with pytest.raises(ValueError, match="negative genus -1"):
        ColouredSurface(-1)
    assert ColouredSurface(1, [2, 0]).boundary == (2, 0)
    with pytest.raises(ValueError, match="need one name per label"):
        FusionRing((0, 1), (0,), FIB_TABLE, ("1",))
    with pytest.raises(ValueError, match="counit vector length mismatch"):
        FrobeniusAlgebra(("1", "g"), (Z2_PLANES, 1), (1, 0), (1,))
    with pytest.raises(ValueError, match="unit vector length mismatch"):
        FrobeniusAlgebra(("1", "g"), (Z2_PLANES, 1), (1,), (1, 0))
    assert CobordismWord([["unit"], ["counit"]]).layers == WORD.layers
    assert Algebra(("1",), ((((2,),),), 2), (1,)).mult == ((((1,),),), 1)


PINNED_REPRS = {
    "fibonacci_ring": (
        lambda: fibonacci_ring(),
        "FusionRing(dual=(0, 1), unit=(0,), table=(((1, 0), (0, 1)), "
        "((0, 1), (1, 1))), names=('1', 'tau'))"),
    "coloured_surface": (
        lambda: ColouredSurface(2, (0, 1)),
        "ColouredSurface(genus=2, boundary=(0, 1))"),
    "root_of_unity": (
        lambda: Twist.root_of_unity(3, 1),
        "Twist(rational=None, order=3, exponent=1)"),
    "twist_data": (
        lambda: TwistData((Twist.one(), Twist.root_of_unity(5, 2))),
        "TwistData(values=(Twist(rational=Fraction(1, 1), order=0, "
        "exponent=0), Twist(rational=None, order=5, exponent=2)))"),
    "modular_report": (
        lambda: surfaces.modular_report(
            fibonacci_ring(), surfaces={"torus": ColouredSurface(1)}),
        "ModularReport(rank=2, r=1, blocks=(BlockSummary(labels=(0, 1), "
        "unit_component=0, nontrivial=True, torus_dim=2),), "
        "functor_count=1, torus_dim=2, surfaces=(SurfaceEntry("
        "name='torus', surface=ColouredSurface(genus=1, boundary=()), "
        "total=2, per_block=(2,)),), twist_report=None, "
        "axiom_report=Report('fusion axioms', ok))"),
    "frobenius_algebra": (
        lambda: load("z2group.algebra"),
        "FrobeniusAlgebra(names=('1', 'g'), mult=((((1, 0), (0, 1)), "
        "((0, 1), (1, 0))), 1), unit=(Fraction(1, 1), Fraction(0, 1)), "
        "counit=(Fraction(1, 1), Fraction(0, 1)))"),
    "cobordism_word": (
        lambda: CobordismWord([["unit"], ["comult"], ["mult"], ["counit"]]),
        "CobordismWord(layers=(('unit',), ('comult',), ('mult',), "
        "('counit',)))"),
    "word_tensor": (
        lambda: WordTensor(1, 1, (((0, 0), Fraction(1, 2)),)),
        "WordTensor(inputs=1, outputs=1, entries=(((0, 0), "
        "Fraction(1, 2)),))"),
    "document": (
        lambda: Document(kind="word", payload=WORD, source="x.word"),
        "Document(kind='word', payload=CobordismWord(layers=(('unit',), "
        "('counit',))), source='x.word')"),
    "parsed_document": (
        lambda: formats.parse("word", "unit\ncounit\n"),
        "Document(kind='word', payload=CobordismWord(layers=(('unit',), "
        "('counit',))), source='<input>')"),
    "algebra": (
        lambda: Algebra(names=("1",), mult=((((2,),),), 2), unit=(1,)),
        "Algebra(names=('1',), mult=((((1,),),), 1), "
        "unit=(Fraction(1, 1),))"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPRS))
def test_reprs_are_pinned(name):
    build, text = PINNED_REPRS[name]
    assert repr(build()) == text


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since this one has loaded both; -S keeps site
    # packages' start-up hooks out of the count
    src = Path(verlinde.__file__).resolve().parents[1]
    code = ("import sys, verlinde.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
