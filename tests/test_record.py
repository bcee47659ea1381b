"""The immutable records: syntax-tree nodes, statements, reports and specs."""

from __future__ import annotations

import copy
import pickle

import pytest

from partrec.dsl import (
    Add,
    Div,
    Extract,
    IdentityStatement,
    IntLiteral,
    LebesguePartial,
    Mul,
    NamedFunction,
    Pochhammer,
    Pow,
    Sub,
    Subs,
    Theta,
    parse,
)
from partrec.functions import PartitionFunctionId as F
from partrec.oracle import ConstraintSpec, Copies, Distinctness, Overline, Parity
from partrec.record import Record
from partrec.report import Failure, VerificationReport
from partrec.series import ProductSpec

ONE, TWO = IntLiteral(1), IntLiteral(2)

# one of each record class, and its fields
RECORDS = [
    (IntLiteral(3), ("value",)),
    (Pochhammer(-1, 1, 2, 3), ("sign", "a", "b", "power")),
    (Theta("PENT"), ("family",)),
    (NamedFunction(F.P), ("fid",)),
    (Add(ONE, TWO), ("left", "right")),
    (Sub(ONE, TWO), ("left", "right")),
    (Mul(ONE, TWO), ("left", "right")),
    (Div(ONE, TWO), ("left", "right")),
    (Pow(ONE, 2), ("base", "exponent")),
    (Extract(ONE, 2, 1), ("child", "m", "r")),
    (Subs(ONE, -1, 2), ("child", "sign", "d")),
    (LebesguePartial(4), ("j_max",)),
    (IdentityStatement(ONE, TWO, 5, "1 == 2 within 5", 3), ("lhs", "rhs", "order", "source", "modulus")),
    (Failure(3, -7), ("n", "residual")),
    (
        VerificationReport("T1", 5, False, Failure(3, -7), 2, "q^3: lhs=0, rhs=7"),
        ("theorem", "n_max", "passed", "first_failure", "millis", "detail"),
    ),
    (ProductSpec.of((1, 1, 2, -1)), ("factors",)),
    (ConstraintSpec(Parity.ODD_ONLY), ("parity", "distinctness", "overline", "copies")),
]
IDS = [type(r).__name__ for r, _ in RECORDS]


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_records_are_immutable_values(record, fields):
    assert isinstance(record, Record) and type(record).__slots__ == fields
    twin = type(record)(*(getattr(record, f) for f in fields))
    assert twin == record and hash(twin) == hash(record)
    assert copy.copy(record) == record and pickle.loads(pickle.dumps(record)) == record
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1  # type: ignore[attr-defined]
    assert record != object() and not hasattr(record, "__dict__")


@pytest.mark.parametrize(
    "one, other",
    [
        (Mul(ONE, TWO), Div(ONE, TWO)),
        (Add(ONE, TWO), Sub(ONE, TWO)),
        (Mul(ONE, TWO), Mul(TWO, ONE)),
        (IntLiteral(2), LebesguePartial(2)),
        (Pow(ONE, 2), Pochhammer(1, 1, 1, 2)),
        (IdentityStatement(ONE, TWO, 5), IdentityStatement(ONE, TWO, 5, modulus=2)),
        (Failure(1, 2), Failure(2, 1)),
    ],
)
def test_equality_includes_the_type(one, other):
    assert one != other and not one == other


def test_a_statement_compares_and_hashes_without_its_source():
    [stmt] = parse("p * (pd) == op within 10")
    bare = IdentityStatement(stmt.lhs, stmt.rhs, 10)
    assert stmt.source == "p * (pd) == op within 10" and bare.source == ""
    assert stmt == bare and hash(stmt) == hash(bare)
    assert stmt.label() == "p * (pd) == op within 10" and bare.label() == "p * pd == op within 10"


def test_record_defaults():
    assert Pochhammer(1, 1, 2).power == 1 and Pochhammer(1, 1, 2) == Pochhammer(1, 1, 2, 1)
    stmt = IdentityStatement(ONE, TWO, 5)
    assert stmt.source == "" and stmt.modulus is None
    assert IdentityStatement(ONE, TWO, 5, modulus=3).modulus == 3
    assert VerificationReport("T1", 5, True, None, 0).detail is None
    spec = ConstraintSpec()
    assert (spec.parity, spec.distinctness, spec.overline, spec.copies) == (
        Parity.ANY,
        Distinctness.NONE,
        Overline.NONE,
        Copies.SINGLE,
    )
    assert ConstraintSpec(overline=Overline.OVERPARTITION) == ConstraintSpec(
        Parity.ANY, Distinctness.NONE, Overline.OVERPARTITION, Copies.SINGLE
    )


def test_record_constructor_errors():
    with pytest.raises(TypeError):
        Mul(ONE)  # a field without a default is missing
    with pytest.raises(TypeError):
        Mul(ONE, TWO, ONE)  # too many fields
    with pytest.raises(TypeError):
        Pochhammer(1, 1, 2, exponent=2)  # not a field
    with pytest.raises(TypeError):
        Pochhammer(1, 1, 2, sign=1)  # given twice
    with pytest.raises(ValueError):
        ProductSpec(((1, 1, 1, 0),))  # a spec validates its factors however it is built


def test_record_repr_names_its_fields():
    assert repr(Mul(ONE, Pow(NamedFunction(F.P), 2))) == (
        "Mul(left=IntLiteral(value=1), right=Pow(base=NamedFunction(fid=<PartitionFunctionId.P: 'p'>), exponent=2))"
    )
    assert repr(Failure(3, -7)) == "Failure(n=3, residual=-7)"
