"""The value records behave as the frozen dataclasses they replace, and importing the
package loads neither ``json`` nor ``csv``."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import tqeuler
from tqeuler import cli, formulas, qkit, registry
from tqeuler.formulas import SpecializationKey
from tqeuler.qkit import QSymbolSpec
from tqeuler.registry import Bounds, Case, RegistryConfigError, VerificationReport

RECORDS = [
    (QSymbolSpec, (1, 1, 2)),
    (QSymbolSpec, (-1, -3, 0)),
    (SpecializationKey, (-1, 4)),
    (Bounds, (8, 6, 4)),
    (Case, ("tk-closed", {"k": 3}, "pass", 1234, None)),
    (Case, ("tk-closed", {"k": 3}, "fail", 5, "lhs = 1 ; rhs = 2")),
]
IDS = ["spec", "spec-empty", "key", "bounds", "case", "case-detail"]


def dataclass_twin(cls):
    """The frozen dataclass with the record's name and fields."""
    return dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)


def hash_or_raise(value):
    try:
        return hash(value)
    except TypeError:  # a Case holds its params dict
        return TypeError


@pytest.mark.parametrize("cls, args", RECORDS, ids=IDS)
def test_repr_and_hash_are_the_dataclass_ones(cls, args):
    record, twin = cls(*args), dataclass_twin(cls)(*args)
    assert repr(record) == repr(twin)
    assert hash_or_raise(record) == hash_or_raise(twin)


def test_repr_text():
    assert repr(QSymbolSpec(1, 1, 2)) == "QSymbolSpec(base_sign=1, base_power=1, length=2)"
    assert repr(SpecializationKey(1, -2)) == "SpecializationKey(eps=1, b=-2)"
    assert repr(Bounds(8, 6, 4)) == "Bounds(max_n=8, max_k=6, max_b=4)"
    assert repr(Case("x", {"n": 1}, "pass", 7)) == "Case(id='x', params={'n': 1}, status='pass', us=7, detail=None)"


@pytest.mark.parametrize("cls, args", RECORDS, ids=IDS)
def test_equal_only_to_a_record_of_its_class(cls, args):
    record = cls(*args)
    assert record == cls(*args) and not record != cls(*args)
    assert hash_or_raise(record) == hash_or_raise(cls(*args))
    subclass = type("Sub", (cls,), {"__slots__": ()})
    for other in (args, list(args), dataclass_twin(cls)(*args), subclass(*args)):
        assert record != other and other != record


def test_field_changes_break_equality():
    assert QSymbolSpec(1, 1, 2) != QSymbolSpec(-1, 1, 2) != QSymbolSpec(-1, 0, 2) != QSymbolSpec(-1, 0, 3)
    assert SpecializationKey(1, 2) != SpecializationKey(1, -2)
    assert Bounds(8, 6, 4) != Bounds(8, 6, 3)
    assert Case("x", {}, "pass", 1) != Case("x", {}, "pass", 2)


@pytest.mark.parametrize("cls, args", RECORDS, ids=IDS)
def test_assignment_raises(cls, args):
    record = cls(*args)
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, cls.__slots__[0])
    assert record == cls(*args)


@pytest.mark.parametrize("cls, args", RECORDS, ids=IDS)
def test_keyword_construction_copy_and_pickle(cls, args):
    record = cls(*args)
    assert cls(**dict(zip(cls.__slots__, args))) == record
    assert copy.copy(record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("call, error", [
    (lambda: QSymbolSpec(2, 0, 1), ValueError),
    (lambda: QSymbolSpec(0, 0, 1), ValueError),
    (lambda: QSymbolSpec(1, 0, -1), ValueError),
    (lambda: QSymbolSpec(1, 0.5, 1), TypeError),
    (lambda: QSymbolSpec(1, 0, 2.0), TypeError),
    # an integral float sign used to build a spec equal to the int one: warm, the cached symbol
    # came back, cold, the product raised TypeError
    (lambda: QSymbolSpec(1.0, 0, 1), TypeError),
    (lambda: QSymbolSpec(base_sign=1, base_power=None, length=1), TypeError),
    (lambda: SpecializationKey(0, 1), ValueError),
    (lambda: SpecializationKey(1, 1.5), TypeError),
    (lambda: Bounds(13, 0, 0), RegistryConfigError),
    (lambda: Bounds(0, -1, 0), RegistryConfigError),
    (lambda: Bounds(0, 0, 9), RegistryConfigError),
    (lambda: Bounds(1.0, 0, 0), TypeError),
    (lambda: Bounds(max_n=0, max_k=0), TypeError),
    (lambda: Case("x", {}, "pass"), TypeError),
])
def test_validation_errors_keep_their_types(call, error):
    with pytest.raises(error):
        call()


def test_bounds_error_names_the_first_bad_bound():
    with pytest.raises(RegistryConfigError, match="max_k must be in 0..10"):
        Bounds(3, 11, 9)
    assert issubclass(RegistryConfigError, ValueError)


def test_case():
    case = Case("x", {"n": 1}, "pass", 12_345_678)
    assert case.ms == 12_345 and case.detail is None
    assert case.to_json_obj() == {"id": "x", "params": {"n": 1}, "status": "pass", "ms": 12_345, "us": 12_345_678}
    assert Case("x", {}, "fail", 999, detail="d").to_json_obj()["detail"] == "d"


def test_verification_report():
    first, second = VerificationReport(), VerificationReport()
    assert first.cases == [] and first.cases is not second.cases
    assert first == second and repr(first) == "VerificationReport(cases=[])"
    assert first.summary == {"pass": 0, "fail": 0, "skipped": 0} and not first.failed
    with pytest.raises(TypeError):
        hash(first)
    case = Case("x", {}, "fail", 1)
    first.cases.append(case)  # mutable, as the dataclass was
    assert first != second and first == VerificationReport(cases=[case])
    second.cases = [case]
    assert first == second and first.failed
    assert first != [case] and repr(first) == f"VerificationReport(cases=[{case!r}])"


def test_only_identity_is_a_dataclass():
    classes = {f"{mod.__name__}.{name}" for mod in (tqeuler, qkit, formulas, registry, cli)
               for name, value in vars(mod).items() if isinstance(value, type) and dataclasses.is_dataclass(value)}
    assert classes == {"tqeuler.registry.Identity"}


def test_import_loads_neither_json_nor_csv():
    # a fresh interpreter: what the import adds to sys.modules, beyond what start-up loaded
    src = str(Path(tqeuler.__file__).resolve().parents[1])
    code = ("import sys; before = set(sys.modules); import tqeuler, tqeuler.cli; "
            "print(sorted({'json', 'csv'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"
