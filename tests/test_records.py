"""The value records of the verification table behave as the frozen dataclasses they
replace; importing the package and computing a polynomial load neither ``json``, ``csv``,
the record base ``tqeuler._record`` nor the verification table with its ``dataclasses``
and ``inspect``, nor ``fractions`` with ``decimal``, which only ``verify`` loads; CSV
output, of ``compute`` or ``bench``, loads no ``csv``; the table's names load on first
use, and the zeng sample points are Fractions in the table."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tqeuler
from tqeuler import cli, formulas, qkit, registry
from tqeuler.formulas import tk_special
from tqeuler.qkit import pochhammer
from tqeuler.registry import Bounds, Case, RegistryConfigError, VerificationReport

RECORDS = [
    (Bounds, (8, 6, 4)),
    (Case, ("tk-closed", {"k": 3}, "pass", 1234, None)),
    (Case, ("tk-closed", {"k": 3}, "fail", 5, "lhs = 1 ; rhs = 2")),
]
IDS = ["bounds", "case", "case-detail"]


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
    # pochhammer and tk_special take plain ints now, and raise what the records they took
    # raised for the same fields
    (lambda: pochhammer(2, 0, 1), ValueError),
    (lambda: pochhammer(0, 0, 1), ValueError),
    (lambda: pochhammer(1, 0, -1), ValueError),
    (lambda: pochhammer(1, 0.5, 1), TypeError),
    (lambda: pochhammer(1, 0, 2.0), TypeError),
    # an integral float sign used to reach the cached symbol of the int one, warm
    (lambda: pochhammer(1.0, 0, 1), TypeError),
    (lambda: pochhammer(sign=1, power=None, length=1), TypeError),
    (lambda: tk_special(0, 1, 1), ValueError),
    (lambda: tk_special(1, 1.5, 1), TypeError),
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


class Index:
    """A stand-in for an int that has only ``__index__``."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


def test_bounds_store_the_indexed_ints():
    # Bounds used to check index(value) but keep the value: the first grid then raised
    # TypeError outside the per-cell try, and a bool bound kept its repr
    bounds = Bounds(True, Index(6), 4)
    assert repr(bounds) == "Bounds(max_n=1, max_k=6, max_b=4)"
    assert [type(value) for value in (bounds.max_n, bounds.max_k, bounds.max_b)] == [int, int, int]
    cells = [[(c.id, c.params, c.status, c.detail) for c in tqeuler.run_verification(*args).cases]
             for args in ((Index(1), 1, Index(1)), (1, 1, 1))]
    assert cells[0] == cells[1]


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


def fresh_run(code: str) -> str:
    """The last line ``code`` prints, run in a fresh interpreter on these sources."""
    src = str(Path(tqeuler.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    return out.splitlines()[-1]


HEAVY = ("json", "csv", "tqeuler._record", "tqeuler.registry", "dataclasses", "inspect",
         "argparse", "gettext", "locale", "shutil")


def added_heavy(statements: str, heavy: tuple[str, ...] = HEAVY) -> str:
    # only what the statements add to sys.modules: start-up (site, .pth files) may load more
    return fresh_run(f"import sys; before = set(sys.modules); {statements}; "
                     f"print(sorted(set({heavy!r}) & (set(sys.modules) - before)))")


def test_import_loads_neither_json_nor_csv():
    assert added_heavy("import tqeuler, tqeuler.cli") == "[]"


@pytest.mark.parametrize("target", ["e --n 5", "t --k 4", "d --n 5", "e-even --n 5", "e-odd --n 5"])
def test_compute_loads_no_verification_table(target):
    calls = "; ".join(f"tqeuler.cli.main({['compute', *target.split(), '--format', fmt]!r})"
                      for fmt in ("text", "json"))
    assert added_heavy(f"import tqeuler.cli; {calls}") == "[]"


def test_verify_loads_the_verification_table():
    run = "import tqeuler.cli; tqeuler.cli.main(['verify', '--max-n', '0', '--max-k', '0', '--max-b', '0'])"
    assert "'tqeuler.registry'" in added_heavy(run)


def test_only_verify_loads_fractions_and_decimal():
    rational = ("fractions", "decimal")
    computes = "; ".join(f"tqeuler.cli.main({['compute', *target.split()]!r})"
                         for target in ["e --n 5", "t --k 4", "d --n 5", "e-even --n 5", "e-odd --n 5"])
    assert added_heavy(f"import tqeuler, tqeuler.cli; {computes}", rational) == "[]"
    run = "import tqeuler.cli; tqeuler.cli.main(['verify', '--max-n', '0', '--max-k', '0', '--max-b', '0'])"
    assert added_heavy(run, rational) == "['decimal', 'fractions']"


def test_sample_points_are_fractions_in_the_registry():
    points = registry.ZENG_SAMPLE_POINTS
    assert points == ((2, Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 2)), (3, 2), (-2, Fraction(1, 3)),
                      (Fraction(5, 7), Fraction(2, 5)), (Fraction(1, 2), 3))
    assert all(type(x) is Fraction for point in points for x in point)
    assert not hasattr(formulas, "ZENG_SAMPLE_POINTS") and "__getattr__" not in vars(formulas)
    # so importing formulas and computing still load no fractions
    assert added_heavy("import tqeuler.formulas, tqeuler.cli; tqeuler.cli.main(['compute', 't', '--k', '3'])",
                       ("fractions", "decimal")) == "[]"


@pytest.mark.parametrize("argv", [["compute", "t", "--k", "2", "--format", "csv"], ["bench", "--max-n", "1"]])
def test_csv_output_loads_no_csv_module(argv):
    assert added_heavy(f"import tqeuler.cli; tqeuler.cli.main({argv!r})", ("csv",)) == "[]"


LAZY = ("run_verification", "identity_ids", "VerificationReport")


@pytest.mark.parametrize("name", LAZY)
def test_lazy_name_is_the_registry_object(name):
    assert getattr(tqeuler, name) is getattr(tqeuler.registry, name)


def test_lazy_names_import_in_a_fresh_interpreter():
    code = ("from tqeuler import run_verification, identity_ids, VerificationReport, registry; "
            "print(run_verification is registry.run_verification and identity_ids is registry.identity_ids"
            " and VerificationReport is registry.VerificationReport)")
    assert fresh_run(code) == "True"


def test_lazy_names_in_dir_and_star_import():
    names = {*LAZY, "registry"}
    assert names <= set(dir(tqeuler))
    namespace = {}
    exec("from tqeuler import *", namespace)
    assert all(namespace[name] is getattr(tqeuler, name) for name in names)
    assert {"cfrac", "exactalg", "clear_caches", "euler_hat", "LaurentPoly"} <= set(namespace)


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'tqeuler' has no attribute 'no_such_name'"):
        tqeuler.no_such_name


@pytest.mark.parametrize("name", ["HARD_MAX_N", "HARD_MAX_K", "HARD_MAX_B", "DYCK_ORACLE_MAX_N"])
def test_caps_are_re_exported_from_formulas(name):
    assert name in registry.__all__
    assert getattr(registry, name) is getattr(formulas, name)


def test_lazy_name_follows_a_rebound_registry_attribute(monkeypatch):
    # the benchmark tracer and tests/mutation_sweep.py rebind module attributes
    def stand_in(**kwargs):
        return "stand-in"

    monkeypatch.setattr(registry, "run_verification", stand_in)
    assert tqeuler.run_verification is stand_in
