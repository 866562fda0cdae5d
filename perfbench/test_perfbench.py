"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ops
import run
import speed
from tracer import layer_metrics, layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def worker(workload: str, trace: bool, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(int(trace)), str(ROOT)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(ops.WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_names_match_the_tracer():
    ids = [m["name"][len("registry.id."):-2] for m in SPEC["per_layer"] if m["name"].startswith("registry.id.")]
    empty = {
        "functions": {}, "init_calls": 0, "mul_term_pairs": 0, "max_terms": 0, "enumerated": 0,
        "euler_hat_misses": 0, "gauss_distinct_args": 0, "tk_recurrence_cache": None,
    }
    produced = list(layer_metrics(empty, ids)) + ["trace.overhead_s"]
    assert sorted(produced) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(m["unit"] == layer_unit(m["name"]) for m in SPEC["per_layer"])
    import tqeuler

    assert ids == tqeuler.identity_ids()


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail([float(i) for i in range(20)])
    assert value == 9.0 and pct == 50.0
    assert sum(1 for i in range(20) if i > value) == 10


def test_clock_samples_the_reference_and_excludes_it():
    with speed.OpClock(sample=True) as clock:
        deadline = clock.now() + 0.35
        while clock.now() < deadline:
            pass
    assert len(clock.refs) >= 4 and clock.paused > 0
    assert 0.35 <= clock.elapsed < 0.35 + clock.paused
    assert clock.scale == speed.NOMINAL_S / (sum(clock.refs) / len(clock.refs))
    with speed.OpClock(sample=False) as plain:
        pass
    assert plain.refs == [] and plain.scale is None


def test_gates_reject_wrong_output():
    digests = ops.load_ladder_digests()
    assert sorted(digests) == list(ops.LADDER_NS)
    with pytest.raises(ops.GateError):
        ops.check_ladder(["[]\n"] * len(ops.LADDER_NS), digests)

    class Report:
        summary = {"pass": 1091, "fail": 1, "skipped": 0}
        cases = []

    with pytest.raises(ops.GateError, match="summary"):
        ops.check_report(Report(), ops.CLOSED_FORMS_SUMMARY, set(ops.CLOSED_FORM_IDS), None)


@pytest.mark.parametrize("workload", ["euler-ladder", "closed-forms-max"])
def test_traced_counts_repeat_and_outputs_match(workload):
    plain = worker(workload, False, 1)
    first, second = worker(workload, True, 2), worker(workload, True, 3)
    assert "error" not in plain and "error" not in first and "error" not in second
    assert plain["digest"] == first["digest"] == second["digest"]
    counts = [
        {k: v for k, v in r["layers"].items() if layer_unit(k) != "s"} for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["exactalg.mul.calls"] > 0 and counts[0]["exactalg.init.calls"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = bench("--workload", "euler-ladder", "--seed", "7", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert detail["python"] and detail["nproc"] and detail["failed_ops_ratio"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "euler-ladder", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
