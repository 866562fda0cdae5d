"""tqeuler benchmark: cold-process workloads with end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0

Every operation runs in a fresh interpreter (``perfbench/worker.py``), one
after the other (closed loop, one client, ``jobs=1``), so each starts with
empty caches, as every CLI invocation does.  The run keeps starting
operations until ``--seconds`` have passed.  ``--trace 0`` reports the
end-to-end metrics listed in ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics.

The operations are fixed by the workload.  The seed fixes the
``PYTHONHASHSEED`` of every child, the one input that differs between
fresh interpreters, so a seed reproduces a run's inputs exactly.

Standard output ends with two JSON lines: a detailed report (every metric
with its unit, median, tail percentile and sample count, plus Python
version, CPU count and commit), then the result line: ``correct``,
``attempted``, ``failed`` and the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed
from tracer import layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-default", "euler-ladder", "closed-forms-max")
SETUP_PROBES = 10
MIN_OPS = 3  # untraced operations per run, whatever --seconds is
BUDGET_S = 170.0  # the whole run, probes included, ends within this
ALIASES = {
    "verify-default": "verify_s",
    "euler-ladder": "ladder_s",
    "closed-forms-max": "closed_forms_s",
}


class FatalError(Exception):
    """The program cannot be run at all; no result is printed."""


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (pct, value)."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def summarize(samples: list[float], unit: str) -> dict:
    out = {
        "value": statistics.median(samples),
        "unit": unit,
        "samples": len(samples),
    }
    t = tail(samples)
    if t is not None:
        out["tail_pct"], out["tail"] = t
    return out


def read_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, workload: str, trace: bool) -> dict:
        """Run one worker; returns its report plus its set-up time."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        # bytecode is cached as for an installed package; the warm-up probe
        # writes it, so set-up time does not include compiling the sources
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONHASHSEED"] = str(self.rng.randrange(2**32))
        timeout = max(BUDGET_S - self.elapsed(), 1.0)
        cmd = [sys.executable, str(HERE / "worker.py"), workload, str(int(trace)), str(ROOT)]
        started_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            err = proc.stderr.strip().splitlines()
            return {"error": f"exit {proc.returncode}: {err[-1] if err else 'no output'}"}
        try:
            out = json.loads(lines[-1])
        except ValueError:
            return {"error": f"unreadable worker output: {lines[-1][:200]}"}
        # time.monotonic is one system-wide clock, so the child's stamp
        # taken after its imports is comparable with ours taken before spawn
        out["setup_s"] = (out["setup_done_ns"] - started_ns) / 1e9
        return out

    def setup_samples(self, probes: int) -> list[dict]:
        """Warm-up probe (compiles bytecode, discarded), then ``probes`` more."""
        samples = []
        for i in range(probes + 1):
            out = self.child("setup", False)
            if "error" in out:
                raise FatalError(f"cannot start the program: {out['error']}")
            if i:
                samples.append(out)
        return samples

    def operations(self, trace: bool) -> tuple[list[dict], list[dict]]:
        """Closed loop until --seconds have passed; returns (untraced, traced) reports."""
        plain, traced = [], []
        longest = 0.0
        while True:
            done = len(plain)
            if done >= MIN_OPS and self.elapsed() >= self.seconds:
                break
            if done >= 1 and self.elapsed() + longest > BUDGET_S:
                break
            t0 = self.elapsed()
            plain.append(self.child(self.workload, False))
            if trace:
                traced.append(self.child(self.workload, True))
                if self.elapsed() >= self.seconds:
                    break
            longest = max(longest, self.elapsed() - t0)
        return plain, traced


def mark_inconsistent(reports: list[dict]) -> None:
    """Fail every operation whose output differs from the most common one.

    Traced and untraced operations are compared too, so tracing that
    changes an output fails the run.
    """
    digests = Counter(r["digest"] for r in reports if "error" not in r)
    if len(digests) > 1:
        common = digests.most_common(1)[0][0]
        for r in reports:
            if "error" not in r and r["digest"] != common:
                r["error"] = "output differs from the other operations"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(runner: Runner, plain: list[dict]) -> dict[str, dict]:
    ok = [r for r in plain if "error" not in r]
    if not ok:
        return {}
    setup = runner.setup_samples(SETUP_PROBES) + ok
    op = [r["op_s"] * r["op_scale"] for r in ok]
    metrics = {
        "setup_s": summarize(
            [r["setup_s"] * speed.NOMINAL_S / r["setup_ref_s"] for r in setup], "s"
        ),
        "op_s": summarize(op, "s"),
        "peak_rss_mb": summarize([r["rss_kb"] / 1024 for r in ok], "MB"),
        ALIASES[runner.workload]: summarize(op, "s"),
        "raw.setup_s": summarize([r["setup_s"] for r in setup], "s"),
        "raw.op_s": summarize([r["op_s"] for r in ok], "s"),
        "raw.reference_s": summarize([speed.NOMINAL_S / r["op_scale"] for r in ok], "s"),
    }
    if runner.workload == "euler-ladder":
        metrics["compute_e_n12_ms"] = summarize(
            [r["compute_e_n12_ms"] * r["op_scale"] for r in ok], "ms"
        )
    return metrics


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, dict]:
    ok = [r for r in traced if "error" not in r]
    untraced = [r["op_s"] for r in plain if "error" not in r]
    if not ok or not untraced:
        return {}
    metrics = {
        name: summarize([r["layers"][name] for r in ok], layer_unit(name))
        for name in ok[0]["layers"]
    }
    overhead = statistics.median(r["op_s"] for r in ok) - statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "samples": len(ok)}
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be in 1..60")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        if not (ROOT / "src" / "tqeuler" / "__init__.py").is_file():
            raise FatalError(f"no tqeuler sources under {ROOT / 'src'}")
        runner = Runner(args.workload, args.seed, args.seconds)
        runner.setup_samples(0)  # warm-up: fails fast when the program cannot start
        plain, traced = runner.operations(bool(args.trace))
        reports = plain + traced
        mark_inconsistent(reports)
        if args.trace:
            metrics = per_layer(plain, traced)
            wanted = spec["per_layer"]
        else:
            metrics = end_to_end(runner, plain)
            wanted = spec["end_to_end"]
    except (FatalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    errors = [r["error"] for r in reports if "error" in r]
    failed = len(errors)
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in metrics]
    correct = not errors and not missing
    detail = {
        "benchmark": "tqeuler",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": runner.elapsed(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": read_commit(ROOT),
        "cache_state": "cold: every operation in a fresh interpreter",
        "tk_recurrence_cached_at_start": sorted(
            {r["cache_state"]["tk_recurrence_cached_at_start"] for r in reports if "cache_state" in r}
        ),
        "failed_ops_ratio": failed / len(reports),
        "errors": errors,
        "missing_metrics": missing,
        "metrics": metrics,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {
            n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
            for n in names
            if n in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
