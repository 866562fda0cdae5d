"""The three workloads and their correctness gates, run inside one worker.

A worker runs exactly one operation in a fresh interpreter, so every
operation starts with the empty caches a CLI user starts with.  It prints
one JSON line: timings, the output digest, the gate verdict and, when
traced, the per-layer snapshot.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
from pathlib import Path

import tqeuler
from tqeuler import cli, formulas, registry

from speed import SETUP_REPEAT, OpClock, reference_s

HERE = Path(__file__).resolve().parent

LADDER_NS = range(13)  # 0 .. registry.HARD_MAX_N, ascending so every DP runs cold
DEFAULT_SUMMARY = {"pass": 1047, "fail": 0, "skipped": 5}
DEFAULT_CELLS = 1052
CLOSED_FORMS_SUMMARY = {"pass": 1092, "fail": 0, "skipped": 0}
# Identities whose two sides use no combinat enumerator.
CLOSED_FORM_IDS = (
    "euler-dp-vs-ballot",
    "euler-odd-pochhammer",
    "euler-josuat-verges",
    "touchard-riordan",
    "secant-closed",
    "secant-original",
    "tangent-closed",
    "tangent-original",
    "tk-closed",
    "tk-functional",
    "tk-special-pp",
    "tk-special-mp",
    "tk-special-pm",
    "tk-special-mm",
    "tk-prodinger",
    "tk-at-one",
    "tk-at-minus-one",
    "tk-at-q",
    "tk-minus-q",
    "tk-minus-inv-q",
    "alpha-recurrence",
    "beta-recurrence",
    "euler-inv-q",
    "euler-t-zero",
    "euler-t-minus-one",
    "euler-minus-q",
    "euler-minus-inv-q",
    "zeng-numeric",
    "gauss-pascal",
    "gauss-symmetry",
)


class GateError(Exception):
    """An operation finished but its output is wrong."""


def peak_rss_kb() -> int:
    """High-water resident set of this process.

    ``ru_maxrss`` is not used where avoidable: on Linux it carries the
    parent's resident set over fork and exec, so it would report the
    benchmark runner's memory instead of the program's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_ladder_digests() -> dict[int, str]:
    with open(HERE / "ladder_digests.json", encoding="utf-8") as fh:
        return {int(n): d for n, d in json.load(fh).items()}


def report_digest(report) -> str:
    """Digest of a verification report without its timing fields."""
    cells = [[c.id, c.params, c.status, c.detail] for c in report.cases]
    return sha256(json.dumps(cells, sort_keys=True))


def check_report(report, summary: dict, ids: set[str], cells: int | None) -> None:
    if report.summary != summary:
        raise GateError(f"summary {report.summary} != expected {summary}")
    seen = {c.id for c in report.cases}
    if seen != ids:
        raise GateError(f"identity set differs: {sorted(seen ^ ids)}")
    if cells is not None and len(report.cases) != cells:
        raise GateError(f"{len(report.cases)} cells != expected {cells}")


def check_ladder(outputs: list[str], digests: dict[int, str]) -> None:
    for n, text in zip(LADDER_NS, outputs):
        if sha256(text) != digests[n]:
            raise GateError(f"compute e --n {n}: output digest mismatch")


def op_verify_default(clock: OpClock) -> dict:
    ids = set(registry.identity_ids())
    with clock:
        report = tqeuler.run_verification()
    check_report(report, DEFAULT_SUMMARY, ids, DEFAULT_CELLS)
    return {"digest": report_digest(report)}


def op_closed_forms_max(clock: OpClock) -> dict:
    with clock:
        report = tqeuler.run_verification(
            max_n=registry.HARD_MAX_N,
            max_k=registry.HARD_MAX_K,
            max_b=registry.HARD_MAX_B,
            select=",".join(CLOSED_FORM_IDS),
        )
    check_report(report, CLOSED_FORMS_SUMMARY, set(CLOSED_FORM_IDS), None)
    return {"digest": report_digest(report)}


def op_euler_ladder(clock: OpClock) -> dict:
    outputs, steps_ms = [], []
    with clock:
        for n in LADDER_NS:
            buf = io.StringIO()
            t0 = clock.now()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["compute", "e", "--n", str(n), "--format", "json"])
            steps_ms.append((clock.now() - t0) * 1000)
            if code != 0:
                raise GateError(f"compute e --n {n} exited with {code}")
            outputs.append(buf.getvalue())
    check_ladder(outputs, load_ladder_digests())
    return {
        "digest": sha256("".join(sha256(o) for o in outputs)),
        "compute_e_n12_ms": steps_ms[-1],
    }


WORKLOADS = {
    "verify-default": op_verify_default,
    "euler-ladder": op_euler_ladder,
    "closed-forms-max": op_closed_forms_max,
}


def main(argv: list[str], setup_done_ns: int) -> int:
    workload, trace, root = argv[0], argv[1] == "1", Path(argv[2]).resolve()
    out: dict = {"setup_done_ns": setup_done_ns, "setup_ref_s": reference_s(SETUP_REPEAT)}
    src = root / "src" / "tqeuler"
    if Path(tqeuler.__file__).resolve().parent != src:
        out["error"] = f"tqeuler imported from {tqeuler.__file__}, not {src}"
    elif workload != "setup":
        out["cache_state"] = {
            "fresh_process": True,
            "tk_recurrence_cached_at_start": formulas.tk_recurrence.cache_info().currsize,
        }
        tracer = None
        if trace:
            from tracer import Tracer, layer_metrics

            ids = registry.identity_ids()
            tracer = Tracer()
            tracer.install(tqeuler)
        clock = OpClock(sample=not trace)
        try:
            out.update(WORKLOADS[workload](clock))
            out["op_s"] = clock.elapsed
            out["op_scale"] = clock.scale
        except GateError as exc:
            out["error"] = f"gate: {exc}"
        except Exception as exc:  # any crash in an operation is a failed operation
            out["error"] = f"exception: {type(exc).__name__}: {exc}"
        if tracer is not None:
            snap = tracer.snapshot()
            out["layers"] = layer_metrics(snap, ids)
        out["rss_kb"] = peak_rss_kb()
    print(json.dumps(out))
    return 0
