"""Command-line surface: compute tables, run the verification matrix,
benchmark the expansion routes, and emit machine-readable reports.

Exit codes: 0 on success, 1 when verification finds a failing identity,
2 on invalid parameters or configuration.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
import time

from . import cfrac, clear_caches, combinat, formulas, qkit
from .exactalg import ONE_MINUS_Q, LaurentPoly
from .formulas import DYCK_ORACLE_MAX_N, HARD_MAX_K, HARD_MAX_N


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _render_poly(poly: LaurentPoly, fmt: str) -> str:
    if fmt == "text":
        return poly.render()
    if fmt == "json":
        return poly.json_text()
    import csv  # here and in cmd_bench, not at module level: only CSV output needs it

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["et", "eq", "c"])
    writer.writerows((et, eq, c) for (et, eq), c in poly.sorted_terms())
    return buf.getvalue().rstrip("\n")


def cmd_compute(args: argparse.Namespace) -> int:
    target = args.target
    if args.normalized and target not in ("e", "d"):
        return _fail(f"--normalized applies to targets 'e' and 'd' only, not {target!r}")
    if target == "t":
        if args.k is None:
            return _fail("target 't' requires --k")
        if not (0 <= args.k <= HARD_MAX_K):
            return _fail(f"--k must be in 0..{HARD_MAX_K}")
        poly = formulas.tk_recurrence(args.k)
    else:
        if args.n is None:
            return _fail(f"target {target!r} requires --n")
        if not (0 <= args.n <= HARD_MAX_N):
            return _fail(f"--n must be in 0..{HARD_MAX_N}")
        n = args.n
        if target == "e":
            # E_n(t,q) itself is rational; the CLI always prints the
            # polynomial normal form (1-q)^(2n) E_n(t,q).
            poly = cfrac.euler_hat(n)
        elif target == "d":
            poly = cfrac.dn_hat(n)
            if not args.normalized:
                poly = poly.divide_exact(ONE_MINUS_Q**n)
        elif target == "e-even":
            poly = cfrac.en_even_q(n)
        elif target == "e-odd":
            poly = cfrac.en_odd_q(n)
        else:  # pragma: no cover - argparse restricts choices
            return _fail(f"unknown target {target!r}")
    print(_render_poly(poly, args.format))
    return 0


def _unwritable(path: str) -> bool:
    """Whether ``path`` cannot take a report, found without creating or truncating it."""
    if not path:
        return True
    if os.path.exists(path):
        return os.path.isdir(path) or not os.access(path, os.W_OK)
    parent = os.path.dirname(path) or "."
    return not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK))


def cmd_verify(args: argparse.Namespace) -> int:
    from . import registry  # here, not at module level: only verify reads the table

    try:
        registry.Bounds(args.max_n, args.max_k, args.max_b)
        # checked before the matrix runs; the write below still reports any OSError
        if args.json is not None and _unwritable(args.json):
            return _fail(f"cannot write --json file: {args.json!r} is not a writable file path")
        report = registry.run_verification(
            max_n=args.max_n,
            max_k=args.max_k,
            max_b=args.max_b,
            select=args.select,
        )
    except registry.RegistryConfigError as exc:
        return _fail(str(exc))
    if args.json is not None:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report.to_json_text())
        except OSError as exc:
            return _fail(f"cannot write --json file: {exc}")
    if args.format == "json":
        sys.stdout.write(report.to_json_text())
    else:
        sys.stdout.write(report.render_text())
    return 1 if report.failed else 0


def _bench_methods(n: int):
    """``(name, route)`` per bench row; each lambda looks its function up when it runs."""
    return [
        ("moment-dp", lambda: cfrac.euler_hat(n)),
        ("ballot-form", lambda: formulas.euler_hat_ballot(n)),
        ("odd-poch-sum", lambda: formulas.euler_hat_odd_pochhammer(n)),
        ("dyck-brute", (lambda: combinat.dyck_weight_sum(n, qkit.euler_up, qkit.euler_down))
         if n <= DYCK_ORACLE_MAX_N else None),
    ]


def cmd_bench(args: argparse.Namespace) -> int:
    if not (0 <= args.max_n <= HARD_MAX_N):
        return _fail(f"--max-n must be in 0..{HARD_MAX_N}")
    import csv

    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "method", "ms", "terms"])
    for n in range(args.max_n + 1):
        for name, fn in _bench_methods(n):
            if fn is None:
                writer.writerow([n, name, "cutoff", ""])
                continue
            clear_caches()  # every row runs cold
            start = time.perf_counter()
            result = fn()
            ms = int((time.perf_counter() - start) * 1000)
            writer.writerow([n, name, ms, len(result)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqeuler",
        description="Exact computation and cross-verification of (t,q)-Euler numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print one polynomial in canonical form")
    p_compute.add_argument(
        "target",
        choices=["e", "t", "d", "e-even", "e-odd"],
        help="e: normalized (t,q)-Euler number; t: T_k; d: d_n; "
        "e-even/e-odd: classical q-secant/q-tangent values",
    )
    p_compute.add_argument("--n", type=int, default=None)
    p_compute.add_argument("--k", type=int, default=None)
    p_compute.add_argument(
        "--normalized",
        action="store_true",
        help="d: print (1-q)^n d_n; e is always normalized; any other target rejects the flag",
    )
    p_compute.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_compute.set_defaults(fn=cmd_compute)

    p_verify = sub.add_parser("verify", help="run the identity verification matrix")
    p_verify.add_argument("--max-n", type=int, default=8, dest="max_n")
    p_verify.add_argument("--max-k", type=int, default=6, dest="max_k")
    p_verify.add_argument("--max-b", type=int, default=4, dest="max_b")
    p_verify.add_argument(
        "--select", default=None, help="comma-separated substrings of identity ids to run"
    )
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--json", default=None, metavar="PATH", help="also write a JSON report")
    p_verify.set_defaults(fn=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the expansion routes per n (CSV)")
    p_bench.add_argument("--max-n", type=int, default=6, dest="max_n")
    p_bench.set_defaults(fn=cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # on the first main call, not at import; parse_args keeps no state


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage; normalize to the int contract
        return int(exc.code or 0)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
