"""Command-line surface: compute tables, run the verification matrix,
benchmark the expansion routes, and emit machine-readable reports.
The table `_COMMANDS` is the grammar: `_parse` reads argv by it, and help
and usage errors are rendered from it.

Exit codes: 0 on success, 1 when verification finds a failing identity,
2 on invalid parameters or configuration.
"""

from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace

from . import cfrac, clear_caches, combinat, formulas, qkit
from .exactalg import LaurentPoly
from .formulas import DYCK_ORACLE_MAX_N, HARD_MAX_K, HARD_MAX_N


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _render_poly(poly: LaurentPoly, fmt: str) -> str:
    if fmt == "text":
        return poly.render()
    if fmt == "json":
        return poly.json_text()
    # CSV rows end in \r\n, as the csv module writes them; print adds the last \n
    return "\r\n".join(["et,eq,c", *(f"{et},{eq},{c}" for (et, eq), c in poly.sorted_terms())]) + "\r"


def cmd_compute(args: SimpleNamespace) -> int:
    target = args.target
    if args.normalized and target not in ("e", "d"):
        return _fail(f"--normalized applies to targets 'e' and 'd' only, not {target!r}")
    if target != "t" and args.k is not None:
        return _fail("--k applies to target 't' only")
    if target == "t" and args.n is not None:
        return _fail("--n applies to targets 'e', 'd', 'e-even' and 'e-odd' only")
    name, size, cap = ("k", args.k, HARD_MAX_K) if target == "t" else ("n", args.n, HARD_MAX_N)
    if size is None:
        return _fail(f"target {target!r} requires --{name}")
    if not (0 <= size <= cap):
        return _fail(f"--{name} must be in 0..{cap}")
    # E_n(t,q) itself is rational: target e prints its polynomial normal form (1-q)^(2n) E_n(t,q)
    poly = {"t": formulas.tk_recurrence, "e": cfrac.euler_hat, "d": cfrac.dn_hat,
            "e-even": cfrac.en_even_q, "e-odd": cfrac.en_odd_q}[target](size)
    if target == "d" and not args.normalized:
        poly = poly.divide_exact(1, [1] * size)
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


def cmd_verify(args: SimpleNamespace) -> int:
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


def cmd_bench(args: SimpleNamespace) -> int:
    if not (0 <= args.max_n <= HARD_MAX_N):
        return _fail(f"--max-n must be in 0..{HARD_MAX_N}")
    sys.stdout.write("n,method,ms,terms\r\n")  # CSV, with the \r\n row ends of _render_poly
    for n in range(args.max_n + 1):
        for name, fn in _bench_methods(n):
            if fn is None:
                sys.stdout.write(f"{n},{name},cutoff,\r\n")
                continue
            clear_caches()  # every row runs cold
            start = time.perf_counter()
            result = fn()
            ms = int((time.perf_counter() - start) * 1000)
            sys.stdout.write(f"{n},{name},{ms},{len(result)}\r\n")
    return 0


# The grammar, read by `_parse` and rendered by `_help`: per command its help line, its positional
# (name, choices, help) or None, and per option its kind (int, str, choices or bool), default and help.
_COMMANDS = {
    "compute": ("print one polynomial in canonical form", (
        "target", ("e", "t", "d", "e-even", "e-odd"), "e: normalized (t,q)-Euler number; t: T_k; "
        "d: d_n; e-even/e-odd: classical q-secant/q-tangent values"), {
        "--n": (int, None, ""), "--k": (int, None, ""),
        "--normalized": (bool, False, "d: print (1-q)^n d_n; e is always normalized; "
                         "any other target rejects the flag"),
        "--format": (("text", "json", "csv"), "text", "")}),
    "verify": ("run the identity verification matrix", None, {
        "--max-n": (int, 8, ""), "--max-k": (int, 6, ""), "--max-b": (int, 4, ""),
        "--select": (str, None, "comma-separated substrings of identity ids to run"),
        "--format": (("text", "json"), "text", ""), "--json": (str, None, "also write a JSON report")}),
    "bench": ("time the expansion routes per n (CSV)", None, {"--max-n": (int, 6, "")}),
}
_TOP = ("Exact computation and cross-verification of (t,q)-Euler numbers.", ("command", tuple(
    _COMMANDS), "; ".join(f"{name}: {spec[0]}" for name, spec in _COMMANDS.items())), {})
_HELP = ("-h", "--help")


def _help(prog: str, about: str, positional, options: dict) -> str:
    """The help text; its first line is the usage line that a usage error prints too."""
    opts = {name + ("" if kind is bool else " {" + ",".join(kind) + "}" if isinstance(kind, tuple)
                    else " " + name[2:].replace("-", "_").upper()): text for name, (kind, _, text) in options.items()}
    pos = {"{" + ",".join(positional[1]) + "}": positional[2]} if positional else {}
    rows, wrap = {**pos, "-h, --help": "show this help message and exit", **opts}, ";\n" + " " * 28
    lines = [f"  {left:<25} {text.replace('; ', wrap)}".rstrip() for left, text in rows.items()]
    return "\n".join([" ".join(["usage:", prog, "[-h]", *(f"[{o}]" for o in opts), *pos]), "", about, "", *lines])


def _value(name: str, kind, text: str):
    if isinstance(kind, tuple) and text not in kind:
        raise ValueError(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
    try:
        return text if isinstance(kind, tuple) else kind(text)
    except ValueError:
        raise ValueError(f"argument {name}: invalid int value: {text!r}") from None


def _option(token: str, names: tuple) -> tuple | None:
    """``(name, text after '=' or None)`` for an option token, None for a value. An exact
    name matches before a unique prefix of a ``--`` name; a negative number and a token
    with a space are values, and any other token starting with '-' names itself."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, text = token.partition("=")
    found = [head] if head in names else [name for name in names if name.startswith(head) and len(head) > 2]
    if len(found) > 1:
        raise ValueError(f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], text if eq else None
    whole, dot, frac = token[1:].partition(".")
    return None if (whole + frac).isdecimal() and (frac or not dot) or " " in token else (token, None)


def _parse(argv: list[str] | None) -> SimpleNamespace | int:
    """The fields a command handler reads, from ``argv`` by the table; or the exit code, 0
    or 2, once help or a usage error is printed. As in argparse, an ambiguous option fails
    first, the other errors and -h act from left to right, and unrecognized arguments last."""
    prog, (about, positional, options) = "tqeuler", _TOP
    fields, extras, wanted = {}, [], positional
    try:  # every ValueError raised here is a usage error
        pairs = [(token, _option(token, _HELP)) for token in (sys.argv[1:] if argv is None else argv)]
        while pairs:
            token, mark = pairs.pop(0)
            name, text = mark or (None, None)
            kind = bool if name in _HELP else options.get(name, (None,))[0]
            if mark is None and wanted:
                fields[wanted[0]] = _value(wanted[0], wanted[1], token)
                wanted = None
                if prog == "tqeuler":  # the command: it reads the rest by its own table
                    prog, (about, positional, options) = f"tqeuler {token}", _COMMANDS[token]
                    wanted = positional
                    fields.update((opt, spec[1]) for opt, spec in options.items())
                    pairs = [(rest, _option(rest, _HELP + tuple(options))) for rest, _ in pairs]
            elif kind is None:  # a value past the positional, or an unknown option
                extras.append(token)
            elif kind is bool and text is not None:
                raise ValueError(f"argument {name}: ignored explicit argument {text!r}")
            elif name in _HELP:
                print(_help(prog, about, positional, options))
                return 0
            elif kind is bool:
                fields[name] = True
            elif text is None and (not pairs or pairs[0][1] is not None):
                raise ValueError(f"argument {name}: expected one argument")
            else:
                fields[name] = _value(name, kind, pairs.pop(0)[0] if text is None else text)
        if wanted:
            raise ValueError(f"the following arguments are required: {wanted[0]}")
        if extras:
            raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    except ValueError as exc:
        usage = _help(prog, about, positional, options).partition("\n")[0]
        print(usage, f"{prog}: error: {exc}", sep="\n", file=sys.stderr)
        return 2
    return SimpleNamespace(**{key.lstrip("-").replace("-", "_"): value for key, value in fields.items()})


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # looked up on each call, so that a handler rebound on this module is the one that runs
    return args if isinstance(args, int) else globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    raise SystemExit(main())
