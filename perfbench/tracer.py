"""Per-layer tracing of tqeuler from outside the package.

``install()`` replaces the package's public module-level functions and the
arithmetic methods of ``LaurentPoly`` with wrappers that count calls and
accumulate inclusive and self time.  Nothing under ``src/`` is edited and no
private name is read or written:

* a function is wrapped when it is listed in its module's ``__all__`` (for
  ``cli``, which has no ``__all__``: every name without a leading underscore)
  and was defined in that module;
* every module of the package that imported such a function by name (for
  example ``formulas`` importing ``gauss_binom`` from ``qkit``) is rebound to
  the same wrapper, so direct and qualified calls are both seen;
* identity checks are wrapped by replacing the public ``registry.REGISTRY``
  tuple with copies whose ``check`` field is wrapped.

Calls are aggregated as counts plus summed time, never one record per call:
a default ``verify`` makes about 1.45 million ``LaurentPoly`` constructions.
Self time of a call is its duration minus the time of the wrapped calls made
inside it, kept on one span stack (the workloads run single-threaded).
Generator functions are not timed, because their work runs inside whoever
consumes them; the ``enum_*`` ones are wrapped only to count what they yield.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("exactalg", "qkit", "cfrac", "combinat", "formulas", "registry", "cli")

# LaurentPoly methods grouped under one layer name each; operator aliases
# (__radd__ is __add__, __rmul__ is __mul__) are separate class attributes
# and are wrapped as well.
ARITH_GROUPS = {
    "add": ("__add__", "__radd__"),
    "sub": ("__sub__", "__rsub__"),
    "neg": ("__neg__",),
    "mul": ("__mul__", "__rmul__"),
    "pow": ("__pow__",),
    "divide_exact": ("divide_exact",),
    "substitute": (
        "substitute_t",
        "substitute_t_zero",
        "shift_t_by_q",
        "scale_q",
        "invert_variables",
    ),
    "evaluate": ("evaluate",),
}


class Stat:
    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Owns the counters; ``install`` wires it into the imported package."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        # stack[-1] accumulates the time of wrapped calls made by the
        # innermost open span; stack[0] is the untraced top level.
        self.stack = [0.0]
        self.init_calls = 0
        self.mul_term_pairs = 0
        self.max_terms = 0
        self.enumerated = 0
        self.euler_hat_misses = 0
        self.gauss_args: set[tuple[int, int]] = set()
        self.tk_recurrence = None

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- wrappers ----------------------------------------------------------

    def timed(self, fn, name: str, before=None, after=None):
        st = self.stat(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st.self_s += dt - stack.pop()
                st.incl_s += dt
                st.calls += 1
                stack[-1] += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted_generator(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.enumerated += 1
                yield item

        return wrapper

    def _note_size(self, result) -> None:
        n = len(result)
        if n > self.max_terms:
            self.max_terms = n

    def _note_mul(self, args) -> None:
        a, b = args
        self.mul_term_pairs += len(a) * (len(b) if hasattr(b, "__len__") else 1)

    def _note_gauss(self, args) -> None:
        self.gauss_args.add((args[0], args[1]))

    def _note_enumerated(self, result) -> None:
        self.enumerated += len(result)

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        mods = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        self._wrap_laurent(mods["exactalg"].LaurentPoly)
        replaced = {}
        for modname, mod in mods.items():
            for name in _public_names(mod):
                fn = getattr(mod, name)
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(fn):
                    if name.startswith("enum_"):
                        replaced[id(fn)] = self.counted_generator(fn)
                    continue
                if not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                    continue
                replaced[id(fn)] = self._wrap_function(modname, name, fn)
        for mod in [package, *mods.values()]:
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        self._wrap_checks(mods["registry"])

    def _wrap_function(self, modname: str, name: str, fn):
        full = f"{modname}.{name}"
        if full == "cfrac.euler_hat":
            moments = self.stat("cfrac.sfrac_moments")
            calls_before = [0]

            def before(args):
                calls_before[0] = moments.calls

            def after(result):
                if moments.calls != calls_before[0]:
                    self.euler_hat_misses += 1

            return self.timed(fn, full, before, after)
        if full == "qkit.gauss_binom":
            return self.timed(fn, full, before=self._note_gauss)
        if full == "formulas.tk_recurrence":
            self.tk_recurrence = fn
            wrapper = self.timed(fn, full)
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
            return wrapper
        if modname == "combinat" and name.startswith("enum_"):
            return self.timed(fn, full, after=self._note_enumerated)
        return self.timed(fn, full)

    def _wrap_laurent(self, cls) -> None:
        orig_init = cls.__init__
        tracer = self

        def __init__(self, terms=None):
            tracer.init_calls += 1
            orig_init(self, terms)

        cls.__init__ = __init__
        for group, methods in ARITH_GROUPS.items():
            for meth in methods:
                before = self._note_mul if group == "mul" else None
                after = None if group == "evaluate" else self._note_size
                wrapped = self.timed(vars(cls)[meth], f"exactalg.{group}", before, after)
                setattr(cls, meth, wrapped)

    def _wrap_checks(self, registry) -> None:
        registry.REGISTRY = tuple(
            dataclasses.replace(
                ident, check=self.timed(ident.check, f"registry.id.{ident.id}")
            )
            for ident in registry.REGISTRY
        )

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything measured, as plain JSON-ready values."""
        cache = self.tk_recurrence.cache_info() if self.tk_recurrence else None
        return {
            "functions": {
                name: {"calls": s.calls, "incl_s": s.incl_s, "self_s": s.self_s}
                for name, s in sorted(self.stats.items())
            },
            "init_calls": self.init_calls,
            "mul_term_pairs": self.mul_term_pairs,
            "max_terms": self.max_terms,
            "enumerated": self.enumerated,
            "euler_hat_misses": self.euler_hat_misses,
            "gauss_distinct_args": len(self.gauss_args),
            "tk_recurrence_cache": {"hits": cache.hits, "misses": cache.misses} if cache else None,
        }


def _public_names(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return list(names)


# The per-layer metrics named in BENCHMARK.json, derived from a snapshot.
NAMED_FORMULAS = (
    "euler_hat_ballot",
    "euler_hat_odd_pochhammer",
    "euler_hat_josuat_verges",
    "tk_closed",
    "tk_special",
    "tk_prodinger",
)
NAMED_ORACLES = (
    "dyck_weight_sum",
    "md_star_weight_sum_general",
    "delta_prime_weight_sum",
    "sop_weight_sum",
    "m_path_weight_sum",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def layer_metrics(snap: dict, identity_ids: list[str]) -> dict[str, float]:
    """Map one traced operation's snapshot to per-layer metric values."""
    fns = snap["functions"]

    def get(name: str, field: str) -> float:
        return fns.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def other_self(modname: str, named: tuple[str, ...]) -> float:
        skip = {f"{modname}.{n}" for n in named}
        return sum(
            v["self_s"] for k, v in fns.items() if k.startswith(modname + ".") and k not in skip
        )

    cache = snap["tk_recurrence_cache"] or {"hits": 0, "misses": 0}
    out = {
        "exactalg.init.calls": snap["init_calls"],
        "exactalg.add.calls": get("exactalg.add", "calls"),
        "exactalg.add.self_s": get("exactalg.add", "self_s"),
        "exactalg.sub.calls": get("exactalg.sub", "calls"),
        "exactalg.mul.calls": get("exactalg.mul", "calls"),
        "exactalg.mul.term_pairs": snap["mul_term_pairs"],
        "exactalg.mul.self_s": get("exactalg.mul", "self_s"),
        "exactalg.max_terms": snap["max_terms"],
        "exactalg.divide_exact.calls": get("exactalg.divide_exact", "calls"),
        "exactalg.divide_exact.self_s": get("exactalg.divide_exact", "self_s"),
        "exactalg.substitute.self_s": get("exactalg.substitute", "self_s"),
        "cfrac.sfrac_moments.calls": get("cfrac.sfrac_moments", "calls"),
        "cfrac.sfrac_moments.self_s": get("cfrac.sfrac_moments", "self_s"),
        "cfrac.euler_hat.miss_ratio": ratio(
            snap["euler_hat_misses"], get("cfrac.euler_hat", "calls")
        ),
        "qkit.gauss_binom.calls": get("qkit.gauss_binom", "calls"),
        "qkit.gauss_binom.self_s": get("qkit.gauss_binom", "self_s"),
        "qkit.gauss_binom.distinct_ratio": ratio(
            snap["gauss_distinct_args"], get("qkit.gauss_binom", "calls")
        ),
        "qkit.pochhammer.self_s": get("qkit.pochhammer", "self_s"),
        "formulas.tk_recurrence.hit_ratio": ratio(
            cache["hits"], cache["hits"] + cache["misses"]
        ),
        "formulas.other.self_s": other_self("formulas", NAMED_FORMULAS),
        "combinat.other.self_s": other_self("combinat", NAMED_ORACLES),
        "combinat.enumerated": snap["enumerated"],
        "cli.render.self_s": sum(v["self_s"] for k, v in fns.items() if k.startswith("cli.")),
    }
    for name in NAMED_FORMULAS:
        out[f"formulas.{name}.self_s"] = get(f"formulas.{name}", "self_s")
    for name in NAMED_ORACLES:
        out[f"combinat.{name}.self_s"] = get(f"combinat.{name}", "self_s")
    check_s = 0.0
    for ident in identity_ids:
        s = get(f"registry.id.{ident}", "incl_s")
        out[f"registry.id.{ident}.s"] = s
        check_s += s
    run_s = get("registry.run_verification", "incl_s")
    out["registry.overhead_s"] = run_s - check_s if run_s else 0.0
    return out
