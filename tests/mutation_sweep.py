"""Mutation sweep: does some ``verify`` cell depend on every public route?

For each callable in the ``__all__`` of ``qkit``, ``combinat``, ``formulas``
and ``cfrac``, :func:`sweep` binds a wrapper that changes every result of
the callable wherever the package binds the original, empties the caches,
runs the verification matrix and collects the ids of the failing cells.  A
name that fails no cell is a route no identity depends on.

Run as a script, it sweeps at the given bounds (the ``verify`` defaults
8 6 4 when none are given), prints each name's failing ids and exits with 1
if any name fails no cell::

    PYTHONPATH=src python tests/mutation_sweep.py [MAX_N MAX_K MAX_B]
"""

import sys
from fractions import Fraction

import tqeuler
from tqeuler import cfrac, combinat, formulas, qkit
from tqeuler.exactalg import LaurentPoly, monomial

_NUDGE = monomial(1, 7, 99)


def changed(value):
    """``value`` changed: a polynomial gets ``+ t^7 q^99``, a bool is negated, an int or
    a Fraction gets ``+ 1``, and a list or tuple has each item changed."""
    if isinstance(value, LaurentPoly):
        return value + _NUDGE
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, (list, tuple)):
        return type(value)(map(changed, value))
    raise TypeError(f"no change is defined for a {type(value).__name__} result")


def routes() -> list[tuple[str, object]]:
    """``(name, callable)`` for each function in the four ``__all__`` lists; classes are skipped."""
    return [(name, fn) for mod in (qkit, combinat, formulas, cfrac) for name in mod.__all__
            for fn in [getattr(mod, name)] if callable(fn) and not isinstance(fn, type)]


def failing_ids(fn, max_n: int, max_k: int, max_b: int) -> set[str]:
    """The ids of the cells of ``run_verification`` that fail with every result of ``fn`` changed."""

    def wrapper(*args, **kwargs):
        return changed(fn(*args, **kwargs))

    modules = [mod for name, mod in list(sys.modules.items()) if name == "tqeuler" or name.startswith("tqeuler.")]
    bound = [(mod, attr) for mod in modules for attr, value in vars(mod).items() if value is fn]
    try:
        for mod, attr in bound:
            setattr(mod, attr, wrapper)
        tqeuler.clear_caches()
        report = tqeuler.run_verification(max_n=max_n, max_k=max_k, max_b=max_b)
    finally:
        for mod, attr in bound:
            setattr(mod, attr, fn)
        tqeuler.clear_caches()
    return {case.id for case in report.cases if case.status == "fail"}


def sweep(max_n: int, max_k: int, max_b: int) -> dict[str, set[str]]:
    """Failing ids by name, for every name of :func:`routes`."""
    return {name: failing_ids(fn, max_n, max_k, max_b) for name, fn in routes()}


if __name__ == "__main__":
    failing = sweep(*map(int, sys.argv[1:] or (8, 6, 4)))
    for name, ids in failing.items():
        print(f"{name}: {', '.join(sorted(ids)) or '-'}")
    unchecked = {name for name, ids in failing.items() if not ids}
    print(f"fail no cell: {sorted(unchecked)}")
    sys.exit(1 if unchecked else 0)
