"""Exact arithmetic for (t,q)-Euler numbers.

The package computes the normalized (t,q)-Euler numbers, the auxiliary
polynomial family T_k(t, q), and the classical q-secant/q-tangent and
Touchard-Riordan values by every available route (continued-fraction
moments, closed formulas, and brute-force combinatorial models), and
cross-verifies all routes against each other to exact polynomial equality.

The verification table, :mod:`tqeuler.registry`, loads on first use of
``registry``, ``run_verification``, ``identity_ids`` or ``VerificationReport``:
computing a polynomial never reads it.
"""

from importlib import import_module as _import_module

from .exactalg import (
    LaurentPoly,
    NonDivisibleError,
    ZeroDenominatorError,
    monomial,
    const,
    ZERO,
    ONE,
    T,
    Q,
    ONE_MINUS_Q,
)
from .qkit import (
    QSymbolSpec,
    q_int,
    pochhammer,
    odd_pochhammer,
    gauss_binom,
    partition_box_binom,
    ballot,
    a_k_poly,
    square_sum,
)
from .cfrac import euler_hat, dn_hat, en_even_q, en_odd_q
from .combinat import CutoffExceededError, InvalidEndpointError
from .formulas import SpecializationKey, tk_recurrence, tk_closed, tk_special
from . import cfrac, combinat, formulas, qkit

__version__ = "0.1.0"

_LAZY = ("registry", "run_verification", "identity_ids", "VerificationReport")

# Captured at import: a profiling wrapper that later replaces a public name
# need not carry ``cache_clear``.
_CACHES = (
    formulas.tk_recurrence,
    formulas._tk_at,
    qkit.q_int,
    qkit.pochhammer,
    qkit.odd_pochhammer,
    qkit._gauss,
    qkit._kernel,
    qkit.square_sum,
    cfrac.euler_hat,
    cfrac.dn_hat,
    combinat._completions,
)


def clear_caches() -> None:
    """Empty every memo the package keeps, the ``functools.cache`` functions in
    ``_CACHES``.  Results never depend on cache contents; this only makes the
    next computation run cold."""
    for memo in _CACHES:
        memo.cache_clear()


def __getattr__(name: str):
    # PEP 562, called only for names not in the module dict.  No value is
    # stored here, so a name rebound on ``registry`` (a tracer, a mutation
    # test) is what ``tqeuler.<name>`` returns.  ``from . import registry``
    # would come back here through the import system and recurse.
    if name in _LAZY:
        registry = _import_module(__name__ + ".registry")
        return registry if name == "registry" else getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


# What ``from tqeuler import *`` binds: every public name above, ``exactalg``
# (bound by the submodule imports) and the lazy names, so a star import loads
# the table.
__all__ = [*(name for name in globals() if not name.startswith("_")), *_LAZY]
