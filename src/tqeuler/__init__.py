"""Exact arithmetic for (t,q)-Euler numbers.

The package computes the normalized (t,q)-Euler numbers, the auxiliary
polynomial family T_k(t, q), and the classical q-secant/q-tangent and
Touchard-Riordan values by every available route (continued-fraction
moments, closed formulas, and brute-force combinatorial models), and
cross-verifies all routes against each other to exact polynomial equality.
"""

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
from .registry import run_verification, identity_ids, VerificationReport
from . import cfrac, combinat, formulas, qkit, registry

__version__ = "0.1.0"

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
