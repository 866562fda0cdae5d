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
from .cfrac import sfrac_moments, euler_hat, dn_hat, en_even_q, en_odd_q
from .combinat import CutoffExceededError, InvalidEndpointError
from .formulas import SpecializationKey, tk_recurrence, tk_closed, tk_special
from .registry import run_verification, identity_ids, VerificationReport
from . import cfrac, formulas, qkit, registry

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo the package keeps: T_k by recurrence, T_k at
    ``t = eps * q**b`` (``formulas.tk_at``), the Gaussian binomials, the
    q-Pochhammer and odd q-Pochhammer symbols, the ``euler_hat``/``dn_hat``
    moments and each ballot kernel's ``K_k`` (``qkit._ballot_sum``).  Results
    never depend on cache contents; this only makes the next computation run
    cold."""
    formulas.tk_recurrence.cache_clear()
    formulas._TK_AT.clear()
    qkit._GAUSS_CACHE.clear()
    qkit._POCH_CACHE.clear()
    qkit._ODD_POCH_CACHE.clear()
    cfrac._euler_cache.clear()
    cfrac._dn_cache.clear()
    qkit._KERNEL_ROWS.clear()
