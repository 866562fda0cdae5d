"""Exact arithmetic for (t,q)-Euler numbers.

The package computes the normalized (t,q)-Euler numbers, the auxiliary
polynomial family T_k(t, q), and the classical q-secant/q-tangent and
Touchard-Riordan values by every available route (continued-fraction
moments, closed formulas, and brute-force combinatorial models), and
cross-verifies all routes against each other to exact polynomial equality.
"""

from .exactalg import (
    LaurentPoly,
    Series,
    NonDivisibleError,
    NotInvertibleError,
    ZeroDenominatorError,
    monomial,
    const,
    div_exact,
    ZERO,
    ONE,
    T,
    Q,
    ONE_MINUS_Q,
)
from .qkit import (
    QSymbolSpec,
    q_int,
    tq_factor,
    pochhammer,
    odd_pochhammer,
    gauss_binom,
    partition_box_binom,
    ballot,
    a_k_poly,
    square_sum,
)
from .cfrac import SFractionSpec, sfrac_expand, sfrac_moments, euler_hat, dn_hat, en_even_q, en_odd_q
from .combinat import (
    CutoffExceededError,
    InvalidEndpointError,
    Partition,
    MarkedDyckPath,
    DeltaConfig,
    Overpartition,
)
from .formulas import SpecializationKey, TkValue, tk_recurrence, tk_closed, tk_special
from .registry import run_verification, identity_ids, VerificationReport

__version__ = "0.1.0"
