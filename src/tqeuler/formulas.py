"""Closed-form and recursive formulas for the (t,q)-Euler numbers and the
auxiliary polynomial family T_k(t, q).

Each function transcribes one formula literally against the q-calculus
primitives, with the index ranges as stated; out-of-range Gaussian binomials
vanish and sums truncate by themselves.  Exact polynomial equality against
the continued-fraction ground truth (module :mod:`tqeuler.cfrac`) or against
the combinatorial oracles (module :mod:`tqeuler.combinat`) is the only
success criterion; any :class:`~tqeuler.exactalg.NonDivisibleError` escaping
from here means a transcription bug, never data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .exactalg import (
    LaurentPoly,
    ONE,
    ONE_MINUS_Q,
    ZERO,
    ZeroDenominatorError,
    monomial,
)
from .qkit import (
    QSymbolSpec,
    a_k_poly,
    ballot,
    gauss_binom,
    neg_q_power,
    pochhammer,
    square_sum,
)

__all__ = [
    "TkValue",
    "SpecializationKey",
    "tk_recurrence",
    "tk_closed",
    "tk_functional_equation_holds",
    "tk_special",
    "tk_prodinger",
    "tk_at_minus_q",
    "tk_at_minus_inv_q",
    "alpha_value",
    "beta_value",
    "alpha_step_holds",
    "beta_step_holds",
    "euler_hat_ballot",
    "secant_hat_closed",
    "tangent_hat_closed",
    "dn_touchard_riordan",
    "euler_hat_josuat_verges",
    "euler_hat_odd_pochhammer",
    "secant_hat_original",
    "tangent_hat_original",
    "euler_hat_at_minus_q",
    "euler_hat_at_minus_inv_q",
    "dist_box_closed",
    "a_k_inverse",
    "zeng_value",
    "zeng_bracket_additive",
    "zeng_bracket_qint",
    "DEFAULT_ZENG_BRACKET",
    "ZENG_SAMPLE_POINTS",
]

_ONE_PLUS_Q = LaurentPoly({(0, 0): 1, (0, 1): 1})


# ---------------------------------------------------------------------------
# the T_k family


@lru_cache(maxsize=None)
def tk_recurrence(k: int) -> LaurentPoly:
    """T_k by its defining recurrence.

    T_0 = 1 and, for k >= 1,
    ``T_k = T_{k-1} + (1+t)(-q)**(k*k)
    + (1-t**2) * sum_{i=1}^{k-1} (-q)**(k*k - i*i) * T_{i-1}``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return ONE
    one_plus_t = LaurentPoly({(0, 0): 1, (1, 0): 1})
    one_minus_t2 = LaurentPoly({(0, 0): 1, (2, 0): -1})
    total = tk_recurrence(k - 1) + one_plus_t * neg_q_power(k * k)
    acc = ZERO
    for i in range(1, k):
        acc = acc + neg_q_power(k * k - i * i) * tk_recurrence(i - 1)
    return total + one_minus_t2 * acc


def tk_closed(k: int) -> LaurentPoly:
    """T_k as the double sum over base-q**2 binomial coefficients."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = ZERO
    for j in range(k + 1):
        for i in range(j + 1):
            sign = -1 if (j + i) % 2 else 1
            head = monomial(sign, 2 * i, j * j + i * i + i)
            inner = gauss_binom(k - i, j - i, squared=True) + monomial(1, 1, 0) * gauss_binom(
                k - i - 1, j - i - 1, squared=True
            )
            total = total + head * gauss_binom(k - j, i, squared=True) * inner
    return total


def tk_functional_equation_holds(k: int) -> bool:
    """Check ``(1 - t*q) * T_k(t*q, q) == T_k(t, q) + t**2 * q**(2k+1) * T_{k-1}(t, q)``."""
    if k < 1:
        raise ValueError("k must be at least 1")
    one_minus_tq = LaurentPoly({(0, 0): 1, (1, 1): -1})
    lhs = one_minus_tq * tk_recurrence(k).shift_t_by_q(1)
    rhs = tk_recurrence(k) + monomial(1, 2, 2 * k + 1) * tk_recurrence(k - 1)
    return lhs == rhs


@dataclass(frozen=True)
class SpecializationKey:
    """The substitution ``t = eps * q**b`` with ``eps`` in {+1, -1} and any
    integer ``b``."""

    eps: int
    b: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")


def tk_special(key: SpecializationKey, k: int) -> LaurentPoly:
    """T_k at ``t = eps * q**b`` by the closed substitution formulas.

    ``k = 0`` returns 1 directly (the family's base case rather than any of
    the four closed branches).  Must agree with substituting into
    :func:`tk_recurrence`; the exact divisions by ``(eps*q; q)_b`` never
    leave a remainder when the transcription is correct.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return ONE
    eps, b = key.eps, key.b
    if b >= 0:
        numerator = ZERO
        for i in range(k):
            term = monomial(1, 0, i * (2 * k + 1)) * gauss_binom(b, i, squared=True)
            if eps == 1:
                term = term * square_sum(k - i)
            numerator = numerator + term
        for i in range(b):
            numerator = numerator + (
                pochhammer(QSymbolSpec(eps, 1, i))
                * monomial(1, 0, k * (2 * k + 2 * i + 1))
                * gauss_binom(b - i - 1, k - 1, squared=True)
            )
        return numerator.divide_exact(pochhammer(QSymbolSpec(eps, 1, b)))
    bb = -b
    if eps == 1:
        total = ZERO
        for i in range(bb):
            total = total + (
                pochhammer(QSymbolSpec(1, 1 - bb, i))
                * neg_q_power(k * (k - 2 * bb + 2) + 2 * i)
                * gauss_binom(k + i - 1, i, squared=True)
            )
        return total
    total = ZERO
    for i in range(k):
        total = total + (
            pochhammer(QSymbolSpec(-1, 1 - bb, bb))
            * neg_q_power(i * (2 * k - 2 * bb - i + 2))
            * gauss_binom(bb + i - 1, i, squared=True)
        )
    tail = ZERO
    for i in range(bb):
        tail = tail + (
            pochhammer(QSymbolSpec(-1, 1 - bb, i))
            * monomial(1, 0, 2 * i)
            * gauss_binom(k + i - 1, i, squared=True)
        )
    return total + neg_q_power(k * k + 2 * k - 2 * k * bb) * tail


def tk_prodinger(b: int, k: int) -> LaurentPoly:
    """T_k at ``t = q**b`` (b >= 1) by the alternative binomial double sum."""
    if b < 1 or k < 0:
        raise ValueError("need b >= 1 and k >= 0")
    total = ZERO
    for i in range(b + 1):
        outer = monomial(1, 0, math.comb(i + 1, 2)) * gauss_binom(b, i)
        inner = ZERO
        for j in range(-k, k - i + 1):
            inner = inner + (
                monomial(-1 if j % 2 else 1, 0, j * j + i * (k + j))
                * gauss_binom(k + j + b, b)
            )
        total = total + outer * inner
    return total


def tk_at_minus_q(k: int) -> LaurentPoly:
    """T_k at ``t = -q``: the closed form ``(1 + q**(2k+1)) / (1 + q)``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return (ONE + monomial(1, 0, 2 * k + 1)).divide_exact(_ONE_PLUS_Q)


def tk_at_minus_inv_q(k: int) -> LaurentPoly:
    """T_k at ``t = -1/q``: ``(-q)**(k*k) * sum_{i=-k}^{k} (-q)**(-i*i)``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return neg_q_power(k * k) * square_sum(k).invert_variables()


# ---------------------------------------------------------------------------
# single-power substitutions of T_k and their step relations


def alpha_value(eps: int, b: int, k: int) -> LaurentPoly:
    """T_k at ``t = eps * q**b`` obtained by direct substitution (b >= 0)."""
    return tk_recurrence(k).substitute_t(eps, b)


def beta_value(eps: int, b: int, k: int) -> LaurentPoly:
    """T_k at ``t = eps * q**(-b)`` obtained by direct substitution (b >= 0)."""
    return tk_recurrence(k).substitute_t(eps, -b)


def alpha_step_holds(eps: int, b: int, k: int) -> bool:
    """Check ``(1 - eps*q**b) * a(b,k) == a(b-1,k) + q**(2k+2b-1) * a(b-1,k-1)``."""
    if b < 1 or k < 1:
        raise ValueError("need b, k >= 1")
    lhs = LaurentPoly({(0, 0): 1, (0, b): -eps}) * alpha_value(eps, b, k)
    rhs = alpha_value(eps, b - 1, k) + monomial(1, 0, 2 * k + 2 * b - 1) * alpha_value(
        eps, b - 1, k - 1
    )
    return lhs == rhs


def beta_step_holds(eps: int, b: int, k: int) -> bool:
    """Check ``b(b,k) == (1 - eps*q**(1-b)) * b(b-1,k) - q**(2k-2b+1) * b(b,k-1)``."""
    if b < 1 or k < 1:
        raise ValueError("need b, k >= 1")
    lhs = beta_value(eps, b, k)
    rhs = (ONE - monomial(eps, 0, 1 - b)) * beta_value(eps, b - 1, k) - monomial(
        1, 0, 2 * k - 2 * b + 1
    ) * beta_value(eps, b, k - 1)
    return lhs == rhs


# ---------------------------------------------------------------------------
# normalized (t,q)-Euler number formulas


def euler_hat_ballot(n: int) -> LaurentPoly:
    """``sum_k ballot(n,k) * t**k * q**(k(k+1)) * T_k(1/t, 1/q)``.

    Equals the continued-fraction value ``euler_hat(n)``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = ZERO
    for k in range(n + 1):
        total = total + ballot(n, k) * monomial(1, k, k * (k + 1)) * tk_recurrence(
            k
        ).invert_variables()
    return total


def secant_hat_closed(n: int) -> LaurentPoly:
    """``(1-q)**(2n) * E_{2n}(q)`` as a ballot sum over shifted square sums."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = ZERO
    for k in range(n + 1):
        total = total + ballot(n, k) * monomial(1, 0, k * (k + 1)) * square_sum(
            k
        ).invert_variables()
    return total


def a_k_inverse(k: int) -> LaurentPoly:
    """The polynomial ``A_k(1/q)``, recovered by exact division."""
    return (monomial(-1, 0, 1) * a_k_poly(k).invert_variables()).divide_exact(ONE_MINUS_Q)


def tangent_hat_closed(n: int) -> LaurentPoly:
    """``(1-q)**(2n) * E_{2n+1}(q)`` as a ballot sum over ``A_k(1/q)``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = ZERO
    for k in range(n + 1):
        total = total + ballot(n, k) * monomial(1, 0, k * (k + 2)) * a_k_inverse(k)
    return total


def dn_touchard_riordan(n: int) -> LaurentPoly:
    """``(1-q)**n * d_n = sum_k ballot(n,k) * (-1)**k * q**(k(k+1)/2)``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = ZERO
    for k in range(n + 1):
        total = total + ballot(n, k) * monomial(-1 if k % 2 else 1, 0, k * (k + 1) // 2)
    return total


def euler_hat_josuat_verges(n: int) -> LaurentPoly:
    """The moment-style triple sum for ``euler_hat(n)`` with base-q binomials."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = ZERO
    for k in range(n + 1):
        inner = ZERO
        for j in range(2 * k + 1):
            bj = gauss_binom(2 * k - j, j)
            if bj.is_zero():
                continue
            for i in range(2 * k - 2 * j + 1):
                bi = gauss_binom(2 * k - 2 * j, i)
                if bi.is_zero():
                    continue
                sign = -1 if (k + i) % 2 else 1
                head = monomial(sign, 0, math.comb(j + 1, 2)) * monomial(1, k - j, k - j)
                inner = inner + head * bj * bi
        total = total + ballot(n, k) * inner
    return total


def euler_hat_odd_pochhammer(n: int) -> LaurentPoly:
    """The single-binomial sum for ``euler_hat(n)`` with odd-base Pochhammers."""
    from .qkit import odd_pochhammer

    if n < 0:
        raise ValueError("n must be nonnegative")
    total = ZERO
    for k in range(n + 1):
        inner = ZERO
        for i in range(k + 1):
            inner = inner + (
                monomial(1, i, math.comb(k - i, 2))
                * odd_pochhammer(i)
                * gauss_binom(k + i, k - i)
            )
        total = total + ballot(n, k) * neg_q_power(k) * inner
    return total


def secant_hat_original(n: int) -> LaurentPoly:
    """``(1-q)**(2n) * E_{2n}(q)`` in the unshifted index form."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = ZERO
    for k in range(n + 1):
        inner = ZERO
        for i in range(2 * k + 1):
            inner = inner + monomial(-1 if (i + k) % 2 else 1, 0, i * (2 * k - i) + k)
        total = total + ballot(n, k) * inner
    return total


def tangent_hat_original(n: int) -> LaurentPoly:
    """``(1-q)**(2n+1) * E_{2n+1}(q)`` in the unshifted index form.

    Note the extra factor of (1-q) relative to :func:`tangent_hat_closed`;
    the two are compared as ``tangent_hat_original(n) ==
    (1-q) * tangent_hat_closed(n)`` so the prefactor conventions never mix.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = ZERO
    for k in range(n + 1):
        coeff = _ballot_odd(n, k)
        inner = ZERO
        for i in range(2 * k + 2):
            inner = inner + monomial(-1 if (i + k) % 2 else 1, 0, i * (2 * k + 2 - i))
        total = total + coeff * inner
    return total


def _ballot_odd(n: int, k: int) -> int:
    def c(m: int, j: int) -> int:
        return math.comb(m, j) if 0 <= j <= m else 0

    return c(2 * n + 1, n - k) - c(2 * n + 1, n - k - 1)


def euler_hat_at_minus_q(n: int) -> LaurentPoly:
    """``euler_hat(n)`` at ``t = -q``: ballot sum of
    ``(-1)**k * (q**(k*k) + q**((k+1)**2)) / (1+q)``.

    Each summand is divided exactly on its own: ``q**(k*k) * (1 + q**(2k+1))``
    is divisible by ``1 + q`` because the inner exponent is odd.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = ZERO
    for k in range(n + 1):
        pair = monomial(1, 0, k * k) + monomial(1, 0, (k + 1) ** 2)
        total = total + ballot(n, k) * (-1 if k % 2 else 1) * pair.divide_exact(_ONE_PLUS_Q)
    return total


def euler_hat_at_minus_inv_q(n: int) -> LaurentPoly:
    """``euler_hat(n)`` at ``t = -1/q``: ballot sum of the plain square sums."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = ZERO
    for k in range(n + 1):
        total = total + ballot(n, k) * square_sum(k)
    return total


def dist_box_closed(m: int, n: int) -> LaurentPoly:
    """Closed form of the distinct-part distribution over partitions in a box:
    ``sum_i q**C(i+1,2) * [n choose i]_q * [n+m-i choose m-i]_q * (x-1)**i``
    with x carried in the t exponent slot."""
    if m < 0 or n < 0:
        raise ValueError("box dimensions must be nonnegative")
    x_minus_1 = LaurentPoly({(1, 0): 1, (0, 0): -1})
    total = ZERO
    for i in range(m + 1):
        total = total + (
            monomial(1, 0, math.comb(i + 1, 2))
            * gauss_binom(n, i)
            * gauss_binom(n + m - i, m - i)
            * x_minus_1**i
        )
    return total


# ---------------------------------------------------------------------------
# invariant bundle for T_k values


@dataclass(frozen=True)
class TkValue:
    """A T_k polynomial with its index, plus its defining spot checks."""

    k: int
    poly: LaurentPoly

    @classmethod
    def compute(cls, k: int) -> "TkValue":
        return cls(k, tk_recurrence(k))

    def invariants_hold(self) -> bool:
        at_minus_one = self.poly.substitute_t(-1, 0) == ONE
        at_one = self.poly.substitute_t(1, 0) == square_sum(self.k)
        constant = self.poly.terms.get((0, 0)) == 1
        return at_minus_one and at_one and constant


# ---------------------------------------------------------------------------
# the rational double-sum evaluation


Bracket = Callable[[int, Fraction, Fraction], Fraction]


def zeng_bracket_additive(m: int, t0: Fraction, q0: Fraction) -> Fraction:
    """Candidate bracket reading ``[m] = t*q**m + (1 + q + ... + q**(m-1))``."""
    if q0 == 1:
        return t0 + m
    return t0 * q0**m + (1 - q0**m) / (1 - q0)


def zeng_bracket_qint(m: int, t0: Fraction, q0: Fraction) -> Fraction:
    """Candidate bracket reading ``[m] = (1 - t*q**m) / (1 - q)``."""
    if q0 == 1:
        raise ZeroDenominatorError("bracket undefined at q = 1")
    return (1 - t0 * q0**m) / (1 - q0)


# Adopted after numeric validation against the continued-fraction values:
# the additive reading fails at every sample point, the quotient reading
# reproduces them exactly (see tests/test_formulas.py).
DEFAULT_ZENG_BRACKET: Bracket = zeng_bracket_qint

ZENG_SAMPLE_POINTS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(2), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(1, 2)),
    (Fraction(3), Fraction(2)),
    (Fraction(-2), Fraction(1, 3)),
    (Fraction(5, 7), Fraction(2, 5)),
    (Fraction(1, 2), Fraction(3)),
)


def zeng_value(
    n: int,
    t0: Fraction | int,
    q0: Fraction | int,
    bracket: Bracket | None = None,
) -> Fraction:
    """The double-sum rational evaluation of ``E_n(t, q)`` at ``(t0, q0)``.

    Exact rational arithmetic throughout; raises
    :class:`~tqeuler.exactalg.ZeroDenominatorError` when any denominator
    factor vanishes at the chosen point.
    """
    if n < 0 or n > 5:
        raise ValueError("n must be between 0 and 5")
    t0 = Fraction(t0)
    q0 = Fraction(q0)
    if t0 == 0 or q0 == 0:
        raise ZeroDenominatorError("t0 and q0 must be nonzero")
    br = bracket or DEFAULT_ZENG_BRACKET

    def q_int_val(m: int) -> Fraction:
        if q0 == 1:
            return Fraction(m)
        return (1 - q0**m) / (1 - q0)

    total = Fraction(0)
    for m in range(n + 1):
        fact = Fraction(1)
        for r in range(1, 2 * m + 1):
            fact *= br(r, t0, q0)
        for i in range(m + 1):
            expo = 2 * m - 2 * i * n + i * i - n - i
            numerator = q0**expo * fact * br(2 * i + 1, t0, q0) ** (2 * n)
            denominator = Fraction(1)
            for r in range(1, i + 1):
                denominator *= q_int_val(2 * r)
            for r in range(1, m - i + 1):
                denominator *= q_int_val(2 * r)
            for kk in range(m + 1):
                if kk != i:
                    denominator *= br(2 * kk + 2 * i + 2, t0 * t0, q0)
            if denominator == 0:
                raise ZeroDenominatorError("a bracket factor vanished at the sample point")
            total += (-1) ** (n - i) * numerator / denominator
    return total * t0 ** (-n)
