"""Closed-form and recursive formulas for the (t,q)-Euler numbers and the
auxiliary polynomial family T_k(t, q).

Each function transcribes one formula literally against the q-calculus
primitives, with the index ranges as stated; out-of-range Gaussian binomials
vanish and sums truncate by themselves.  The module holds only these routes
and the constants they read, and no function here checks anything.  The
caps ``HARD_MAX_*`` and ``DYCK_ORACLE_MAX_N`` are read by no route: they live
here only so that ``compute`` reads them without loading the registry.
Every identity between them, the T_k functional equation and step relations
too, is a row of :mod:`tqeuler.registry` whose sides are values, compared by
exact polynomial equality against the continued-fraction ground truth
(module :mod:`tqeuler.cfrac`), the combinatorial oracles (module
:mod:`tqeuler.combinat`) or another route.  Any
:class:`~tqeuler.exactalg.NonDivisibleError` escaping from here means a
transcription bug, never data.

The ballot-form routes ``sum_k ballot(n,k) * K_k`` are each written as their
kernel ``K_k``, a module-level function passed to :func:`tqeuler.qkit._ballot_sum`,
which owns the outer sum and its ``n >= 0`` check and sums each ``K_k`` once
per run.  A kernel returns ``K_k`` as a list of ``(c, a, b, factors)`` items,
each ``c * t**a * q**b * prod(factors)``; these, and the sums of
:func:`tk_special` and :func:`tk_prodinger`, are summed in one packed int by
:func:`tqeuler.exactalg._sum_of_products`.  :func:`tk_recurrence` and
:func:`tk_at` are memoised by ``exactalg._memo``, and every exact division
here is by binomials ``1 - eps * q**j``, named by their sign and powers.

A substitution ``t = eps * q**b`` is the two ints ``eps, b`` ahead of ``k``, in
:func:`tk_special` and :func:`tk_at` alike.
"""

from __future__ import annotations

import math
from operator import index
from typing import Callable

from .exactalg import (
    Item,
    LaurentPoly,
    ONE,
    ZERO,
    ZeroDenominatorError,
    _ONE_MINUS_T2,
    _ONE_PLUS_T,
    _memo,
    _sign,
    _size,
    _sum_of_products,
    monomial,
)
from .qkit import (
    _ballot_sum,
    a_k_poly,
    gauss_binom,
    neg_q_power,
    odd_pochhammer,
    pochhammer,
    square_sum,
)

__all__ = [
    "tk_recurrence",
    "tk_closed",
    "tk_special",
    "tk_prodinger",
    "tk_at",
    "tk_at_minus_q",
    "tk_at_minus_inv_q",
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
    "zeng_bracket_qint",
    "DEFAULT_ZENG_BRACKET",
]

# The hard caps of the CLI and of the verification matrix.  They live here, not
# in the registry, so that ``compute`` reads them without loading that table;
# :mod:`tqeuler.registry` re-exports them under the same names.
HARD_MAX_N = 12
HARD_MAX_K = 10
HARD_MAX_B = 8
DYCK_ORACLE_MAX_N = 6  # the n the brute-force Dyck oracle runs to, in verify and in bench


def _neg_q(e: int, *factors: LaurentPoly) -> Item:
    """The item ``(-q)**e * prod(factors)`` for :func:`~tqeuler.exactalg._sum_of_products`."""
    return (-1 if e % 2 else 1, 0, e, factors)


# ---------------------------------------------------------------------------
# the T_k family


@_memo
def tk_recurrence(k: int) -> LaurentPoly:
    """T_k by its defining recurrence.

    T_0 = 1 and, for k >= 1,
    ``T_k = T_{k-1} + (1+t)(-q)**(k*k)
    + (1-t**2) * sum_{i=1}^{k-1} (-q)**(k*k - i*i) * T_{i-1}``.
    """
    if _size(k, "k") == 0:
        return ONE
    total = tk_recurrence(k - 1) + _ONE_PLUS_T * neg_q_power(k * k)
    acc = ZERO
    for i in range(1, k):
        acc = acc + neg_q_power(k * k - i * i) * tk_recurrence(i - 1)
    return total + _ONE_MINUS_T2 * acc


def tk_closed(k: int) -> LaurentPoly:
    """T_k as the double sum over base-q**2 binomial coefficients."""
    k = _size(k, "k")
    # (-1)**(j+i) * t**(2i) * q**(j*j + i*i + i) * [k-j, i] * ([k-i, j-i] + t * [k-i-1, j-i-1]), two items
    return _sum_of_products(
        (-1 if (j + i) % 2 else 1, 2 * i + dt, j * j + i * i + i,
         (gauss_binom(k - j, i, squared=True), gauss_binom(k - i - dt, j - i - dt, squared=True)))
        for j in range(k + 1)
        for i in range(j + 1)
        for dt in (0, 1)
    )


def tk_special(eps: int, b: int, k: int) -> LaurentPoly:
    """T_k at ``t = eps * q**b``, ``eps`` in {+1, -1} and ``b`` any integer, by the
    closed substitution formulas.

    ``k = 0`` returns 1 directly (the family's base case rather than any of
    the four closed branches).  Must agree with substituting into
    :func:`tk_recurrence`; the exact divisions by ``(eps*q; q)_b`` never
    leave a remainder when the transcription is correct.
    """
    eps, b, k = _sign(eps, "eps"), index(b), _size(k, "k")
    if k == 0:
        return ONE
    if b >= 0:
        numerator = [
            (1, 0, i * (2 * k + 1),
             (gauss_binom(b, i, squared=True), square_sum(k - i) if eps == 1 else ONE))
            for i in range(k)
        ] + [
            (1, 0, k * (2 * k + 2 * i + 1),
             (pochhammer(eps, 1, i), gauss_binom(b - i - 1, k - 1, squared=True)))
            for i in range(b)
        ]
        return _sum_of_products(numerator).divide_exact(eps, range(1, b + 1))
    bb = -b
    # one tail for both signs: (-q)**(k*k + 2k - 2k*bb) times q**(2i), eps in the Pochhammer base
    items = [_neg_q(k * (k - 2 * bb + 2) + 2 * i,
                    pochhammer(eps, 1 - bb, i), gauss_binom(k + i - 1, i, squared=True))
             for i in range(bb)]
    if eps == -1:
        head = pochhammer(-1, 1 - bb, bb)
        items += [_neg_q(i * (2 * k - 2 * bb - i + 2), head, gauss_binom(bb + i - 1, i, squared=True))
                  for i in range(k)]
    return _sum_of_products(items)


def tk_prodinger(b: int, k: int) -> LaurentPoly:
    """T_k at ``t = q**b`` (b >= 1) by the alternative binomial double sum."""
    b, k = _size(b, "b", 1), _size(k, "k")
    heads = [gauss_binom(b, i) for i in range(b + 1)]
    tails = [gauss_binom(m + b, b) for m in range(2 * k + 1)]  # [k+j+b, b] at m = k + j
    return _sum_of_products(
        (-1 if j % 2 else 1, 0, math.comb(i + 1, 2) + j * j + i * (k + j), (heads[i], tails[k + j]))
        for i in range(b + 1)
        for j in range(-k, k - i + 1)
    )


def tk_at_minus_q(k: int) -> LaurentPoly:
    """T_k at ``t = -q``: the closed form ``(1 + q**(2k+1)) / (1 + q)``."""
    k = _size(k, "k")
    return (ONE + monomial(1, 0, 2 * k + 1)).divide_exact(-1, [1])


def tk_at_minus_inv_q(k: int) -> LaurentPoly:
    """T_k at ``t = -1/q``: ``(-q)**(k*k) * sum_{i=-k}^{k} (-q)**(-i*i)``."""
    k = _size(k, "k")
    return neg_q_power(k * k) * square_sum(k).invert_variables()


# ---------------------------------------------------------------------------
# single-power substitutions of T_k


@_memo
def tk_at(eps: int, b: int, k: int) -> LaurentPoly:
    """T_k at ``t = eps * q**b`` by direct substitution into :func:`tk_recurrence`.

    Cached, so a repeated call returns the same object: a miss folds the t-rows
    of ``tk_recurrence(k)`` into one q-row.  Like every memo (see
    ``exactalg._memo``), it grows with each b swept.
    """
    eps, b, k = _sign(eps, "eps"), index(b), index(k)
    return tk_recurrence(k).substitute_t(eps, b)


# ---------------------------------------------------------------------------
# normalized (t,q)-Euler number formulas


def _euler_ballot_kernel(k: int) -> list[Item]:
    return [(1, k, k * (k + 1), (tk_recurrence(k).invert_variables(),))]


def euler_hat_ballot(n: int) -> LaurentPoly:
    """``sum_k ballot(n,k) * t**k * q**(k(k+1)) * T_k(1/t, 1/q)``.

    Equals the continued-fraction value ``euler_hat(n)``.
    """
    return _ballot_sum(n, _euler_ballot_kernel)


def _secant_kernel(k: int) -> list[Item]:
    return [(1, 0, k * (k + 1), (square_sum(k).invert_variables(),))]


def secant_hat_closed(n: int) -> LaurentPoly:
    """``(1-q)**(2n) * E_{2n}(q)`` as a ballot sum over shifted square sums."""
    return _ballot_sum(n, _secant_kernel)


def a_k_inverse(k: int) -> LaurentPoly:
    """The polynomial ``A_k(1/q)``, recovered by exact division."""
    return (monomial(-1, 0, 1) * a_k_poly(k).invert_variables()).divide_exact(1, [1])


def _tangent_kernel(k: int) -> list[Item]:
    return [(1, 0, k * (k + 2), (a_k_inverse(k),))]


def tangent_hat_closed(n: int) -> LaurentPoly:
    """``(1-q)**(2n) * E_{2n+1}(q)`` as a ballot sum over ``A_k(1/q)``."""
    return _ballot_sum(n, _tangent_kernel)


def _touchard_riordan_kernel(k: int) -> list[Item]:
    return [(-1 if k % 2 else 1, 0, k * (k + 1) // 2, ())]


def dn_touchard_riordan(n: int) -> LaurentPoly:
    """``(1-q)**n * d_n = sum_k ballot(n,k) * (-1)**k * q**(k(k+1)/2)``."""
    return _ballot_sum(n, _touchard_riordan_kernel)


def _josuat_verges_kernel(k: int) -> list[Item]:
    return [
        (-1 if (k + i) % 2 else 1, k - j, k - j + math.comb(j + 1, 2),
         (bj, gauss_binom(2 * k - 2 * j, i)))
        for j in range(2 * k + 1) if (bj := gauss_binom(2 * k - j, j))
        for i in range(2 * k - 2 * j + 1)
    ]


def euler_hat_josuat_verges(n: int) -> LaurentPoly:
    """The moment-style triple sum for ``euler_hat(n)`` with base-q binomials."""
    return _ballot_sum(n, _josuat_verges_kernel)


def _odd_pochhammer_kernel(k: int) -> list[Item]:
    # (-q)**k times the inner sum, folded into each item
    return [
        (-1 if k % 2 else 1, i, k + math.comb(k - i, 2),
         (odd_pochhammer(i), gauss_binom(k + i, k - i)))
        for i in range(k + 1)
    ]


def euler_hat_odd_pochhammer(n: int) -> LaurentPoly:
    """The single-binomial sum for ``euler_hat(n)`` with odd-base Pochhammers."""
    return _ballot_sum(n, _odd_pochhammer_kernel)


def _secant_original_kernel(k: int) -> list[Item]:
    return [(-1 if (i + k) % 2 else 1, 0, i * (2 * k - i) + k, ()) for i in range(2 * k + 1)]


def secant_hat_original(n: int) -> LaurentPoly:
    """``(1-q)**(2n) * E_{2n}(q)`` in the unshifted index form."""
    return _ballot_sum(n, _secant_original_kernel)


def _tangent_original_kernel(k: int) -> list[Item]:
    # the form sums (ballot(n,k) + ballot(n,k+1)) * L_k with
    # L_k = sum_{i<2k+2} (-1)**(i+k) * q**(i(2k+2-i)); grouped by ballot number,
    # K_k = L_k + L_{k-1}, where L_{-1} is the empty sum
    return [
        (-1 if (i + m) % 2 else 1, 0, i * (2 * m + 2 - i), ())
        for m in (k, k - 1)
        for i in range(2 * m + 2)
    ]


def tangent_hat_original(n: int) -> LaurentPoly:
    """``(1-q)**(2n+1) * E_{2n+1}(q)`` in the unshifted index form.

    Note the extra factor of (1-q) relative to :func:`tangent_hat_closed`;
    the two are compared as ``tangent_hat_original(n) ==
    (1-q) * tangent_hat_closed(n)`` so the prefactor conventions never mix.
    """
    return _ballot_sum(n, _tangent_original_kernel)


def _minus_q_kernel(k: int) -> list[Item]:
    sign = -1 if k % 2 else 1
    pair = monomial(sign, 0, k * k) + monomial(sign, 0, (k + 1) ** 2)
    return [(1, 0, 0, (pair.divide_exact(-1, [1]),))]


def euler_hat_at_minus_q(n: int) -> LaurentPoly:
    """``euler_hat(n)`` at ``t = -q``: ballot sum of
    ``(-1)**k * (q**(k*k) + q**((k+1)**2)) / (1+q)``.

    Each summand is divided exactly on its own: ``q**(k*k) * (1 + q**(2k+1))``
    is divisible by ``1 + q`` because the inner exponent is odd.
    """
    return _ballot_sum(n, _minus_q_kernel)


def _minus_inv_q_kernel(k: int) -> list[Item]:
    return [(1, 0, 0, (square_sum(k),))]


def euler_hat_at_minus_inv_q(n: int) -> LaurentPoly:
    """``euler_hat(n)`` at ``t = -1/q``: ballot sum of the plain square sums."""
    return _ballot_sum(n, _minus_inv_q_kernel)


_X_MINUS_1 = LaurentPoly({(1, 0): 1, (0, 0): -1})


def dist_box_closed(m: int, n: int) -> LaurentPoly:
    """Closed form of the distinct-part distribution over partitions in a box:
    ``sum_i q**C(i+1,2) * [n choose i]_q * [n+m-i choose m-i]_q * (x-1)**i``
    with x carried in the t exponent slot, as one packed sum."""
    m, n = _size(m, "m"), _size(n, "n")
    return _sum_of_products(
        (1, 0, math.comb(i + 1, 2), (gauss_binom(n, i), gauss_binom(n + m - i, m - i), *[_X_MINUS_1] * i))
        for i in range(m + 1)
    )


# ---------------------------------------------------------------------------
# the rational double-sum evaluation


Bracket = Callable[[int, "Fraction", "Fraction"], "Fraction"]


def zeng_bracket_qint(m: int, t0: Fraction, q0: Fraction) -> Fraction:
    """Candidate bracket reading ``[m] = (1 - t*q**m) / (1 - q)``."""
    if q0 == 1:
        raise ZeroDenominatorError("bracket undefined at q = 1")
    return (1 - t0 * q0**m) / (1 - q0)


# Adopted after numeric validation against the continued-fraction values:
# the additive reading fails at every sample point of ``registry.ZENG_SAMPLE_POINTS``,
# the quotient reading reproduces them exactly (see tests/test_formulas.py).
DEFAULT_ZENG_BRACKET: Bracket = zeng_bracket_qint


def zeng_value(
    n: int,
    t0: Fraction | int,
    q0: Fraction | int,
    bracket: Bracket | None = None,
) -> Fraction:
    """The double-sum rational evaluation of ``E_n(t, q)`` at ``(t0, q0)``.

    Exact rational arithmetic throughout: a point that is not an int or a Fraction, a float
    among them, raises ``TypeError``, and :class:`~tqeuler.exactalg.ZeroDenominatorError` means a
    denominator factor vanishes at it.  The brackets are Fractions, each evaluated once; the double
    sum runs on their integer numerators and denominators, one ``(numerator, denominator)`` pair
    per term added without reduction, and one Fraction is built at the end.
    """
    from fractions import Fraction

    if _size(n, "n") > 5:
        raise ValueError("n must be between 0 and 5")
    if not (isinstance(t0, (int, Fraction)) and isinstance(q0, (int, Fraction))):
        raise TypeError("t0 and q0 must be ints or Fractions")
    t0, q0 = Fraction(t0), Fraction(q0)
    if t0 == 0 or q0 == 0:
        raise ZeroDenominatorError("t0 and q0 must be nonzero")
    br = bracket or DEFAULT_ZENG_BRACKET

    brackets = {m: br(m, t0, q0) for m in range(1, 2 * n + 2)}  # [1] .. [2n+1]
    fact, q_ints = [Fraction(1)], [Fraction(1)]  # fact[m] = [1]..[2m]; q_ints[l] = [2][4]..[2l]
    for r in range(1, n + 1):
        fact.append(fact[-1] * brackets[2 * r - 1] * brackets[2 * r])
        q_ints.append(q_ints[-1] * (2 * r if q0 == 1 else (1 - q0 ** (2 * r)) / (1 - q0)))
    power = [brackets[2 * i + 1] ** (2 * n) for i in range(n + 1)]
    # [2s + 2] at t0**2 for every s = kk + i with kk != i, i.e. s = 1 .. 2n-1
    square = {s: br(2 * s + 2, t0 * t0, q0) for s in range(1, 2 * n)}
    num, den = 0, 1
    for m in range(n + 1):
        for i in range(m + 1):
            below = [q_ints[i], q_ints[m - i], *(square[kk + i] for kk in range(m + 1) if kk != i)]
            if not all(below):
                raise ZeroDenominatorError("a bracket factor vanished at the sample point")
            above = [q0 ** (2 * m - 2 * i * n + i * i - n - i), fact[m], power[i]]
            # the term prod(above) / prod(below) as an unreduced integer pair
            top = math.prod(f.numerator for f in above) * math.prod(f.denominator for f in below)
            bottom = math.prod(f.denominator for f in above) * math.prod(f.numerator for f in below)
            num, den = num * bottom + (-1) ** (n - i) * top * den, den * bottom
    return Fraction(num * t0.denominator**n, den * t0.numerator**n)
