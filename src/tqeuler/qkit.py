"""q-calculus building blocks.

q-integers, the Euler step weights ``1 - q**h`` and ``1 - t*q**h``,
q-Pochhammer symbols ``(sign * q**power; q)_length``, named by those three
ints (including shifted bases such as ``-q**(1-b)``), Gaussian binomial
coefficients in base q and base q**2, ballot numbers, and the auxiliary
polynomial family ``(1-q) * A_k(q)``.

All functions are pure.  The q-integers, the Gaussian binomials, the q-Pochhammer
and odd q-Pochhammer symbols, the square sums and each ballot kernel's ``K_k``
are memoised by ``exactalg._memo``, so concurrent callers get equal results;
``tqeuler.clear_caches()`` empties them.  Each memo keeps the polynomial
itself, and one packed ``exactalg._sum_of_products`` sums the weighted ``K_k``
over k from the row ints each ``K_k`` keeps.
"""

from __future__ import annotations

import math
from operator import index
from typing import Callable, Iterable

from .exactalg import Item, LaurentPoly, ONE, ONE_MINUS_Q, ZERO, _memo, _sign, _size, _sum_of_products, monomial

__all__ = [
    "q_int",
    "pochhammer",
    "odd_pochhammer",
    "gauss_binom",
    "partition_box_binom",
    "ballot",
    "a_k_poly",
    "square_sum",
    "neg_q_power",
    "euler_up",
    "euler_down",
]


def neg_q_power(e: int) -> LaurentPoly:
    """``(-q)**e`` for any integer exponent ``e``."""
    return monomial(-1 if e % 2 else 1, 0, e)


@_memo
def q_int(n: int) -> LaurentPoly:
    """The q-integer ``1 + q + ... + q**(n-1)``; ``q_int(0) == 0``.  Cached like :func:`square_sum`."""
    return LaurentPoly({(0, e): 1 for e in range(_size(n, "n"))})


def euler_up(h: int) -> LaurentPoly:
    """``1 - q**h``, the Euler weight of an up step to height h; 0 at h = 0."""
    return ONE - monomial(1, 0, h)


def euler_down(h: int) -> LaurentPoly:
    """``1 - t*q**h``, the Euler weight of a down step from height h."""
    return ONE - monomial(1, 1, h)


@_memo
def pochhammer(sign: int, power: int, length: int) -> LaurentPoly:
    """``(sign * q**power; q)_length``: the product of ``(1 - sign * q**(power + i))`` for
    ``i = 0 .. length-1``.

    Cached, so a repeated call returns the same object: a miss multiplies the
    cached symbol one factor shorter by the last factor.
    """
    sign, power, length = _sign(sign, "sign"), index(power), _size(length, "length")
    if length == 0:
        return ONE
    # built by subtraction so that a factor 1 -+ q**0 is exactly 0 or 2
    return pochhammer(sign, power, length - 1) * (ONE - monomial(sign, 0, power + length - 1))


@_memo
def odd_pochhammer(i: int) -> LaurentPoly:
    """``(q; q**2)_i``: the product of ``(1 - q**(2j+1))`` for ``j = 0 .. i-1``.

    Cached like :func:`pochhammer`: a miss multiplies the cached symbol one
    factor shorter by the last factor.
    """
    if _size(i, "i") == 0:
        return ONE
    return odd_pochhammer(i - 1) * (ONE - monomial(1, 0, 2 * i - 1))


def gauss_binom(n: int, k: int, squared: bool = False) -> LaurentPoly:
    """Gaussian binomial coefficient.

    Out-of-range arguments (``k < 0``, ``k > n`` or ``n < 0``) give 0: the
    q-series sums in this package run past their range and truncate on it.
    With ``squared`` set, every ``q`` in the result is replaced by ``q**2``.
    Both forms are cached by ``_gauss``, which takes the smaller index and a
    positional ``squared``, so that ``k`` and ``n - k``, and ``squared`` by
    keyword or by position, share one key and a repeated call returns the same
    object.
    """
    n, k = index(n), index(k)  # TypeError for a float size, whose q-Pascal recursion need not end
    if k < 0 or n < 0 or k > n:
        return ZERO
    return _gauss(n, min(k, n - k), squared)


@_memo
def _gauss(n: int, k: int, squared: bool) -> LaurentPoly:
    """``[n, k]`` for ``0 <= k <= n - k``, as :func:`gauss_binom` calls it."""
    if k == 0:
        return ONE
    if squared:
        return _gauss(n, k, False).scale_q(2)
    # q-Pascal: [n,k] = [n-1,k-1] + q^k [n-1,k]
    return _gauss(n - 1, k - 1, False) + monomial(1, 0, k) * _gauss(n - 1, min(k, n - 1 - k), False)


def partition_box_binom(rows: int, cols: int, squared: bool = False) -> LaurentPoly:
    """Generating function of partitions inside a ``rows x cols`` box.

    Equals ``gauss_binom(rows + cols, rows)`` for nonnegative dimensions.  A
    negative dimension gives 0, so that the lattice-path closed forms truncate
    on it as the q-series sums do on :func:`gauss_binom`; but a box with zero
    rows holds the empty partition even when the column count is negative,
    the reading those closed forms rely on.
    """
    rows, cols = index(rows), index(cols)  # TypeError for a non-integer, also at a base case
    if rows == 0:
        return ONE
    if rows < 0 or cols < 0:
        return ZERO
    return gauss_binom(rows + cols, rows, squared=squared)


def ballot(n: int, k: int) -> int:
    """``C(2n, n-k) - C(2n, n-k-1)`` with out-of-range binomials equal to 0;
    a negative ``n`` or ``k`` raises ``ValueError``."""
    n, k = _size(n, "n"), _size(k, "k")

    def c(m: int, j: int) -> int:
        return math.comb(m, j) if 0 <= j <= m else 0

    return c(2 * n, n - k) - c(2 * n, n - k - 1)


def _ballot_sum(n: int, kernel: Callable[..., Iterable[Item]], *args) -> LaurentPoly:
    """The ballot expansion ``sum_{k=0}^{n} ballot(n,k) * K_k``.

    ``kernel(k, *args)`` gives ``K_k`` as :func:`tqeuler.exactalg._sum_of_products` items.  Each
    ``K_k`` is summed once per ``(kernel, k, *args)`` and kept by :func:`_kernel`: the kernel's
    arguments join the cache key, so a kernel must be module-level and takes its parameters as
    arguments; each ``n`` only adds the weighted ``K_k``, as the items ``(ballot(n, k), 0, 0,
    (K_k,))`` of one packed sum, whose slots hold ``sum |ballot(n, k)| * |K_k|_1``; a ``K_k``
    converts its rows to ints once per slot width over every ``n``.  Kept out of ``__all__`` so
    that profiling wrappers, which follow ``__all__``, charge the time of each expansion to its
    formula.  Like every memo (see ``exactalg._memo``), :func:`_kernel` grows with each argument
    swept.
    """
    n = _size(n, "n")
    return _sum_of_products((ballot(n, k), 0, 0, (_kernel(kernel, k, *args),)) for k in range(n + 1))


@_memo
def _kernel(kernel: Callable[..., Iterable[Item]], k: int, *args) -> LaurentPoly:
    """``K_k`` of a module-level ``kernel``, summed on the first request only and kept
    under a typed key (see ``exactalg._memo``)."""
    return _sum_of_products(kernel(k, *args))


def a_k_poly(k: int) -> LaurentPoly:
    """The cleared-denominator form ``(1-q) * A_k(q)``.

    For ``k >= 1`` this is ``sum_{i=-k}^{k} (-q)**(i*i) +
    q**(2k+1) * sum_{i=-(k-1)}^{k-1} (-q)**(i*i)``; for ``k == 0`` it is
    ``1 - q``.  Consumers recover ``A_k`` itself by exact division, which
    keeps the whole computation inside the Laurent ring.
    """
    if _size(k, "k") == 0:
        return ONE_MINUS_Q
    first = square_sum(k)
    second = square_sum(k - 1)
    return first + monomial(1, 0, 2 * k + 1) * second


@_memo
def square_sum(m: int) -> LaurentPoly:
    """``sum_{i=-m}^{m} (-q)**(i*i)``; ``i*i`` has the parity of ``i``.  Cached, so that
    a square sum keeps its packed forms from one packed sum to the next."""
    return LaurentPoly({(0, 0): 1, **{(0, i * i): 2 * (-1) ** i for i in range(1, _size(m, "m") + 1)}})
