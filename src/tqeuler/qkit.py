"""q-calculus building blocks.

q-integers, the Euler step weights ``1 - q**h`` and ``1 - t*q**h``,
q-Pochhammer symbols (including shifted bases such as ``-q**(1-b)``),
Gaussian binomial coefficients in base q and base q**2, ballot numbers, and
the auxiliary polynomial family ``(1-q) * A_k(q)``.

All functions are pure.  The Gaussian binomials, the q-Pochhammer and odd
q-Pochhammer symbols, the square sums and each ballot kernel's ``K_k`` are
memoised with ``functools.cache``, so concurrent callers get equal results;
``tqeuler.clear_caches()`` empties them.  ``K_k`` is kept as the rows
of its polynomial (``LaurentPoly._rows``), the one form of ``exactalg``, and
summed over k by ``exactalg._sum_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from operator import index
from typing import Callable, Iterable

from .exactalg import Item, LaurentPoly, ONE, ONE_MINUS_Q, ZERO, Row, _sum_of_products, _sum_rows, monomial

__all__ = [
    "QSymbolSpec",
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


def q_int(n: int) -> LaurentPoly:
    """The q-integer ``1 + q + ... + q**(n-1)``; ``q_int(0) == 0``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # one row, wrapped as it is: through the validating constructor the q-integer
    # oracle tests of tests/test_combinat.py took about 0.4 s longer
    return LaurentPoly._trusted(((0, 0, (1,) * n),) if n else ())


def euler_up(h: int) -> LaurentPoly:
    """``1 - q**h``, the Euler weight of an up step to height h; 0 at h = 0."""
    return ONE - monomial(1, 0, h)


def euler_down(h: int) -> LaurentPoly:
    """``1 - t*q**h``, the Euler weight of a down step from height h."""
    return ONE - monomial(1, 1, h)


@dataclass(frozen=True)
class QSymbolSpec:
    """A q-Pochhammer symbol ``(sign * q**base_power; q)_length``."""

    base_sign: int
    base_power: int
    length: int

    def __post_init__(self):
        if self.base_sign not in (1, -1):
            raise ValueError("base_sign must be +1 or -1")
        # TypeError for a non-integer: an equal spec with an int field may already be cached
        index(self.base_power)
        if index(self.length) < 0:
            raise ValueError("length must be nonnegative")


@cache
def pochhammer(spec: QSymbolSpec) -> LaurentPoly:
    """Product of ``(1 - sign * q**(base_power + i))`` for ``i = 0 .. length-1``.

    Cached by ``spec``, so a repeated call returns the same object; a miss
    multiplies the cached symbol one factor shorter by the last factor.
    """
    if spec.length == 0:
        return ONE
    sign, power, length = spec.base_sign, spec.base_power, spec.length
    shorter = pochhammer(QSymbolSpec(sign, power, length - 1))
    # built by subtraction so that a factor 1 -+ q**0 is exactly 0 or 2
    return shorter * (ONE - monomial(sign, 0, power + length - 1))


@cache
def odd_pochhammer(i: int) -> LaurentPoly:
    """``(q; q**2)_i``: the product of ``(1 - q**(2j+1))`` for ``j = 0 .. i-1``.

    Cached like :func:`pochhammer`: a miss multiplies the cached symbol one
    factor shorter by the last factor.
    """
    if index(i) < 0:  # TypeError for a non-integer, which would otherwise count down past 0
        raise ValueError("i must be nonnegative")
    if i == 0:
        return ONE
    return odd_pochhammer(i - 1) * (ONE - monomial(1, 0, 2 * i - 1))


def gauss_binom(n: int, k: int, squared: bool = False) -> LaurentPoly:
    """Gaussian binomial coefficient.

    Out-of-range arguments (``k < 0``, ``k > n`` or ``n < 0``) give 0, the
    convention the q-series sums in this package rely on.  With ``squared``
    set, every ``q`` in the result is replaced by ``q**2``.  Both forms are
    cached, so a repeated call returns the same object.
    """
    n, k = index(n), index(k)  # before the cache: a float size recursed forever
    if k < 0 or n < 0 or k > n:
        return ZERO
    return _gauss(n, min(k, n - k), squared)


@cache
def _gauss(n: int, k: int, squared: bool) -> LaurentPoly:
    """``[n, k]`` for ``0 <= k <= n - k``; every call passes the smaller index and a
    positional ``squared``, so each value has one cache key and one object."""
    if k == 0:
        return ONE
    if squared:
        return _gauss(n, k, False).scale_q(2)
    # q-Pascal: [n,k] = [n-1,k-1] + q^k [n-1,k]
    return _gauss(n - 1, k - 1, False) + monomial(1, 0, k) * _gauss(n - 1, min(k, n - 1 - k), False)


def partition_box_binom(rows: int, cols: int, squared: bool = False) -> LaurentPoly:
    """Generating function of partitions inside a ``rows x cols`` box.

    Equals ``gauss_binom(rows + cols, rows)`` for nonnegative dimensions.
    A box with zero rows contains only the empty partition, even when the
    column count is negative; that degenerate corner is where this differs
    from the out-of-range-is-zero convention of :func:`gauss_binom`, and it
    is exactly the reading the lattice-path closed forms rely on.
    """
    if rows == 0:
        return ONE
    if rows < 0 or cols < 0:
        return ZERO
    return gauss_binom(rows + cols, rows, squared=squared)


def ballot(n: int, k: int) -> int:
    """``C(2n, n-k) - C(2n, n-k-1)`` with out-of-range binomials equal to 0;
    ``n`` and ``k`` must be nonnegative."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")

    def c(m: int, j: int) -> int:
        return math.comb(m, j) if 0 <= j <= m else 0

    return c(2 * n, n - k) - c(2 * n, n - k - 1)


def _ballot_sum(n: int, kernel: Callable[..., Iterable[Item]], *args) -> LaurentPoly:
    """The ballot expansion ``sum_{k=0}^{n} ballot(n,k) * K_k``.

    ``kernel(k, *args)`` gives ``K_k`` as :func:`tqeuler.exactalg._sum_of_products` items.  Each
    ``K_k`` is summed once per ``(kernel, k, *args)`` and kept as dense rows: the kernel's
    arguments join the cache key, so a kernel must be module-level and takes its parameters as
    arguments; each ``n`` only adds weighted rows.  Kept out of ``__all__`` so that profiling
    wrappers, which follow ``__all__``, charge the time of each expansion to its formula.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _sum_rows((ballot(n, k), _kernel_rows(kernel, k, *args)) for k in range(n + 1))


@cache
def _kernel_rows(kernel: Callable[..., Iterable[Item]], k: int, *args) -> tuple[Row, ...]:
    """``K_k`` of a module-level ``kernel`` as rows, summed on the first request only."""
    return _sum_of_products(kernel(k, *args))._rows


def a_k_poly(k: int) -> LaurentPoly:
    """The cleared-denominator form ``(1-q) * A_k(q)``.

    For ``k >= 1`` this is ``sum_{i=-k}^{k} (-q)**(i*i) +
    q**(2k+1) * sum_{i=-(k-1)}^{k-1} (-q)**(i*i)``; for ``k == 0`` it is
    ``1 - q``.  Consumers recover ``A_k`` itself by exact division, which
    keeps the whole computation inside the Laurent ring.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return ONE_MINUS_Q
    first = square_sum(k)
    second = square_sum(k - 1)
    return first + monomial(1, 0, 2 * k + 1) * second


@cache
def square_sum(m: int) -> LaurentPoly:
    """``sum_{i=-m}^{m} (-q)**(i*i)``; ``i*i`` has the parity of ``i``.  Cached, so that
    a square sum keeps its packed forms from one packed sum to the next."""
    if index(m) < 0:  # TypeError for a non-integer, whose key never meets an int's
        raise ValueError("m must be nonnegative")
    return LaurentPoly({(0, 0): 1, **{(0, i * i): 2 * (-1) ** i for i in range(1, m + 1)}})
