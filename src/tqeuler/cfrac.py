"""S-fraction coefficient extraction.

An S-fraction is the continued fraction ``1 / (1 - c_1 x / (1 - c_2 x / ...))``.
Its power-series coefficient of ``x**n`` (the n-th moment) equals the sum over
Dyck paths of length 2n of the product of ``c_h`` over down steps from height
``h``.  That weighted-path dynamic program is the only expansion algorithm
used here; nested symbolic division is never performed.

This module is the ground-truth definition of the normalized (t,q)-Euler
numbers ``euler_hat(n) = (1-q)**(2n) * E_n(t,q)`` (moments of the fraction
with ``c_h = (1-q**h)(1-t*q**h)``) and of the Touchard-Riordan quantity
``dn_hat(n) = (1-q)**n * d_n`` (moments with ``c_h = 1-q**h``).

Both are cached by n: a miss walks the DP once, to order n, and decodes
moment n alone by one ``_Layout.unpack``; later requests return that same
``LaurentPoly``.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from typing import Callable

from .exactalg import LaurentPoly, ONE_MINUS_Q, _Layout, _size
from .qkit import euler_down, euler_up

__all__ = [
    "euler_coeff",
    "euler_hat",
    "dn_hat",
    "en_even_q",
    "en_odd_q",
]


def _moment(coeff_fn: Callable[[int], LaurentPoly], n: int) -> LaurentPoly:
    """Moment n of the S-fraction with coefficients ``c_h = coeff_fn(h)``.

    Walks all lattice prefixes step by step: up steps carry weight 1, a down
    step from height h carries ``c_h``.  A prefix at step s and height h only
    matters if it can still return to height 0 by step ``2*n``, so heights
    above ``min(n, 2*n - s)`` are pruned.

    The state at each height is one packed int (see ``exactalg._Layout``), so an
    up step is an int addition and a down step is a sum of shifted integer
    multiples, one per term of ``c_h``; no polynomial is built here, and one
    ``_Layout.unpack`` decodes moment n.  The layout is derived before the walk:

    * Every ``c_h`` is divided by ``t**tmin * q**qmin``, the smallest exponents
      over all ``c_h`` (0 if every ``c_h`` is zero), so every exponent is
      nonnegative.  A path to moment n has exactly n down steps, so the moment
      is multiplied back by ``t**(n*tmin) * q**(n*qmin)``.
    * Degree box.  A Dyck path of length 2n has at most ``n - h + 1`` down
      steps from height h or above: each is matched with an up step to the
      same height, and h - 1 of the n up steps go to heights 1..h-1.  So its
      j-th highest down step is at height at most ``n - j + 1``.  Let D(h) be
      the largest shifted t-degree (or q-degree) over ``c_1 .. c_h``, 0 for a
      zero ``c``; D is nondecreasing, so every shifted degree of moment n is
      at most ``D(1) + ... + D(n)``.  That sum is the box, and the row stride
      is its q-bound plus 1.  For :func:`euler_coeff` and ``euler_up`` the
      single-peak path reaches the bound.
    * Moment n is a sum over at most 4**n Dyck paths of products of n
      coefficients, so each of its coefficients is at most
      ``(4 * max_h |c_h|_1)**n`` in magnitude; the slot width holds that
      plus a sign bit (4*n + 2 bits for :func:`euler_coeff`).
    """
    n = _size(n, "order")
    c = {h: coeff_fn(h).terms for h in range(1, n + 1)}
    tmin = min((et for terms in c.values() for et, _ in terms), default=0)
    qmin = min((eq for terms in c.values() for _, eq in terms), default=0)
    norm = max((sum(map(abs, terms.values())) for terms in c.values()), default=0)
    # shifted degrees of each c_h, their running maxima D(h), and the bound D(1) + ... + D(n)
    tdeg = (max((et - tmin for et, _ in terms), default=0) for terms in c.values())
    qdeg = (max((eq - qmin for _, eq in terms), default=0) for terms in c.values())
    tbound = sum(accumulate(tdeg, max))
    qbound = sum(accumulate(qdeg, max))
    layout = _Layout.fitting(qbound + 1, (4 * norm) ** n)

    # The walk itself, on packed ints: the down step from h sums one shifted
    # multiple of the state per term of c_h.
    down = {h: layout.shifts(terms, tmin, qmin) for h, terms in c.items()}
    state = [1]
    for step in range(1, 2 * n + 1):
        top = min(n, 2 * n - step)
        nxt_state = [0] * (top + 1)
        for h, x in enumerate(state):
            if not x:
                continue
            if h + 1 <= top:
                nxt_state[h + 1] += x
            if h >= 1:
                acc = nxt_state[h - 1]
                for coef, shift in down[h]:
                    # every term of euler_coeff is +-1, which needs no scaled copy of x
                    if coef == 1:
                        acc += x << shift
                    elif coef == -1:
                        acc -= x << shift
                    else:
                        acc += (coef * x) << shift
                nxt_state[h - 1] = acc
        state = nxt_state
    return layout.unpack(state[0], (n * tmin, n * tmin + tbound, n * qmin, n * qmin + qbound))


def euler_coeff(h: int) -> LaurentPoly:
    """``(1 - q**h) * (1 - t*q**h)``, the normalized fraction coefficient."""
    return euler_up(h) * euler_down(h)


@cache
def euler_hat(n: int) -> LaurentPoly:
    """Normalized (t,q)-Euler number ``(1-q)**(2n) * E_n(t,q)``."""
    return _moment(euler_coeff, n)


@cache
def dn_hat(n: int) -> LaurentPoly:
    """``(1-q)**n * d_n``: moments of the fraction with ``c_h = 1 - q**h``."""
    return _moment(euler_up, n)


def en_even_q(n: int) -> LaurentPoly:
    """The classical q-secant value E_{2n}(q), via ``euler_hat(n)`` at t = 1."""
    return euler_hat(n).substitute_t(1, 0).divide_exact(ONE_MINUS_Q ** (2 * n))


def en_odd_q(n: int) -> LaurentPoly:
    """The classical q-tangent value E_{2n+1}(q), via ``euler_hat(n)`` at t = q."""
    return euler_hat(n).substitute_t(1, 1).divide_exact(ONE_MINUS_Q ** (2 * n))
