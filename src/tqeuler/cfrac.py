"""S-fraction coefficient extraction.

An S-fraction is the continued fraction ``1 / (1 - c_1 x / (1 - c_2 x / ...))``.
Its power-series coefficient of ``x**n`` (the n-th moment) equals the sum over
Dyck paths of length 2n of the product of ``c_h`` over down steps from height
``h``.  That weighted-path dynamic program is the only expansion algorithm
used here; nested symbolic division is never performed.

This module is the ground-truth definition of the normalized (t,q)-Euler
numbers ``euler_hat(n) = (1-q)**(2n) * E_n(t,q)`` (moments of the fraction
with ``c_h = (1-q**h)(1-t*q**h)``, the product of the two Euler step weights
``qkit.euler_up(h)`` and ``qkit.euler_down(h)``) and of the Touchard-Riordan
quantity ``dn_hat(n) = (1-q)**n * d_n`` (moments with ``c_h = 1-q**h``).
The DP takes each ``c_h`` as its binomial factors ``1 - t**a * q**b``, read
off the step weights by ``_binomial`` once per h, so no coefficient polynomial
is built.

Both are cached by n: a miss walks the DP once, to order n, and decodes
moment n alone by one ``_Layout.unpack``; later requests return that same
``LaurentPoly``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

from .exactalg import ExpPair, LaurentPoly, _Layout, _memo, _size
from .qkit import euler_down, euler_up

__all__ = [
    "euler_hat",
    "dn_hat",
    "en_even_q",
    "en_odd_q",
]


def _moment(binomials: Callable[[int], Sequence[ExpPair]], n: int) -> LaurentPoly:
    """Moment n of the S-fraction with ``c_h`` the product of ``1 - t**a * q**b``
    over the pairs ``(a, b)`` of ``binomials(h)``, each with a, b >= 0.

    No pairs make ``c_h = 1``, and a pair (0, 0) makes it 0.  Walks all
    lattice prefixes step by step: up steps carry weight 1, a down step from
    height h carries ``c_h``.  A prefix at step s and height h only matters if
    it can still return to height 0 by step ``2*n``, so heights above
    ``min(n, 2*n - s)`` are pruned.

    The state at each height is one packed int (see ``exactalg._Layout``):
    packing is the evaluation at ``t = 2**(8*width*stride)``, ``q =
    2**(8*width)``, a ring homomorphism, so multiplying by ``1 - t**a * q**b``
    is exactly ``x -= x << shift``, one per pair of a down step, and an up
    step is an int addition.  The walk is exact whatever the layout, since
    ints do not overflow; only the decode of moment n, by one
    ``_Layout.unpack``, needs the layout to fit it, and that layout is
    derived before the walk:

    * Degree box.  Every exponent is nonnegative, so the box starts at (0, 0).
      A Dyck path of length 2n has at most ``n - h + 1`` down steps from
      height h or above: each is matched with an up step to the same height,
      and h - 1 of the n up steps go to heights 1..h-1.  So its j-th highest
      down step is at height at most ``n - j + 1``.  Let D(h) be the largest
      sum of a (or of b) over the pairs of ``c_1 .. c_h``, the t-degree (or
      q-degree) of a nonzero ``c_h``; D is nondecreasing, so every degree of
      moment n is at most ``D(1) + ... + D(n)``.  That sum is the box, and
      the row stride is its q-bound plus 1.  For the Euler rules the
      single-peak path reaches the bound.
    * Slot bound.  A product of m binomials has l1 norm at most ``2**m``, and
      moment n is a sum over at most 4**n Dyck paths of products of n
      coefficients, so each of its coefficients is at most ``(4 * 2**m)**n``
      in magnitude, m the most pairs of any ``c_h``; the slot width holds
      that plus a sign bit (4*n + 2 bits, 16**n, for ``euler_hat``).
    """
    n = _size(n, "order")
    pairs = [binomials(h) for h in range(1, n + 1)]
    tbound = sum(accumulate((sum(a for a, _ in ps) for ps in pairs), max))
    qbound = sum(accumulate((sum(b for _, b in ps) for ps in pairs), max))
    layout = _Layout.fitting(qbound + 1, (4 << max(map(len, pairs), default=0)) ** n)
    # down[j]: the shift of each pair of c_{j+1}, the weight of a down step to height j
    down = [[layout.shift(a, b) for a, b in ps] for ps in pairs]

    state = [1]
    for step in range(1, 2 * n + 1):
        top = min(n, 2 * n - step)
        nxt = [0] * (top + 1)
        # heights of the step's parity that the walk has reached: a down step from
        # j + 1, where the last step kept that height, plus an up step from j - 1
        for j in range(step % 2, min(top, step) + 1, 2):
            if j + 1 < len(state):
                x = state[j + 1]
                for shift in down[j]:
                    x -= x << shift
                nxt[j] = x + state[j - 1] if j else x
            else:
                nxt[j] = state[j - 1]
        state = nxt
    return layout.unpack(state[0], (0, tbound, 0, qbound))


@_memo
def _binomial(rule: Callable[[int], LaurentPoly], h: int) -> ExpPair:
    """``(a, b)`` of the step weight ``rule(h)``, read once per rule and h; a weight
    that is not exactly ``1 - t**a * q**b`` with a, b >= 0 raises ``ValueError``."""
    match rule(h).sorted_terms():
        case [((0, 0), 1), ((a, b), -1)] if b >= 0:  # sorted after (0, 0), so a >= 0
            return a, b
    raise ValueError(f"step weight {rule(h)} is not 1 - t**a * q**b with a, b >= 0")


@_memo
def euler_hat(n: int) -> LaurentPoly:
    """Normalized (t,q)-Euler number ``(1-q)**(2n) * E_n(t,q)``."""
    return _moment(lambda h: (_binomial(euler_up, h), _binomial(euler_down, h)), n)


@_memo
def dn_hat(n: int) -> LaurentPoly:
    """``(1-q)**n * d_n``: moments of the fraction with ``c_h = 1 - q**h``."""
    return _moment(lambda h: (_binomial(euler_up, h),), n)


def en_even_q(n: int) -> LaurentPoly:
    """The classical q-secant value E_{2n}(q), via ``euler_hat(n)`` at t = 1."""
    return euler_hat(n).substitute_t(1, 0).divide_exact(1, [1] * (2 * n))


def en_odd_q(n: int) -> LaurentPoly:
    """The classical q-tangent value E_{2n+1}(q), via ``euler_hat(n)`` at t = q."""
    return euler_hat(n).substitute_t(1, 1).divide_exact(1, [1] * (2 * n))
