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
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from .exactalg import LaurentPoly, ONE, ONE_MINUS_Q, ZERO, Series, _Layout

__all__ = [
    "SFractionSpec",
    "sfrac_expand",
    "sfrac_moments",
    "euler_coeff",
    "euler_hat",
    "dn_hat",
    "en_even_q",
    "en_odd_q",
]


@dataclass(frozen=True)
class SFractionSpec:
    """Coefficient rule ``h -> c_h`` (h >= 1) plus a truncation order.

    Only ``c_1 .. c_order`` are ever consulted.
    """

    coeff_fn: Callable[[int], LaurentPoly]
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")


def sfrac_moments(coeff_fn: Callable[[int], LaurentPoly], order: int) -> list[LaurentPoly]:
    """Moments ``mu_0 .. mu_order`` of the S-fraction with coefficients ``c_h``.

    Walks all lattice prefixes step by step: up steps carry weight 1, a down
    step from height h carries ``c_h``.  A prefix at step s and height h only
    matters if it can still return to height 0 by step ``2*order``, so heights
    above ``min(order, 2*order - s)`` are pruned.

    The state at each height is one packed int (see ``exactalg._Layout``), so an
    up step is an int addition and a down step is a sum of shifted integer
    multiples, one per term of ``c_h``; no polynomial is built until the
    moments are unpacked.  The layout is derived before the walk:

    * Every ``c_h`` is divided by ``t**tmin * q**qmin``, the smallest exponents
      over all ``c_h``, so every exponent is nonnegative.  A path to moment m
      has exactly m down steps, so moment m is multiplied back by
      ``t**(m*tmin) * q**(m*qmin)``.
    * The degree box of each moment comes from a max-plus pass over the same
      lattice; the row stride exceeds every moment's q-degree.
    * Moment m is a sum over at most 4**m Dyck paths of products of m
      coefficients, so each of its coefficients is at most
      ``(4 * max_h |c_h|_1)**order`` in magnitude; the slot width holds that
      plus a sign bit (4*order + 2 bits for :func:`euler_coeff`).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    c = {h: LaurentPoly._coerce(coeff_fn(h)).terms for h in range(1, order + 1)}
    live = [terms for terms in c.values() if terms]
    if not live:
        return [ONE] + [ZERO] * order
    tmin = min(et for terms in live for et, _ in terms)
    qmin = min(eq for terms in live for _, eq in terms)
    norm = max(sum(map(abs, terms.values())) for terms in live)

    # Max-plus pass: the largest shifted t- and q-exponent reachable at each
    # lattice point; None marks a point no nonzero path reaches.
    tdeg = {h: max(et for et, _ in terms) - tmin for h, terms in c.items() if terms}
    qdeg = {h: max(eq for _, eq in terms) - qmin for h, terms in c.items() if terms}
    reach: list[tuple[int, int] | None] = [(0, 0)]
    boxes = [(0, 0)]
    for step in range(1, 2 * order + 1):
        top = min(order, 2 * order - step)
        nxt: list[tuple[int, int] | None] = [None] * (top + 1)
        for h, here in enumerate(reach):
            if here is None:
                continue
            if h + 1 <= top:
                nxt[h + 1] = _max_pair(nxt[h + 1], here)
            if h >= 1 and h in tdeg:
                nxt[h - 1] = _max_pair(nxt[h - 1], (here[0] + tdeg[h], here[1] + qdeg[h]))
        reach = nxt
        if step % 2 == 0:
            boxes.append(reach[0])
    stride = max(box[1] for box in boxes if box is not None) + 1
    layout = _Layout.fitting(stride, (4 * norm) ** order)

    # The walk itself, on packed ints: the down step from h sums one shifted
    # multiple of the state per term of c_h.
    down = {h: layout.shifts(terms, tmin, qmin) for h, terms in c.items()}
    state = [1]
    moments = [ONE]
    for step in range(1, 2 * order + 1):
        top = min(order, 2 * order - step)
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
        if step % 2 == 0:
            m = step // 2
            box = boxes[m]
            if box is None:
                moments.append(ZERO)
            else:
                mbox = (m * tmin, m * tmin + box[0], m * qmin, m * qmin + box[1])
                terms = layout.unpack(state[0], mbox)
                moments.append(LaurentPoly._trusted(terms))
    return moments


def _max_pair(a: tuple[int, int] | None, b: tuple[int, int]) -> tuple[int, int]:
    return b if a is None else (max(a[0], b[0]), max(a[1], b[1]))


def sfrac_expand(spec: SFractionSpec) -> Series:
    """The S-fraction as a truncated :class:`Series` in ``x``."""
    return Series(spec.order, sfrac_moments(spec.coeff_fn, spec.order))


def euler_coeff(h: int) -> LaurentPoly:
    """``(1 - q**h) * (1 - t*q**h)``, the normalized fraction coefficient."""
    return LaurentPoly({(0, 0): 1, (0, h): -1}) * LaurentPoly({(0, 0): 1, (1, h): -1})


_euler_cache: dict[int, LaurentPoly] = {}
_dn_cache: dict[int, LaurentPoly] = {}
_cache_lock = threading.Lock()


def euler_hat(n: int) -> LaurentPoly:
    """Normalized (t,q)-Euler number ``(1-q)**(2n) * E_n(t,q)``.

    The shared cache is write-once: concurrent callers may recompute a value
    but always store and observe the same polynomial.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cached = _euler_cache.get(n)
    if cached is not None:
        return cached
    moments = sfrac_moments(euler_coeff, n)
    with _cache_lock:
        for m, value in enumerate(moments):
            _euler_cache.setdefault(m, value)
    return _euler_cache[n]


def dn_hat(n: int) -> LaurentPoly:
    """``(1-q)**n * d_n``: moments of the fraction with ``c_h = 1 - q**h``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    cached = _dn_cache.get(n)
    if cached is not None:
        return cached
    moments = sfrac_moments(lambda h: LaurentPoly({(0, 0): 1, (0, h): -1}), n)
    with _cache_lock:
        for m, value in enumerate(moments):
            _dn_cache.setdefault(m, value)
    return _dn_cache[n]


def en_even_q(n: int) -> LaurentPoly:
    """The classical q-secant value E_{2n}(q), via ``euler_hat(n)`` at t = 1."""
    return euler_hat(n).substitute_t(1, 0).divide_exact(ONE_MINUS_Q ** (2 * n))


def en_odd_q(n: int) -> LaurentPoly:
    """The classical q-tangent value E_{2n+1}(q), via ``euler_hat(n)`` at t = q."""
    return euler_hat(n).substitute_t(1, 1).divide_exact(ONE_MINUS_Q ** (2 * n))
