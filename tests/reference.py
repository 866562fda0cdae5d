"""Reference enumerators that the tests compare the brute-force oracles with.

``enum_md_star`` lists every marked Dyck path without marked peaks, and
``enum_delta_prime`` every staircase arrow configuration without forbidden
corners, one object per leaf.  Summing ``MarkedDyckPath.weight`` or
``DeltaConfig.weight`` over them gives the values that
``tqeuler.combinat.md_star_weight_sum_general`` and
``tqeuler.combinat.delta_prime_weight_sum`` compute without building the
objects, and summing ``dyck_path_weight`` over ``dyck_paths`` (every Dyck
path, one at a time) gives ``tqeuler.combinat.dyck_weight_sum``.  The shapes, conjugates and
outer corners the configurations and ``sop_reference`` are built from are defined here
(``staircase_partitions``, ``conjugate``, ``outer_corners``), not taken from the oracles.
``MD_STAR_RULES`` names the
step-weight rule pairs the marked-path sums are tested and frozen with.
``pochhammer_product`` is the uncached product loop that the cached
``tqeuler.qkit.pochhammer`` is tested against, and ``divide_reference`` the
term-dict long division that ``LaurentPoly.divide_exact`` is tested against.
``mul_reference`` and ``add_reference`` are the schoolbook term-dict product
and the term-dict sum that the row arithmetic of ``LaurentPoly`` is tested
against, and ``exponent_map_reference`` moves every term of a polynomial by
an exponent map, the reference for its injective substitutions.
``multiply_keys_reference`` multiplies a key tally out key by key with
``LaurentPoly.__mul__``, which the packed ``tqeuler.combinat._multiply_keys``
is tested against.  ``ballot_sum_reference`` is the ballot expansion as one
packed sum with every kernel evaluated again for each n, which the cached
``tqeuler.qkit._ballot_sum`` is tested against, ``moment_boxes_reference`` the max-plus pass over the moment
DP's lattice, whose tight degree boxes lie inside the closed bounds of
``tqeuler.cfrac._moment``, and ``zeng_value_reference`` the double sum with every
bracket evaluated where it occurs, which ``tqeuler.formulas.zeng_value`` is
tested against.  ``evaluate_reference`` is the term-by-term Fraction loop that
``LaurentPoly.evaluate`` is tested against, ``substitute_t_reference`` the
term-by-term loop that the packed fold of ``LaurentPoly.substitute_t`` is tested
against, and ``sum_rows_reference`` the dense per-e_t row fold that the packed ballot
expansion of ``tqeuler.qkit._ballot_sum`` is tested against.  ``enum_alternating``
lists the up-down permutations depth first, ``alternating_reference`` filters
them from all permutations, and ``alt_statistic_reference``
counts ``count_13_2_patterns`` over every one of them, which the state transfer of
``tqeuler.combinat.alt_statistic_polynomial`` is tested against.  The last
section defines each remaining public function of ``tqeuler.qkit`` and
``tqeuler.combinat`` one term, partition or path at a time, for the
boundary table of ``test_boundaries.py``.  ``build_parser`` is the argparse
parser that the command table of ``tqeuler.cli`` replaced; ``test_cli.py``
parses every drawn command line with both, and ``json_terms`` gives the term
records that ``LaurentPoly.json_text`` writes as JSON.
"""

from __future__ import annotations

import argparse
from bisect import bisect
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations, product, repeat
from operator import add, mul
from typing import Iterator, Mapping, Sequence

from tqeuler.cli import cmd_bench, cmd_compute, cmd_verify
from tqeuler.combinat import WeightRule, _check_cutoff
from tqeuler.exactalg import (
    Box,
    ExpPair,
    LaurentPoly,
    NonDivisibleError,
    ONE,
    T,
    ZERO,
    ZeroDenominatorError,
    _sum_of_products,
    monomial,
)
from tqeuler.qkit import ballot, euler_down, q_int


@dataclass(frozen=True)
class MarkedDyckPath:
    """Dyck path whose steps may carry marks.

    ``steps`` is a tuple of (direction, marked) with direction +1 or -1.  In
    the starred family no marked up step is immediately followed by a marked
    down step.
    """

    steps: tuple[tuple[int, bool], ...]

    def is_valid_dyck(self) -> bool:
        h = 0
        for d, _ in self.steps:
            h += d
            if h < 0:
                return False
        return h == 0

    def has_marked_peak(self) -> bool:
        for i in range(len(self.steps) - 1):
            (d1, m1), (d2, m2) = self.steps[i], self.steps[i + 1]
            if d1 == 1 and d2 == -1 and m1 and m2:
                return True
        return False

    def weight(self, up_rule: WeightRule, down_rule: WeightRule) -> LaurentPoly:
        """Product of step weights; marked steps count as weight 1."""
        w = ONE
        h = 0
        for d, marked in self.steps:
            if d == 1:
                h += 1
                if not marked:
                    w = w * up_rule(h)
            else:
                if not marked:
                    w = w * down_rule(h)
                h -= 1
        return w


def dyck_paths(n: int) -> Iterator[tuple[int, ...]]:
    """All Dyck paths of length 2n as tuples of +1 (up) and -1 (down)."""

    def rec(path: tuple[int, ...], height: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield path
            return
        if height + 1 <= remaining - 1:
            yield from rec(path + (1,), height + 1, remaining - 1)
        if height > 0:
            yield from rec(path + (-1,), height - 1, remaining - 1)

    yield from rec((), 0, 2 * n)


def dyck_path_weight(
    path: tuple[int, ...], up_rule: WeightRule, down_rule: WeightRule
) -> LaurentPoly:
    """Product of the step weights of one Dyck path, one step at a time."""
    w = ONE
    h = 0
    for d in path:
        if d == 1:
            h += 1
            w = w * up_rule(h)
        else:
            w = w * down_rule(h)
            h -= 1
    return w


MD_STAR_RULES: dict[str, tuple[WeightRule, WeightRule]] = {
    "u-v": (lambda h: monomial(-1, 0, h), lambda h: monomial(-1, 1, h)),
    "ballot-q-int": (lambda h: q_int(h) - ONE, lambda h: q_int(h) - ONE),
    "q-int-euler-down": (q_int, euler_down),
}


def pochhammer_product(sign: int, power: int, length: int) -> LaurentPoly:
    """``(sign * q**power; q)_length``, one factor at a time."""
    out = ONE
    for i in range(length):
        out = out * (ONE - monomial(sign, 0, power + i))
    return out


def divide_reference(dividend: LaurentPoly, divisor: LaurentPoly) -> LaurentPoly:
    """``dividend / divisor`` by long division on term dicts.

    Each step takes the remainder's lex-largest term, found by scanning the
    whole remainder, divides it by the divisor's lex-largest term and
    subtracts that quotient term times the divisor.  A quotient term below
    the floors ``lowest exponents of dividend - lowest exponents of divisor``
    (or a coefficient remainder) raises :class:`NonDivisibleError`.
    """
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    if not dividend:
        return ZERO
    (lead_t, lead_q), lead_c = max(divisor.terms.items())
    floor_t = min(et for et, _ in dividend.terms) - min(et for et, _ in divisor.terms)
    floor_q = min(eq for _, eq in dividend.terms) - min(eq for _, eq in divisor.terms)
    rem = dict(dividend.terms)
    quo = {}
    while rem:
        top = max(rem)
        c, r = divmod(rem[top], lead_c)
        dt, dq = top[0] - lead_t, top[1] - lead_q
        if r or dt < floor_t or dq < floor_q:
            raise NonDivisibleError(f"{divisor!r} does not divide {dividend!r}")
        quo[(dt, dq)] = c
        for (et, eq), vc in divisor.terms.items():
            e = (dt + et, dq + eq)
            s = rem.get(e, 0) - c * vc
            if s:
                rem[e] = s
            else:
                del rem[e]
    return LaurentPoly(quo)


def json_terms(poly: LaurentPoly) -> list[dict[str, object]]:
    """The canonical JSON records of a polynomial: its sorted terms, coefficients as decimal strings."""
    return [{"et": et, "eq": eq, "c": str(c)} for (et, eq), c in poly.sorted_terms()]


def mul_reference(a: Mapping[ExpPair, int], b: Mapping[ExpPair, int]) -> dict[ExpPair, int]:
    """The schoolbook product of two term dicts, zero sums popped."""
    out: dict[ExpPair, int] = {}
    for (at, aq), ac in a.items():
        for (bt, bq), bc in b.items():
            e = (at + bt, aq + bq)
            s = out.get(e, 0) + ac * bc
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def add_reference(a: Mapping[ExpPair, int], b: Mapping[ExpPair, int], w: int = 1) -> dict[ExpPair, int]:
    """``a + w * b`` on term dicts: b's terms times w added into a copy of a, zero sums popped."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + w * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def exponent_map_reference(poly: LaurentPoly, fn) -> dict[ExpPair, int]:
    """The term dict with each term ``(e_t, e_q) -> c`` of ``poly`` moved to ``fn(e_t, e_q) -> c``."""
    return {fn(et, eq): c for (et, eq), c in poly.terms.items()}


def multiply_keys_reference(tally: dict, slots: list[LaurentPoly], base: int) -> LaurentPoly:
    """``sum c * t**e_t * q**e_q * prod(slots[i] ** digit_i(key))`` over a
    ``(key, e_t, e_q) -> c`` tally, each distinct key multiplied out with
    ``LaurentPoly.__mul__`` and added to a running total, each slot power
    built once; the dict loop that the packed
    ``tqeuler.combinat._multiply_keys`` is tested against."""
    by_key: defaultdict[int, dict[tuple[int, int], int]] = defaultdict(dict)
    for (key, et, eq), c in tally.items():
        by_key[key][et, eq] = c
    power = cache(lambda slot, d: slots[slot] ** d)
    total = ZERO
    for key, terms in by_key.items():
        w = LaurentPoly(terms)
        for slot in range(len(slots)):
            key, d = divmod(key, base)
            if d:
                w = w * power(slot, d)
        total = total + w
    return total


def ballot_sum_reference(n: int, kernel, *args) -> LaurentPoly:
    """``sum_{k=0}^{n} ballot(n,k) * K_k``, ``K_k = kernel(k, *args)``, with ``ballot(n,k)``
    folded into each kernel item's coefficient, so that the whole expansion is one packed sum."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _sum_of_products(
        (ballot(n, k) * c, a, b, factors) for k in range(n + 1) for c, a, b, factors in kernel(k, *args)
    )


def moment_boxes_reference(coeff_fn, order: int) -> tuple[int, list[Box | None]]:
    """The row stride and per-moment degree boxes of the S-fraction moment DP, by a
    max-plus pass over its lattice: the largest shifted t- and q-exponent that a
    nonzero path reaches at each point.  A moment that no nonzero path reaches
    has box None, and the stride is the largest q-span plus 1.

    Exponents are shifted by the smallest over ``c_1 .. c_order``, which is 0
    for the products of binomials ``1 - t**a * q**b`` that
    ``tqeuler.cfrac._moment`` walks; its closed prefix-sum bound, with the box
    starting at (0, 0), is tested against these boxes."""
    c = {h: coeff_fn(h).terms for h in range(1, order + 1)}
    live = [terms for terms in c.values() if terms]
    tmin = min((et for terms in live for et, _ in terms), default=0)
    qmin = min((eq for terms in live for _, eq in terms), default=0)
    tdeg = {h: max(et for et, _ in terms) - tmin for h, terms in c.items() if terms}
    qdeg = {h: max(eq for _, eq in terms) - qmin for h, terms in c.items() if terms}

    def max_pair(a, b):
        return b if a is None else (max(a[0], b[0]), max(a[1], b[1]))

    reach: list[tuple[int, int] | None] = [(0, 0)]
    shifted = [(0, 0)]
    for step in range(1, 2 * order + 1):
        top = min(order, 2 * order - step)
        nxt: list[tuple[int, int] | None] = [None] * (top + 1)
        for h, here in enumerate(reach):
            if here is None:
                continue
            if h + 1 <= top:
                nxt[h + 1] = max_pair(nxt[h + 1], here)
            if h >= 1 and h in tdeg:
                nxt[h - 1] = max_pair(nxt[h - 1], (here[0] + tdeg[h], here[1] + qdeg[h]))
        reach = nxt
        if step % 2 == 0:
            shifted.append(reach[0])
    stride = max(box[1] for box in shifted if box is not None) + 1
    boxes = [
        None if box is None else (m * tmin, m * tmin + box[0], m * qmin, m * qmin + box[1])
        for m, box in enumerate(shifted)
    ]
    return stride, boxes


def evaluate_reference(poly: LaurentPoly, t0, q0) -> Fraction:
    """``poly`` at ``(t0, q0)``, one Fraction power and one Fraction add per term."""
    t0 = Fraction(t0)
    q0 = Fraction(q0)
    total = Fraction(0)
    for (et, eq), c in poly.terms.items():
        if (et < 0 and t0 == 0) or (eq < 0 and q0 == 0):
            raise ZeroDenominatorError("negative exponent at a zero base")
        total += c * t0**et * q0**eq
    return total


def substitute_t_reference(poly: LaurentPoly, sign: int, power: int) -> LaurentPoly:
    """``poly`` at ``t = sign * q**power``, one term at a time."""
    out: dict[int, int] = {}
    for (et, eq), c in poly.terms.items():
        e = eq + et * power
        out[e] = out.get(e, 0) + (c if sign == 1 or et % 2 == 0 else -c)
    return LaurentPoly({(0, e): c for e, c in out.items()})


def sum_rows_reference(pairs) -> LaurentPoly:
    """``sum w * p`` over ``(w, p)`` pairs, folded row by row into one dense row per e_t
    that spans every row's q-range, then read back through the validating constructor."""
    rows = [(w, *row) for w, p in pairs for row in p._rows]
    q0 = min([lo for _, _, lo, _ in rows], default=0)
    width = max([lo + len(cs) for _, _, lo, cs in rows], default=0) - q0
    acc = {et: [0] * width for _, et, _, _ in rows}
    for w, et, lo, cs in rows:
        row, s = acc[et], lo - q0
        row[s : s + len(cs)] = map(add, row[s : s + len(cs)], cs if w == 1 else map(mul, cs, repeat(w)))
    return LaurentPoly({(et, q0 + j): c for et, row in acc.items() for j, c in enumerate(row) if c})


def enum_alternating(n: int) -> list[tuple[int, ...]]:
    """All up-down alternating permutations of {1, ..., n}
    (first ascent, then descent, alternating), in lexicographic order.
    A negative size has none.

    Still brute force: one leaf per permutation, built depth first.  Each
    position tries only its admissible values in increasing order: the
    unused values above the last entry at a rising position, those below it
    at a falling one, cut from the sorted unused list by bisection.
    ``tqeuler.combinat.alt_statistic_polynomial`` counts them by state, and
    this is the definition its counts are tested against.
    """
    _check_cutoff("alternating", n)
    if n < 0:
        return []
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], last: int, unused: list[int], rising: bool) -> None:
        if not unused:
            out.append(prefix)
            return
        cut = bisect(unused, last)
        for i in range(cut, len(unused)) if rising else range(cut):
            v = unused[i]
            rec(prefix + (v,), v, unused[:i] + unused[i + 1 :], not rising)

    # a virtual entry n+1 before the first admits every value, and makes the next step a rise
    rec((), n + 1, list(range(1, n + 1)), False)
    del rec  # as in tqeuler.combinat._bounded_parts: no reference cycle is left behind
    return out


def alternating_reference(n: int) -> list[tuple[int, ...]]:
    """The up-down permutations of {1, ..., n}, filtered from all permutations in order."""
    if n < 0:
        return []
    return [
        p for p in permutations(range(1, n + 1))
        if all((p[i] < p[i + 1]) == (i % 2 == 0) for i in range(n - 1))
    ]


def count_13_2_patterns(perm: Sequence[int]) -> int:
    """Occurrences of the vincular pattern 13-2: an adjacent rise
    ``perm[i] < perm[i+1]`` with a later entry strictly between the two."""
    n = len(perm)
    total = 0
    for i in range(n - 1):
        a, b = perm[i], perm[i + 1]
        if a < b:
            total += sum(1 for j in range(i + 2, n) if a < perm[j] < b)
    return total


def alt_statistic_reference(m: int) -> LaurentPoly:
    """``sum q**count_13_2_patterns(pi)`` over ``enum_alternating(m)``, one
    permutation at a time."""
    return LaurentPoly(Counter((0, count_13_2_patterns(perm)) for perm in enum_alternating(m)))


def zeng_value_reference(n: int, t0, q0, bracket) -> Fraction:
    """The double-sum rational evaluation of ``E_n(t, q)`` at ``(t0, q0)``,
    one bracket call per occurrence."""
    if n < 0 or n > 5:
        raise ValueError("n must be between 0 and 5")
    t0 = Fraction(t0)
    q0 = Fraction(q0)
    if t0 == 0 or q0 == 0:
        raise ZeroDenominatorError("t0 and q0 must be nonzero")
    br = bracket

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


def enum_md_star(k: int) -> list[MarkedDyckPath]:
    """All marked Dyck paths of length 2k without marked peaks."""
    _check_cutoff("md_star", k)
    out: list[MarkedDyckPath] = []
    for path in dyck_paths(k):
        peaks = [
            i for i in range(2 * k - 1) if path[i] == 1 and path[i + 1] == -1
        ]
        for marks in product((False, True), repeat=2 * k):
            if any(marks[i] and marks[i + 1] for i in peaks):
                continue
            out.append(MarkedDyckPath(tuple(zip(path, marks))))
    return out


def conjugate(parts: Sequence[int]) -> tuple[int, ...]:
    """The conjugate partition: its j-th part counts the parts >= j."""
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, max(parts, default=0) + 1))


def staircase_partitions(k: int) -> list[tuple[int, ...]]:
    """Every partition inside the staircase (k, k-1, ..., 1), zeros trimmed: the partitions
    of the k-by-k box whose i-th part, counted from 0, is at most k - i."""
    return [tuple(p for p in padded if p) for padded in box_partitions(k, k)
            if all(p <= k - i for i, p in enumerate(padded))]


def outer_corners(shape: tuple[int, ...], k: int) -> list[tuple[int, int]]:
    """The outer corners of ``shape`` inside the staircase of size k: each cell (i, j) with
    i + j <= k + 1, outside the shape, whose addition leaves a partition.  Only the cell
    just past the end of row i can be added to row i, so each row is tried once."""
    rows = shape + (0,) * k
    out = []
    for i in range(1, k + 1):
        grown = rows[: i - 1] + (rows[i - 1] + 1,) + rows[i:]
        if i + grown[i - 1] <= k + 1 and all(a >= b for a, b in zip(grown, grown[1:])):
            out.append((i, grown[i - 1]))
    return out


@dataclass(frozen=True)
class DeltaConfig:
    """A partition inside the staircase of size k-1, as a tuple of parts,
    together with row and column arrows in the complement staircase of size k.

    An arrow occupies a whole row or column of the complement, so a subset of
    row indices and a subset of column indices determines the configuration;
    the arrow in row i has length (k+1-i) - parts[i], the arrow in column j
    has length (k+1-j) - conjugate parts[j].  An outer corner of the shape is
    a cell outside it whose addition leaves a partition (:func:`outer_corners`).
    """

    k: int
    shape: tuple[int, ...]
    row_arrows: frozenset[int]
    col_arrows: frozenset[int]

    def arrow_lengths(self) -> list[int]:
        rows = self.shape + (0,) * self.k
        cols = conjugate(self.shape) + (0,) * self.k
        lengths = [self.k + 1 - i - rows[i - 1] for i in sorted(self.row_arrows)]
        lengths += [self.k + 1 - j - cols[j - 1] for j in sorted(self.col_arrows)]
        return lengths

    def weight(self) -> LaurentPoly:
        """``(-1)**#arrows * t**#row_arrows * q**(2|shape| + total arrow length)``."""
        arrows = len(self.row_arrows) + len(self.col_arrows)
        expo = 2 * sum(self.shape) + sum(self.arrow_lengths())
        return monomial(-1 if arrows % 2 else 1, len(self.row_arrows), expo)


def enum_delta_prime(k: int) -> list[DeltaConfig]:
    """All configurations with only k-arrows and no forbidden corners.

    A forbidden corner is an outer corner of the shape covered by both a row
    arrow and a column arrow.
    """
    _check_cutoff("delta", k)
    if k < 0:
        return []
    if k == 0:
        return [DeltaConfig(0, (), frozenset(), frozenset())]
    out: list[DeltaConfig] = []
    indices = list(range(1, k + 1))
    for lam in staircase_partitions(k - 1):
        corners = outer_corners(lam, k)
        for r_bits in product((False, True), repeat=k):
            rows = frozenset(i for i, b in zip(indices, r_bits) if b)
            for c_bits in product((False, True), repeat=k):
                cols = frozenset(j for j, b in zip(indices, c_bits) if b)
                if any(i in rows and j in cols for i, j in corners):
                    continue
                out.append(DeltaConfig(k, lam, rows, cols))
    return out


# ---------------------------------------------------------------------------
# definitions of the public qkit and combinat functions, for the boundary table


def q_power(e: int) -> LaurentPoly:
    """``q**e`` for any integer e, as a power of ``q`` or of ``1/q``."""
    return monomial(1, 0, 1) ** e if e >= 0 else monomial(1, 0, -1) ** -e


def q_int_reference(n: int) -> LaurentPoly:
    return sum((q_power(i) for i in range(n)), ZERO)


def odd_pochhammer_reference(i: int) -> LaurentPoly:
    out = ONE
    for j in range(i):
        out = out * (ONE - q_power(2 * j + 1))
    return out


def gauss_binom_reference(n: int, k: int) -> LaurentPoly:
    """``(q;q)_n / ((q;q)_k (q;q)_{n-k})`` by long division; 0 out of range."""
    if not 0 <= k <= n:
        return ZERO
    return divide_reference(
        pochhammer_product(1, 1, n), pochhammer_product(1, 1, k) * pochhammer_product(1, 1, n - k)
    )


def ballot_paths(n: int, k: int) -> int:
    """Number of up/down paths of 2n unit steps that never go below 0 and end at height 2k."""
    return sum(
        1
        for steps in product((1, -1), repeat=2 * n)
        if sum(steps) == 2 * k and all(sum(steps[: i + 1]) >= 0 for i in range(2 * n))
    )


def square_sum_reference(m: int) -> LaurentPoly:
    return sum((q_power(i * i) * (-1) ** (i * i) for i in range(-m, m + 1)), ZERO)


def a_k_reference(k: int) -> LaurentPoly:
    """``(1-q) * A_k(q)``: ``1 - q`` at k = 0, else the square sums of k and k-1."""
    if k == 0:
        return ONE - q_power(1)
    return square_sum_reference(k) + q_power(2 * k + 1) * square_sum_reference(k - 1)


def box_partitions(m: int, n: int) -> list[tuple[int, ...]]:
    """Every partition in the box with m rows and n columns, padded with zeros to m parts;
    none when a dimension is negative."""
    if m < 0 or n < 0:
        return []
    return [tuple(reversed(c)) for c in combinations_with_replacement(range(n + 1), m)]


def box_size_reference(m: int, n: int) -> LaurentPoly:
    return LaurentPoly(Counter((0, sum(p)) for p in box_partitions(m, n)))


def dist_box_reference(m: int, n: int) -> LaurentPoly:
    return LaurentPoly(Counter((len(set(p) - {0}), sum(p)) for p in box_partitions(m, n)))


def sop_reference(k: int) -> LaurentPoly:
    """Signed sum over self-conjugate overpartitions in the k-by-k box: every set of
    marked inner corners that the mirror ``(i, j) -> (j, i)`` maps to itself, one at a time."""
    total = ZERO
    for padded in box_partitions(k, k):
        parts = tuple(p for p in padded if p)
        if parts != conjugate(parts):
            continue
        corners = [(i, p) for i, p in enumerate(parts, 1) if p > (parts + (0,))[i]]
        diag = sum(1 for i, p in enumerate(parts, 1) if p >= i)
        for bits in product((False, True), repeat=len(corners)):
            marked = {c for c, b in zip(corners, bits) if b}
            if all((j, i) in marked for i, j in marked):
                mk = len(marked)
                total = total + monomial((-1) ** (diag + mk // 2), mk, sum(parts))
    return total


def m_path_reference(k: int) -> LaurentPoly:
    """The signed area sum of ``m_path_weight_sum``, one west/southwest step sequence at a time."""
    if k < 0:
        return ZERO
    one_minus_t2, one_plus_t = ONE - T * T, ONE + T
    total = ZERO
    for steps in product((0, 1), repeat=k):  # 1 is a southwest step
        y = area = 0
        w = ONE
        for i, sw in enumerate(steps):
            area += -2 * y + sw
            y -= sw
            if sw and i + 1 < k and not steps[i + 1]:
                w = w * one_minus_t2
        if k and steps[-1]:
            w = w * one_plus_t
        total = total + monomial((-1) ** sum(steps), 0, area) * w
    return total


def l_path_reference(b: int, k: int, m: int, n: int, eps: int) -> LaurentPoly:
    """The cleared sum of ``l_path_weight_sum``, one west/southwest step sequence at a time."""
    total = ZERO
    for steps in product((0, 1), repeat=max(b - m, 0)):  # 1 is a southwest step
        x, y, area = b, k, 0
        for sw in steps:
            if not sw and y == 0:
                break  # a west step on the x-axis
            area += 2 * (k - y) + sw
            x, y = x - 1, y - sw
        else:
            if (x, y) == (m, n):
                total = total + q_power(area + (2 * m * k if n == 0 else 0))
    height = q_power(sum(2 * i for i in range(n + 1, k + 1)))
    return pochhammer_product(eps, 1, m) * total * height


def lprime_path_reference(b: int, k: int, m: int, n: int, eps: int) -> LaurentPoly:
    """The sum of ``lprime_path_weight_sum``, one west/south step sequence at a time."""
    total = ZERO
    for steps in product((0, 1), repeat=max(b - m, 0) + max(k - n, 0)):  # 1 is a south step
        x, y, area = b, k, 0
        for south in steps:
            if south:
                if x == 0:
                    break  # a south step on the y-axis
                y -= 1
            else:
                if y == 0:
                    break  # a west step on the x-axis
                area += 2 * (k - y)
                x -= 1
        else:
            if (x, y) == (m, n):
                total = total + q_power(-area - (2 * m * k if n == 0 else 0))
    height = ONE
    for i in range(n + 1, k + 1):
        height = height * monomial(-1, 0, 2 * i + 1)
    return pochhammer_product(eps, 1 - b, max(b - m, 0)) * total * height


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqeuler",
        description="Exact computation and cross-verification of (t,q)-Euler numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print one polynomial in canonical form")
    p_compute.add_argument(
        "target",
        choices=["e", "t", "d", "e-even", "e-odd"],
        help="e: normalized (t,q)-Euler number; t: T_k; d: d_n; "
        "e-even/e-odd: classical q-secant/q-tangent values",
    )
    p_compute.add_argument("--n", type=int, default=None)
    p_compute.add_argument("--k", type=int, default=None)
    p_compute.add_argument(
        "--normalized",
        action="store_true",
        help="d: print (1-q)^n d_n; e is always normalized; any other target rejects the flag",
    )
    p_compute.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_compute.set_defaults(fn=cmd_compute)

    p_verify = sub.add_parser("verify", help="run the identity verification matrix")
    p_verify.add_argument("--max-n", type=int, default=8, dest="max_n")
    p_verify.add_argument("--max-k", type=int, default=6, dest="max_k")
    p_verify.add_argument("--max-b", type=int, default=4, dest="max_b")
    p_verify.add_argument(
        "--select", default=None, help="comma-separated substrings of identity ids to run"
    )
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--json", default=None, metavar="PATH", help="also write a JSON report")
    p_verify.set_defaults(fn=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the expansion routes per n (CSV)")
    p_bench.add_argument("--max-n", type=int, default=6, dest="max_n")
    p_bench.set_defaults(fn=cmd_bench)

    return parser
