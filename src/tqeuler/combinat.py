"""Brute-force combinatorial oracles.

Every object family the closed formulas are checked against is enumerated
here explicitly at desk scale: partitions in boxes and staircases, weighted
Dyck paths and marked Dyck paths without marked peaks (one walk, in which a
plain Dyck path is a marked one whose marks weigh 0), staircase arrow
configurations, self-conjugate overpartitions, the three lattice-path
families on west/southwest and west/south steps, and alternating
permutations.  The 13-2 statistic on alternating permutations is summed by
a transfer over the state of the last entry, derived from the pattern alone.

Every oracle enumerates its leaves, tallies their exponents and builds one
polynomial from the tally, using nothing from ``formulas``.  A partition is
a weakly decreasing tuple of positive parts.

Enumerators fail loudly past their cutoffs instead of truncating silently.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter, defaultdict
from functools import cache
from itertools import combinations
from typing import Callable, Sequence

from .exactalg import LaurentPoly, ONE, ZERO, _ONE_MINUS_T2, _ONE_PLUS_T, _sum_of_products, monomial
from .qkit import QSymbolSpec, euler_down, euler_up, pochhammer

__all__ = [
    "CutoffExceededError",
    "InvalidEndpointError",
    "box_size_polynomial",
    "dist_box_polynomial",
    "dyck_weight_sum",
    "md_star_weight_sum",
    "md_star_weight_sum_general",
    "delta_prime_weight_sum",
    "sop_weight_sum",
    "m_path_weight_sum",
    "l_path_weight_sum",
    "lprime_path_weight_sum",
    "enum_alternating",
    "alt_statistic_polynomial",
]


class CutoffExceededError(ValueError):
    """An enumeration was requested beyond its configured cutoff."""


class InvalidEndpointError(ValueError):
    """Lattice-path endpoint violates the family's m*n = 0 requirement."""


_DEFAULT_CUTOFFS = {
    "partition": 8,
    "dyck": 8,
    "md_star": 6,
    "delta": 6,
    "sop": 6,
    "m_path": 7,
    "l_path": 6,
    "alternating": 9,
}


def _check_cutoff(family: str, value: int) -> None:
    cap = _DEFAULT_CUTOFFS[family]
    if value > cap:
        raise CutoffExceededError(f"{family} enumeration capped at {cap}, got {value}")


# ---------------------------------------------------------------------------
# partitions, as weakly decreasing tuples of positive parts


def _bounded_parts(bounds: Sequence[int]) -> list[tuple[int, ...]]:
    """All weakly decreasing tuples with i-th entry <= bounds[i] (zeros trimmed)."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], i: int, prev: int) -> None:
        if i < len(bounds):
            for v in range(min(prev, bounds[i]), 0, -1):
                rec(prefix + (v,), i + 1, v)
        out.append(prefix)

    rec((), 0, max(bounds, default=0))
    del rec  # rec reaches itself through this cell; emptying it leaves no reference cycle
    return out


def _box_parts(m: int, n: int) -> list[tuple[int, ...]]:
    """All partitions in the box with m rows and n columns."""
    if m < 0 or n < 0:
        raise ValueError("box dimensions must be nonnegative")
    return _bounded_parts([n] * m)


def _staircase_parts(k: int) -> list[tuple[int, ...]]:
    """All partitions in the staircase (k, k-1, ..., 1); only () for k <= 0."""
    return _bounded_parts(range(k, 0, -1))


def _conjugate(parts: Sequence[int]) -> tuple[int, ...]:
    """The conjugate partition: its j-th part counts the parts >= j."""
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, (parts[0] if parts else 0) + 1))


def box_size_polynomial(m: int, n: int) -> LaurentPoly:
    """Generating polynomial ``sum q**|lam|`` over partitions in B(m, n);
    a negative dimension raises ``ValueError``."""
    _check_cutoff("partition", max(m, n))
    return LaurentPoly(Counter((0, sum(parts)) for parts in _box_parts(m, n)))


def dist_box_polynomial(m: int, n: int) -> LaurentPoly:
    """``sum x**dist(lam) * q**|lam|`` over partitions in B(m, n), by enumeration.

    The x variable is carried in the t exponent slot of :class:`LaurentPoly`.
    A negative dimension raises ``ValueError``, as in
    :func:`tqeuler.formulas.dist_box_closed`.
    """
    _check_cutoff("partition", max(m, n))
    return LaurentPoly(
        Counter((len(set(parts)), sum(parts)) for parts in _box_parts(m, n))
    )


# ---------------------------------------------------------------------------
# Dyck paths, plain and marked without marked peaks


WeightRule = Callable[[int], LaurentPoly]


def _step_table(rule: WeightRule, n: int, slots: list[LaurentPoly]) -> list[tuple[int, ...]]:
    """Entry h is ``(c, e_t, e_q, digit)`` for ``rule(h)``, h = 1..n: a monomial or
    zero value with digit 0, or ``(1, 0, 0, (n+1)**slot)`` for a multi-term value
    appended to ``slots``.  A path of length 2n takes one step kind at most n
    times per height, so a key summing the digits counts those steps exactly."""
    table = [(1, 0, 0, 0)]
    for h in range(1, n + 1):
        value = rule(h)
        if len(value) > 1:
            table.append((1, 0, 0, (n + 1) ** len(slots)))
            slots.append(value)
        else:
            (et, eq), c = next(iter(value.terms.items()), ((0, 0), 0))
            table.append((c, et, eq, 0))
    return table


def _multiply_keys(tally: dict, slots: list[LaurentPoly], base: int) -> LaurentPoly:
    """``sum c * t**e_t * q**e_q * prod(slots[i] ** digit_i(key))`` over a
    ``(key, e_t, e_q) -> c`` tally, where digit i of a key is its base-``base``
    digit i.  Each distinct key is one item of one
    :func:`~tqeuler.exactalg._sum_of_products`: the polynomial of its counts,
    then slot i repeated digit_i times."""
    by_key: defaultdict[int, dict[tuple[int, int], int]] = defaultdict(dict)
    for (key, et, eq), c in tally.items():
        if c:
            by_key[key][et, eq] = c
    items = []
    for key, terms in by_key.items():
        factors = [LaurentPoly(terms)]
        for slot in slots:
            key, d = divmod(key, base)
            factors += [slot] * d
        items.append((1, 0, 0, factors))
    return _sum_of_products(items)


def _marked_walk(n: int, up_rule: WeightRule, down_rule: WeightRule, mark: int) -> LaurentPoly:
    """Sum over marked Dyck paths of length 2n without marked peaks of the
    products of step weights; ZERO for negative n.

    A step may carry a mark, and a marked peak is a marked up step followed
    directly by a marked down step.  An unmarked up step between heights h-1
    and h weighs ``up_rule(h)``, an unmarked down step between h and h-1
    weighs ``down_rule(h)``, and a marked step weighs ``mark``.  With
    ``mark = 0`` every marked branch is pruned, and the sum runs over the
    plain Dyck paths.

    Still brute force: one leaf per path, and nothing memoised across
    (height, remaining, last step) states, which would turn the marked sum
    into the transfer-matrix recurrence it is checked against.  The walk goes
    depth first over the ints ``(c, e_t, e_q, key)``: a step folds in a
    monomial weight, adds the digit of a multi-term one to the key (see
    :func:`_step_table`) or ends the branch on a zero one.  Each leaf adds c
    to a count keyed by ``(key, e_t, e_q)``, and :func:`_multiply_keys`
    multiplies every key out in one packed sum; with all-monomial rules the
    key stays 0.
    """
    slots: list[LaurentPoly] = []
    up = _step_table(up_rule, n, slots)
    down = _step_table(down_rule, n, slots)
    tally: defaultdict[tuple[int, int, int], int] = defaultdict(int)

    def walk(c: int, et: int, eq: int, key: int, h: int, remaining: int, after_marked_up: bool) -> None:
        if remaining == 0:
            tally[key, et, eq] += c
            return
        if h + 1 <= remaining - 1:
            sc, st, sq, sd = up[h + 1]
            if sc:
                walk(c * sc, et + st, eq + sq, key + sd, h + 1, remaining - 1, False)
            if mark:
                walk(c * mark, et, eq, key, h + 1, remaining - 1, True)
        if h > 0:
            sc, st, sq, sd = down[h]
            if sc:
                walk(c * sc, et + st, eq + sq, key + sd, h - 1, remaining - 1, False)
            if mark and not after_marked_up:  # a marked down step here would close a marked peak
                walk(c * mark, et, eq, key, h - 1, remaining - 1, False)

    walk(1, 0, 0, 0, 0, 2 * n, False)
    del walk  # as in _bounded_parts: no reference cycle is left behind
    return _multiply_keys(tally, slots, n + 1)


def dyck_weight_sum(n: int, up_rule: WeightRule, down_rule: WeightRule) -> LaurentPoly:
    """Sum over Dyck paths of length 2n of the products of step weights.

    An up step between heights h-1 and h carries ``up_rule(h)``, a down step
    between h and h-1 carries ``down_rule(h)``.  This is :func:`_marked_walk`
    with marks weighing 0: one leaf per path.
    """
    _check_cutoff("dyck", n)
    return _marked_walk(n, up_rule, down_rule, 0)


def md_star_weight_sum_general(k: int, up_rule: WeightRule, down_rule: WeightRule) -> LaurentPoly:
    """Sum over marked Dyck paths of length 2k without marked peaks of the
    products of step weights.

    Unmarked steps weigh as in :func:`dyck_weight_sum`; marked steps weigh 1.
    This is :func:`_marked_walk` with marks weighing 1: one leaf per marked
    path.
    """
    _check_cutoff("md_star", k)
    return _marked_walk(k, up_rule, down_rule, 1)


def md_star_weight_sum(k: int) -> LaurentPoly:
    """Weight sum over the starred family: each step weighs its Euler weight less
    one, ``-q**h`` on an up step and ``-t*q**h`` on a down step."""
    return md_star_weight_sum_general(k, lambda h: euler_up(h) - ONE, lambda h: euler_down(h) - ONE)


# ---------------------------------------------------------------------------
# staircase arrow configurations


def _outer_corners_in_staircase(padded: Sequence[int], k: int) -> list[tuple[int, int]]:
    """Outer corners ``(i, parts[i] + 1)`` of a shape that lie inside the
    staircase of size k, read from its parts padded with zeros to length k."""
    return [
        (i, p + 1) for i, p in enumerate(padded, 1) if (i == 1 or padded[i - 2] > p) and p + i <= k
    ]


def _mask_sums(values: Sequence[int]) -> list[int]:
    """``out[m]`` is the sum of ``values[b]`` over the set bits b of m."""
    out = [0] * (1 << len(values))
    for m in range(1, len(out)):
        low = m & -m
        out[m] = out[m ^ low] + values[low.bit_length() - 1]
    return out


def delta_prime_weight_sum(k: int) -> LaurentPoly:
    """Signed sum over the staircase arrow configurations of size k.

    A configuration is a shape inside the staircase of size k-1 with arrows
    on a set of rows and a set of columns of the complementary staircase of
    size k; the arrow in row i has length ``(k+1-i) - parts[i]``, the arrow
    in column j ``(k+1-j) - conjugate parts[j]``.  Configurations in which an
    outer corner of the shape is covered by both a row and a column arrow
    are forbidden.  The shape is a part tuple padded with zeros to length k,
    and so is its conjugate.  A negative k has no configuration.

    Still brute force: every (shape, row arrows, column arrows) configuration
    is one leaf, visited once.  For each shape the row and column arrows are
    bitmasks R and C (bit i-1 for row or column i), and four tables indexed
    by mask are built first: the row-arrow and column-arrow length sums, the
    popcounts, and the forbidden column mask of each R (the columns of the
    outer corners whose row is in R).  A pair is skipped when C meets the
    forbidden mask of R; any other pair adds
    ``(-1)**(#R + #C) * t**#R * q**(2|shape| + rsum[R] + csum[C])`` to a count
    keyed by its two exponents, and one polynomial is built at the end.  The
    sum is not factored over rows or columns and uses nothing from
    ``formulas``, so it stays an independent check of the T_k recurrence.
    """
    _check_cutoff("delta", k)
    if k < 0:
        return ZERO
    full = 1 << k
    pop = _mask_sums([1] * k)
    sign = [-1 if p & 1 else 1 for p in pop]
    counts: list[dict[int, int]] = [{} for _ in range(k + 1)]  # [#R][q exponent]
    for parts in _staircase_parts(k - 1):
        padded = parts + (0,) * (k - len(parts))
        conj = _conjugate(parts)
        rsum = _mask_sums([k - i - p for i, p in enumerate(padded)])
        csum = _mask_sums([k - j - p for j, p in enumerate(conj + (0,) * (k - len(conj)))])
        corner_cols = [0] * k
        for i, j in _outer_corners_in_staircase(padded, k):
            corner_cols[i - 1] |= 1 << (j - 1)
        forb = _mask_sums(corner_cols)  # corner columns are distinct: sum is OR
        base = 2 * sum(parts)
        for r in range(full):
            row = counts[pop[r]]
            blocked = forb[r]
            shift = base + rsum[r]
            sr = sign[r]
            for c in range(full):
                if c & blocked:
                    continue
                e = shift + csum[c]
                row[e] = row.get(e, 0) + sr * sign[c]
    return LaurentPoly(
        {(et, eq): v for et, row in enumerate(counts) for eq, v in row.items()}
    )


# ---------------------------------------------------------------------------
# self-conjugate overpartitions


def sop_weight_sum(k: int) -> LaurentPoly:
    """Signed sum over the self-conjugate overpartitions whose shape fits in
    the k-by-k box; ZERO for negative k.

    Marks sit on inner corners ``(i, parts[i])`` and are closed under the
    mirror ``(i, j) -> (j, i)``, so they form a union of corner orbits: a
    mirrored pair with i < j, or one corner on the diagonal.  With ``diag``
    the number of parts ``parts[i] >= i`` and ``mk`` the number of marks, the
    weight is ``(-1)**(diag + mk//2) * t**mk * q**|shape|``.

    Still brute force: each subset of the corner orbits of each
    self-conjugate shape is one leaf, which adds its sign to a count keyed
    by ``(mk, |shape|)``.
    """
    _check_cutoff("sop", k)
    if k < 0:
        return ZERO
    tally: Counter[tuple[int, int]] = Counter()
    for parts in _box_parts(k, k):
        if parts != _conjugate(parts):
            continue
        size = sum(parts)
        diag = sum(1 for i, p in enumerate(parts, 1) if p >= i)
        # the inner corner of row i sits in column p; keep one corner per orbit
        orbits = [
            2 if i < p else 1
            for i, (p, below) in enumerate(zip(parts, parts[1:] + (0,)), 1)
            if p > below and i <= p
        ]
        for mk in _mask_sums(orbits):
            tally[mk, size] += -1 if (diag + mk // 2) % 2 else 1
    return LaurentPoly(tally)


# ---------------------------------------------------------------------------
# west/southwest paths from (k, 0) to the negative y-axis


def m_path_weight_sum(k: int) -> LaurentPoly:
    """Signed area-weighted sum over west/southwest paths from (k, 0) to the
    y-axis; ZERO for negative k.

    Area is measured with the unit square worth 2 (so the unit right triangle
    under a southwest step is worth 1).  A path with j southwest steps gets
    sign (-1)**j, a factor (1 - t**2) for every southwest step immediately
    followed by a west step, and a factor (1 + t) when its last step is
    southwest.

    Still brute force: each path is one leaf, which adds its sign to a count
    keyed by ``(s + (k+1)*last, 0, area)``, s its southwest-west pairs and
    last 1 when it ends southwest; :func:`_multiply_keys` multiplies the keys
    out in one packed sum with the slots ``(1 - t**2, 1 + t)``.
    """
    _check_cutoff("m_path", k)
    tally: Counter[tuple[int, int, int]] = Counter()
    for j in range(k + 1):
        for sw_positions in combinations(range(k), j):
            sw = set(sw_positions)
            area = 0
            y = 0
            for i in range(k):
                if i in sw:
                    area += -2 * y + 1
                    y -= 1
                else:
                    area += -2 * y
            s = sum(1 for i in sw if i + 1 < k and i + 1 not in sw)
            last = 1 if k - 1 in sw else 0
            tally[s + (k + 1) * last, 0, area] += -1 if j % 2 else 1
    return _multiply_keys(tally, [_ONE_MINUS_T2, _ONE_PLUS_T], k + 1)


# ---------------------------------------------------------------------------
# west/southwest paths inside the (b, k) rectangle, and west/south paths


def _validate_endpoint(b: int, k: int, m: int, n: int) -> None:
    if m < 0 or n < 0 or b < 0 or k < 0:
        raise ValueError("coordinates must be nonnegative")
    if m * n != 0:
        raise InvalidEndpointError("endpoint must lie on an axis (m*n = 0)")


def l_path_weight_sum(b: int, k: int, m: int, n: int, eps: int) -> LaurentPoly:
    """Cleared weight sum over west/southwest paths from (b, k) to (m, n)
    with no west step on the x-axis.

    The fraction-valued path weight is ``q**A(R)`` times
    ``1/(1 - eps*q**i)`` for ``i = m+1 .. b`` times ``q**(2i)`` for
    ``i = n+1 .. k``, where A(R) is the doubled area above the path inside
    the (b, k) rectangle.  The returned polynomial is that sum multiplied
    through by ``(eps*q; q)_b``, i.e. the Pochhammer denominator is cleared,
    leaving the factor ``(eps*q; q)_m``.
    """
    _validate_endpoint(b, k, m, n)
    _check_cutoff("l_path", max(b, k))
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    steps = b - m
    sw_count = k - n
    if steps < 0 or sw_count < 0 or sw_count > steps:
        return ZERO
    pure: Counter[tuple[int, int]] = Counter()
    for sw_positions in combinations(range(steps), sw_count):
        sw = set(sw_positions)
        if n == 0 and steps > 0 and (steps - 1) not in sw:
            continue  # a west step after the final descent would sit on the x-axis
        area = 0
        y = k
        for i in range(steps):
            if i in sw:
                area += 2 * (k - y) + 1
                y -= 1
            else:
                area += 2 * (k - y)
        if n == 0:
            area += 2 * m * k
        pure[0, area] += 1
    height_factor = monomial(1, 0, k * (k + 1) - n * (n + 1))
    return pochhammer(QSymbolSpec(eps, 1, m)) * LaurentPoly(pure) * height_factor


def lprime_path_weight_sum(b: int, k: int, m: int, n: int, eps: int) -> LaurentPoly:
    """Weight sum over west/south paths from (b, k) to (m, n) with no west
    step on the x-axis and no south step on the y-axis.

    The weight is ``q**(-A(R))`` times ``(1 - eps*q**(1-i))`` for
    ``i = m+1 .. b`` times ``(-q**(2i+1))`` for ``i = n+1 .. k``; this is
    already a Laurent polynomial, so no clearing is needed.
    """
    _validate_endpoint(b, k, m, n)
    _check_cutoff("l_path", max(b, k))
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    w_count = b - m
    s_count = k - n
    if w_count < 0 or s_count < 0:
        return ZERO
    total_steps = w_count + s_count
    pure: Counter[tuple[int, int]] = Counter()
    for s_positions in combinations(range(total_steps), s_count):
        south = set(s_positions)
        x, y = b, k
        area = 0
        ok = True
        for i in range(total_steps):
            if i in south:
                if x == 0:
                    ok = False
                    break
                y -= 1
            else:
                if y == 0:
                    ok = False
                    break
                area += 2 * (k - y)
                x -= 1
        if not ok:
            continue
        if n == 0:
            area += 2 * m * k
        pure[0, -area] += 1
    prefactor = pochhammer(QSymbolSpec(eps, 1 - b, b - m))
    sign = -1 if (k - n) % 2 else 1
    height_factor = monomial(sign, 0, k * (k + 2) - n * (n + 2))
    return prefactor * LaurentPoly(pure) * height_factor


# ---------------------------------------------------------------------------
# alternating permutations


def enum_alternating(n: int) -> list[tuple[int, ...]]:
    """All up-down alternating permutations of {1, ..., n}
    (first ascent, then descent, alternating), in lexicographic order.
    A negative size has none.

    Still brute force: one leaf per permutation, built depth first.  Each
    position tries only its admissible values in increasing order: the
    unused values above the last entry at a rising position, those below it
    at a falling one, cut from the sorted unused list by bisection.  The
    registry does not list them: ``alt_statistic_polynomial`` counts them by
    state, and this is the definition its counts are tested against.
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
    del rec  # as in _bounded_parts: no reference cycle is left behind
    return out


def alt_statistic_polynomial(n: int) -> LaurentPoly:
    """Distribution of the 13-2 pattern count over the up-down alternating
    permutations of {1, ..., n}, as a polynomial in q; ZERO for negative n.

    Counted by the state of the last entry instead of permutation by
    permutation.  An occurrence of 13-2 is an adjacent rise ``a < b`` with a
    later entry strictly between ``a`` and ``b``.  Every unused value comes
    after the current position, so a rise from the last entry to the j-th
    smallest unused value above it (j = 0, 1, ...) closes exactly j
    occurrences, known when the step is taken; a fall closes none.  The
    completions of a prefix therefore depend only on its state ``(below,
    above, rising)``: the numbers of unused values under and over the last
    entry, and whether the next step rises.  With F the generating
    polynomial of the completions,

        F(0, 0, .) = 1,
        F(b, a, rising)  = sum_{j<a} q**j * F(b + j, a - 1 - j, falling),
        F(b, a, falling) = sum_{j<b} F(j, b - 1 - j + a, rising),

    and the result is F(n, 0, falling): a virtual first entry n+1 admits
    every value and makes the next step a rise.  Nothing here comes from the
    S-fraction or the Dyck paths behind ``cfrac.en_even_q``/``en_odd_q``, so
    the transfer stays an independent check of them.  Its value at q = 1 is
    ``len(enum_alternating(n))``.
    """
    _check_cutoff("alternating", n)
    if n < 0:
        return ZERO
    return LaurentPoly({(0, e): c for e, c in _completions(n, 0, False).items()})


@cache
def _completions(below: int, above: int, rising: bool) -> Counter[int]:
    """F(below, above, rising) of :func:`alt_statistic_polynomial`, as exponent counts."""
    if not below and not above:
        return Counter({0: 1})
    out: Counter[int] = Counter()
    if rising:
        for j in range(above):
            for e, c in _completions(below + j, above - 1 - j, False).items():
                out[e + j] += c
    else:
        for j in range(below):
            out.update(_completions(j, below - 1 - j + above, True))
    return out
