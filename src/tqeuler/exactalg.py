"""Exact arithmetic substrate.

Everything in this package is computed exactly: the universal value type is
:class:`LaurentPoly`, a polynomial in the two variables ``t`` and ``q`` whose
exponents may be negative and whose coefficients are arbitrary-precision
integers.  Rational scalars are plain :class:`fractions.Fraction` values.  No
floating point appears anywhere.

All values are immutable after construction and all operations are pure.

Dense t-rows are the one form of a polynomial (see :class:`LaurentPoly`), and
every operation works on rows: a product slice-adds a scaled copy of one row
per nonzero slot of another, a sum merges rows by e_t, ``_sum_rows`` folds
weighted sums of rows (``substitute_t`` is one) and ``divide_exact`` divides
row by row.  A term dict is made only when ``LaurentPoly.terms`` is read; the
term-dict product, sum and long division, and the term-by-term loops of
``substitute_t`` and ``evaluate``, are the references in ``tests/reference.py``.

The packed (Kronecker substitution, see ``_Layout``) path has one entry point
here, ``_sum_of_products``, which forms a whole sum of
``c * t**a * q**b * p_1 * ... * p_m`` items in one packed int, with every
coefficient bounded by ``sum |c| * prod |p_i|_1``; the moment DP
(``cfrac._moment_walk``, each of whose moments ``_Layout.unpack`` decodes) is
the other user of ``_Layout``.  Slots are signed, and only the codec pair
``_to_int``/``_to_slots`` knows the half-offset that splits an int into them.
Each factor's box, l1 norm and packed ints (one per layout it was packed at)
live on the factor, in the lazily filled ``_pack_facts`` slot, so a polynomial
shared by many sums is packed once per layout.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import add, index, mul, neg, sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "LaurentPoly",
    "NonDivisibleError",
    "ZeroDenominatorError",
    "monomial",
    "const",
    "ZERO",
    "ONE",
    "T",
    "Q",
    "ONE_MINUS_Q",
]


class NonDivisibleError(ArithmeticError):
    """Exact division left a remainder.

    This is a correctness alarm: every division performed by this package is
    supposed to be exact, so a remainder means a formula was transcribed or
    implemented incorrectly.  It is never silently swallowed.
    """


class ZeroDenominatorError(ZeroDivisionError):
    """A negative exponent met a zero base during rational evaluation."""


ExpPair = tuple[int, int]
Box = tuple[int, int, int, int]  # (min t-exp, max t-exp, min q-exp, max q-exp)
Row = tuple[int, int, tuple[int, ...]]  # (e_t, lowest e_q, coefficients from there up)


class LaurentPoly:
    """Laurent polynomial in ``t`` and ``q`` over the integers, held as dense t-rows.

    ``_rows`` is the one form: one ``(e_t, lowest e_q, coefficients)`` row per
    nonzero t-row, sorted by e_t, each tuple of ints cut to nonzero ends, and
    ``()`` for zero.  It is canonical, so equality is tuple equality.  The cost:
    a row stores its whole q-span, so ``1 + q**10**6`` holds 10**6 + 1 slots.

    The constructor validates a term map ``(e_t, e_q) -> coefficient``:
    exponents and coefficients must be integers (anything accepted by
    :func:`operator.index`), otherwise ``TypeError`` is raised.  Ring
    operations, whose rows are canonical by construction, bypass it through
    :meth:`_trusted`.  ``_pack_facts`` stays unset until the polynomial is
    first a factor of ``_sum_of_products``, which then keeps its box, norm and
    packed ints there.
    """

    __slots__ = ("_rows", "_pack_facts")

    def __init__(self, terms: Mapping[ExpPair, int] | None = None):
        cells = [(index(et), index(eq), index(c)) for (et, eq), c in terms.items()] if terms else []
        if len(cells) == 1:  # one term, as from monomial: one row of one slot
            ((et, eq, c),) = cells
            self._rows = ((et, eq, (c,)),) if c else ()
            return
        by_t: dict[int, dict[int, int]] = {}
        for et, eq, c in cells:
            if c:
                by_t.setdefault(et, {})[eq] = c
        self._rows = tuple((et, lo, tuple(map(r.get, range(lo, max(r) + 1), repeat(0))))
                           for et, r in sorted(by_t.items()) for lo in (min(r),))

    @classmethod
    def _trusted(cls, rows: tuple[Row, ...]) -> "LaurentPoly":
        """Wrap already-canonical rows without copying or checking them."""
        p = object.__new__(cls)
        p._rows = rows
        return p

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self) -> Mapping[ExpPair, int]:
        """Read-only term map ``(e_t, e_q) -> coefficient``, built from the rows on each read."""
        return MappingProxyType(dict(self.sorted_terms()))

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __len__(self) -> int:
        return sum(len(cs) - cs.count(0) for _, _, cs in self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._rows == other._rows
        if isinstance(other, int):
            return self._rows == (((0, 0, (other,)),) if other else ())
        return NotImplemented

    __hash__ = None  # polynomials are not hashable

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def _coerce(value: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            return value
        return const(index(value))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return LaurentPoly._trusted(_merge(self._rows, self._coerce(other)._rows, add))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return ZERO - self

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return LaurentPoly._trusted(_merge(self._rows, self._coerce(other)._rows, sub))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        """Row by row: a row of the operand with fewer rows times a row of the other is one
        ``_conv`` of two coefficient tuples (a one-term row shifts and scales), and ``_merge``
        adds up the partial products, one per row of the operand with fewer rows."""
        a, b = self._rows, self._coerce(other)._rows
        if not a or not b:
            return ZERO
        if len(a) < len(b):
            a, b = b, a
        return LaurentPoly._trusted(reduce(lambda x, y: _merge(x, y, add), (
            tuple((ea + eb, la + lb, _conv(ca, cb)) for ea, la, ca in a) for eb, lb, cb in b)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- exact division ------------------------------------------------------

    def divide_exact(self, divisor: "LaurentPoly | int") -> "LaurentPoly":
        """Exact division in the Laurent ring by a divisor ``t**d * g(q)`` with one t-row.

        A divisor with two or more t-rows raises ``ValueError`` (every divisor
        in this package is a polynomial in q), and one that does not divide
        exactly over the integers :class:`NonDivisibleError`.  Row e_t of the
        quotient is row ``e_t + d`` of this polynomial divided by ``g``, so
        each row is long-divided on its own, from its highest q-slot down to
        the q-span of ``g``.  A step at slot i writes only slots
        ``i - span .. i`` of its own row, so every index stays inside the row
        by construction and no row bound is needed.  An exact quotient row has
        nonzero ends, as products of its ends with those of ``g`` are the
        dividend's.  The term-dict loop in ``tests/reference.py`` is the reference.
        """
        divisor = self._coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        rows = divisor._rows
        if len(rows) > 1:
            raise ValueError("divide_exact needs a divisor with one t-row, t**d times a polynomial in q")
        ((d_t, d_q, g),) = rows
        span, lead = len(g) - 1, g[-1]
        lower = [(j - span, v) for j, v in enumerate(g[:-1]) if v]  # (offset from the lead, coefficient)
        quo = []
        for et, lo, cs in self._rows:
            rem, row = list(cs), [0] * max(0, len(cs) - span)
            for i in range(len(rem) - 1, span - 1, -1):
                if rem[i]:
                    # a nonzero remainder stays in rem[i], which no later step writes
                    c, rem[i] = divmod(rem[i], lead)
                    row[i - span] = c
                    for off, v in lower:
                        rem[i + off] -= c * v
            if any(rem):
                raise NonDivisibleError(f"{divisor!r} does not divide {self!r}")
            quo.append((et - d_t, lo - d_q, tuple(row)))
        return LaurentPoly._trusted(tuple(quo))

    # -- substitutions -------------------------------------------------------

    def substitute_t(self, sign: int, power: int) -> "LaurentPoly":
        """Substitute ``t = sign * q**power`` with ``sign`` in ``{+1, -1}``: ``_sum_rows`` folds
        row e_t, times ``sign**e_t``, into one q-row at offset ``e_t * power``."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        power = index(power)
        return _sum_rows((-1 if sign < 0 and et % 2 else 1, ((0, lo + et * power, cs),))
                         for et, lo, cs in self._rows)

    def substitute_t_zero(self) -> "LaurentPoly":
        """Substitute ``t = 0``; requires that no negative ``t`` exponent occurs."""
        rows = self._rows
        if rows and rows[0][0] < 0:
            raise ZeroDenominatorError("t = 0 meets a negative t exponent")
        return LaurentPoly._trusted(tuple(row for row in rows if row[0] == 0))

    def shift_t_by_q(self, r: int) -> "LaurentPoly":
        """Substitute ``t = t * q**r`` (exponent shift, no sign change)."""
        r = index(r)
        return LaurentPoly._trusted(tuple((et, lo + r * et, cs) for et, lo, cs in self._rows))

    def scale_q(self, factor: int) -> "LaurentPoly":
        """Substitute ``q = q**factor`` for a positive integer factor."""
        factor = index(factor)
        if factor < 1:
            raise ValueError("factor must be a positive integer")
        out = []
        for et, lo, cs in self._rows:
            row = [0] * ((len(cs) - 1) * factor + 1)
            row[::factor] = cs
            out.append((et, lo * factor, tuple(row)))
        return LaurentPoly._trusted(tuple(out))

    def invert_variables(self) -> "LaurentPoly":
        """Map every exponent pair (e_t, e_q) to (-e_t, -e_q): the rows, and each row, reversed."""
        return LaurentPoly._trusted(tuple((-et, 1 - lo - len(cs), cs[::-1]) for et, lo, cs in reversed(self._rows)))

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, t0: Fraction | int, q0: Fraction | int) -> Fraction:
        """Exact rational value at ``(t0, q0)``.

        Raises :class:`ZeroDenominatorError` when a negative exponent meets a
        zero base.  With ``t0 = a/b`` and ``q0 = c/d`` in lowest terms, the
        terms are summed as integers over the common denominator
        ``b**(tmax-tmin) * d**(qmax-qmin)``, and one Fraction is built at the
        end, times ``t0**tmin * q0**qmin``.
        """
        t0 = Fraction(t0)
        q0 = Fraction(q0)
        rows = self._rows
        if not rows:
            return Fraction(0)
        tmin, tmax, qmin, qmax = _box(rows)
        if (tmin < 0 and t0 == 0) or (qmin < 0 and q0 == 0):
            raise ZeroDenominatorError("negative exponent at a zero base")
        tnum = _powers(t0.numerator, tmax - tmin)
        tden = _powers(t0.denominator, tmax - tmin)
        qnum = _powers(q0.numerator, qmax - qmin)
        qden = _powers(q0.denominator, qmax - qmin)
        qw = list(map(mul, qnum, reversed(qden)))  # slot j holds num**j * den**(span - j)
        total = sum(tnum[et - tmin] * tden[tmax - et] * sum(map(mul, cs, qw[lo - qmin :])) for et, lo, cs in rows)
        return Fraction(total, tden[-1] * qden[-1]) * t0**tmin * q0**qmin

    # -- canonical renderings -------------------------------------------------

    def sorted_terms(self) -> list[tuple[ExpPair, int]]:
        """Terms sorted lexicographically by (e_t, e_q), read off the rows in order."""
        return [((et, eq), c) for et, lo, cs in self._rows for eq, c in enumerate(cs, lo) if c]

    def render(self) -> str:
        """Canonical text form, e.g. ``1 - q - t*q``."""
        if not self._rows:
            return "0"
        pieces: list[str] = []
        for (et, eq), c in self.sorted_terms():
            factors = []
            if et:
                factors.append("t" if et == 1 else f"t^{et}")
            if eq:
                factors.append("q" if eq == 1 else f"q^{eq}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def json_terms(self) -> list[dict[str, object]]:
        """Canonical JSON form: sorted term records with decimal-string coefficients."""
        return [{"et": et, "eq": eq, "c": str(c)} for (et, eq), c in self.sorted_terms()]

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


# -- rows ------------------------------------------------------------------------


def _conv(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients of the product of two rows: a scaled copy of the longer one
    slice-added at each nonzero slot of the shorter.  Their nonzero ends multiply to
    the product's ends, so it needs no cut."""
    if len(x) < len(y):
        x, y = y, x
    if len(y) == 1:
        return x if y[0] == 1 else tuple(map(mul, x, repeat(y[0])))
    n = len(x)
    row = [0] * (n + len(y) - 1)
    for s, c in enumerate(y):
        if c:
            row[s : s + n] = map(add, row[s : s + n], map(mul, x, repeat(c)))
    return tuple(row)


def _trimmed_rows(rows: Iterable[tuple[int, int, Sequence[int]]]) -> tuple[Row, ...]:
    """Dense rows in e_t order, each cut to its nonzero ends as a tuple of ints (an ``array``
    slice compares unequal to a tuple); zero rows are dropped."""
    out = []
    for et, lo, row in rows:
        if row[0] and row[-1]:
            out.append((et, lo, tuple(row)))
        else:
            nonzero = list(map(bool, row))
            if True in nonzero:
                start, stop = nonzero.index(True), len(row) - nonzero[::-1].index(True)
                out.append((et, lo + start, tuple(row[start:stop])))
    return tuple(out)


def _merge(a: tuple[Row, ...], b: tuple[Row, ...], op: Callable[[int, int], int]) -> tuple[Row, ...]:
    """The rows of ``a + b`` (``op`` is ``add``) or ``a - b`` (``op`` is ``sub``), merged by e_t:
    rows of one e_t are added slot by slot and cut, and a row of one side only is kept,
    negated when it is ``b``'s in a difference.  Adding through ``_sum_rows`` instead,
    whose accumulator spans every row's q-range, made each benchmark workload 13-18% slower."""
    out, i, n = [], 0, len(a)
    for et, lo, cs in b:
        while i < n and a[i][0] < et:
            out.append(a[i])
            i += 1
        if i < n and a[i][0] == et:
            (_, lo_a, cs_a), i, start = a[i], i + 1, min(lo, a[i][1])
            row = [0] * (max(lo + len(cs), lo_a + len(cs_a)) - start)
            row[lo_a - start : lo_a - start + len(cs_a)] = cs_a
            s = lo - start
            row[s : s + len(cs)] = map(op, row[s : s + len(cs)], cs)
            out += _trimmed_rows(((et, start, row),))
        else:
            out.append((et, lo, cs if op is add else tuple(map(neg, cs))))
    return (*out, *a[i:])


def _sum_rows(pairs: Iterable[tuple[int, Iterable[Row]]]) -> LaurentPoly:
    """``sum w * p`` over ``(w, p._rows)`` pairs, folded row by row into one dense row per e_t."""
    rows = [(w, *row) for w, p_rows in pairs for row in p_rows]
    q0 = min([lo for _, _, lo, _ in rows], default=0)
    width = max([lo + len(cs) for _, _, lo, cs in rows], default=0) - q0
    acc = {et: [0] * width for _, et, _, _ in rows}
    for w, et, lo, cs in rows:
        row, s = acc[et], lo - q0
        row[s : s + len(cs)] = map(add, row[s : s + len(cs)], cs if w == 1 else map(mul, cs, repeat(w)))
    return LaurentPoly._trusted(_trimmed_rows((et, q0, acc[et]) for et in sorted(acc)))


def _box(rows: tuple[Row, ...]) -> Box:
    """The degree box of nonempty rows."""
    return (rows[0][0], rows[-1][0], min([lo for _, lo, _ in rows]), max([lo + len(cs) for _, lo, cs in rows]) - 1)


def _powers(base: int, top: int) -> list[int]:
    """``[base**0, base**1, ..., base**top]``."""
    return [base**k for k in range(top + 1)]


# -- packed (Kronecker) arithmetic ---------------------------------------------
#
# Rows inside a degree box are packed into one Python int by evaluating them
# at t = X**stride, q = X with X = 2**(8*width): the slot of (e_t, e_q) is
# (e_t - tmin) * stride + (e_q - qmin), and width is a whole number of bytes.
# Packing is a ring homomorphism, so sums, integer multiples, monomial shifts
# and products of packed ints are packed sums, multiples, shifts and products.
# An int decodes back to the polynomial exactly when that polynomial has q-span
# below ``stride`` and every coefficient below 2**(8*width - 1) in magnitude;
# callers derive both facts before packing.

# array typecodes by item size.  On little-endian machines slots of these widths
# convert in C; other widths, and all widths on big-endian ones, convert per slot.
_TYPECODES = {array(code).itemsize: code for code in "qlihb"}
if sys.byteorder != "little":
    _TYPECODES = {}


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for values in ``[-bound, bound]`` plus a spare sign bit.

    The width is rounded up to 1, 2, 4 or 8 bytes when that suffices, so that
    ``_to_int`` and ``_to_slots`` convert through :mod:`array` in C.  With
    exact widths and per-slot conversion only, the benchmark's median ``op_s``
    rose from 0.060 to 0.071 s on ``euler-ladder`` and from 0.76 to 0.83 s on
    ``closed-forms-max`` (10 alternating pairs each, 2 cores, CPython 3.11.7).
    """
    need = (bound.bit_length() + 8) // 8
    return next((w for w in (1, 2, 4, 8) if w >= need), need)


def _half_offset(width: int, nslots: int) -> int:
    """The int with ``2**(8*width - 1)`` in each of ``nslots`` slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * nslots, "little")


def _to_int(slots: Sequence[int], width: int) -> int:
    """``sum slots[k] * 2**(8*width*k)``; a slot that does not fit ``width`` signed bytes raises ``OverflowError``.

    The slots are written in two's complement; flipping each one's top bit adds
    the half-offset, which is then taken off the whole int."""
    code = _TYPECODES.get(width)
    raw = array(code, slots) if code else b"".join(v.to_bytes(width, "little", signed=True) for v in slots)
    half = _half_offset(width, len(slots))
    return (int.from_bytes(raw, "little") ^ half) - half


def _to_slots(value: int, width: int, nslots: int) -> Sequence[int]:
    """The ``nslots`` signed ``width``-byte slots of ``value``; inverse of ``_to_int``.

    With the half-offset added every slot is nonnegative, so the bytes split with
    no borrows, and flipping each top bit gives two's complement.  ``OverflowError``
    means the offset value is negative or longer than ``nslots`` slots: a broken
    degree box or top slot.  An interior slot's overflow carries and is not detected.
    """
    half = _half_offset(width, nslots)
    value += half
    if value < 0 or value.bit_length() > 8 * width * nslots:
        raise OverflowError("packed value does not fit its derived degree box")
    raw = (value ^ half).to_bytes(width * nslots, "little")
    code = _TYPECODES.get(width)
    if code:
        return array(code, raw)
    return [int.from_bytes(raw[k : k + width], "little", signed=True) for k in range(0, len(raw), width)]


class _Layout(NamedTuple):
    """Where a packed int keeps its terms: t-rows ``stride`` slots apart, ``width`` bytes a slot.

    Callers derive a stride above every q-span they decode and a bound on every
    coefficient; slot widths and bit positions stay in this class, and the
    signed-slot codec ``_to_int``/``_to_slots`` is the only code that knows
    the half-offset.
    """

    stride: int
    width: int

    @classmethod
    def fitting(cls, stride: int, bound: int) -> "_Layout":
        """The layout with this stride whose slots hold every value in ``[-bound, bound]``."""
        return cls(stride, _slot_bytes(bound))

    def pack(self, rows: tuple[Row, ...], box: Box) -> int:
        """The int of ``rows``, which lie inside ``box``; slot 0 is (tmin, qmin)."""
        stride, width = self
        tmin, tmax, qmin, qmax = box
        slots = [0] * ((tmax - tmin) * stride + qmax - qmin + 1)
        for et, lo, cs in rows:
            s = (et - tmin) * stride + lo - qmin
            slots[s : s + len(cs)] = cs
        return _to_int(slots, width)

    def shifts(self, terms: Mapping[ExpPair, int], tmin: int, qmin: int) -> list[tuple[int, int]]:
        """``(coefficient, bit shift)`` per term, for terms with exponents from (tmin, qmin).

        Multiplying a packed int by the term's monomial is a left shift by that
        many bits.
        """
        stride, width = self
        bits = 8 * width
        return [(c, bits * ((et - tmin) * stride + eq - qmin)) for (et, eq), c in terms.items()]

    def unpack(self, value: int, box: Box) -> LaurentPoly:
        """Decode the polynomial inside ``box`` from a packed int whose slot 0 is (tmin, qmin).

        Only the box is read, one dense row per t-row, each cut to its nonzero
        ends.  Correctness rests on the caller's derived bounds, which the
        tests check against the dict references; the one check made is
        ``_to_slots``'s on the whole int.
        """
        stride, width = self
        tmin, tmax, qmin, qmax = box
        cols = qmax - qmin + 1
        nslots = (tmax - tmin) * stride + cols
        slots = _to_slots(value, width, nslots)
        return LaurentPoly._trusted(_trimmed_rows(
            (et, qmin, slots[s : s + cols]) for et, s in zip(range(tmin, tmax + 1), range(0, nslots, stride))
        ))


Item = tuple[int, int, int, Sequence[LaurentPoly]]  # (c, a, b, (p_1, ...))


def _sum_of_products(items: Iterable[Item]) -> LaurentPoly:
    """``sum c * t**a * q**b * p_1 * ... * p_m`` over ``(c, a, b, (p_1, ..., p_m))`` items.

    The sum is one packed int, decoded once.  An item's degree box is its factors'
    boxes summed and shifted by (a, b); the decode box is the union of the item
    boxes.  Each coefficient is at most ``sum |c| * prod |p_i|_1`` in magnitude.
    Items with c = 0 or a zero factor are skipped.

    Each factor's box, norm and packed ints live on the factor itself (see
    ``_pack_facts``), so a factor is packed once per layout over every sum it
    takes part in, not once per sum.  A one-row factor packs to the same int at
    every stride, so it is keyed by ``(0, width)``, a multi-row one by
    ``(stride, width)``.
    """
    live: list[tuple[int, int, int, int, int, list[tuple[LaurentPoly, _PackFacts]]]] = []
    bound = 0
    for c, a, b, factors in items:
        if not c:
            continue
        lo_t, hi_t, lo_q, hi_q, size = a, a, b, b, abs(c)
        facts = []
        for p in factors:
            if not p._rows:
                break
            f = _pack_facts(p)
            (t0, t1, q0, q1), norm, _ = f
            lo_t, hi_t, lo_q, hi_q, size = lo_t + t0, hi_t + t1, lo_q + q0, hi_q + q1, size * norm
            facts.append((p, f))
        else:
            bound += size
            live.append((c, lo_t, hi_t, lo_q, hi_q, facts))
    if not live:
        return ZERO
    _, lo_ts, hi_ts, lo_qs, hi_qs, _ = zip(*live)
    tmin, tmax, qmin, qmax = min(lo_ts), max(hi_ts), min(lo_qs), max(hi_qs)
    stride = qmax - qmin + 1
    layout = _Layout.fitting(stride, bound)
    rows_key, row_key = (stride, layout.width), (0, layout.width)
    bits = 8 * layout.width
    total = 0
    for c, lo_t, _, lo_q, _, facts in live:
        value = c
        for p, (box, _, packed) in facts:
            key = row_key if box[0] == box[1] else rows_key
            v = packed.get(key)
            if v is None:
                v = packed[key] = layout.pack(p._rows, box)
            value *= v
        total += value << (bits * ((lo_t - tmin) * stride + lo_q - qmin))
    return layout.unpack(total, (tmin, tmax, qmin, qmax))


_PackFacts = tuple[Box, int, dict[tuple[int, int], int]]  # (box, l1 norm, packed ints by key)


def _pack_facts(p: LaurentPoly) -> _PackFacts:
    """The box, l1 norm and packed-int memo of a nonzero polynomial, made on first use.

    They are kept in the polynomial's ``_pack_facts`` slot; polynomials are
    immutable, so the memo never goes stale.
    """
    try:
        return p._pack_facts
    except AttributeError:
        rows = p._rows
        facts = p._pack_facts = (_box(rows), sum([sum(map(abs, cs)) for _, _, cs in rows]), {})
        return facts


def monomial(coeff: int, et: int = 0, eq: int = 0) -> LaurentPoly:
    """The single-term polynomial ``coeff * t**et * q**eq``: one row of one slot."""
    return LaurentPoly({(et, eq): coeff})


def const(c: int) -> LaurentPoly:
    return monomial(c)


ZERO = LaurentPoly()
ONE = const(1)
T = monomial(1, 1, 0)
Q = monomial(1, 0, 1)
ONE_MINUS_Q = LaurentPoly({(0, 0): 1, (0, 1): -1})
_ONE_PLUS_T = LaurentPoly({(0, 0): 1, (1, 0): 1})
_ONE_PLUS_Q = LaurentPoly({(0, 0): 1, (0, 1): 1})
_ONE_MINUS_T2 = LaurentPoly({(0, 0): 1, (2, 0): -1})
