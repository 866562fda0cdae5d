"""Exact arithmetic substrate.

Everything in this package is computed exactly: the universal value type is
:class:`LaurentPoly`, a polynomial in the two variables ``t`` and ``q`` whose
exponents may be negative and whose coefficients are arbitrary-precision
integers.  Rational scalars are plain :class:`fractions.Fraction` values.  No
floating point appears anywhere.

All values are immutable after construction and all operations are pure.

Dense t-rows are the one form of a polynomial (see :class:`LaurentPoly`): a
product slice-adds a scaled copy of one row per nonzero slot of another, a sum
merges rows by e_t and ``divide_exact`` divides each row by binomials
``1 - sign * q**j``, one running-sum pass per factor.  No other module reads or
builds a row.  A term dict is made only when ``LaurentPoly.terms`` is read, and
``json_text`` writes from the rows; the term-dict product, sum and long
division, the dense row fold and the term-by-term loops of ``substitute_t`` and
``evaluate`` are the references in ``tests/reference.py``.

Two folds go through packed ints (Kronecker substitution, see ``_Layout``):
``substitute_t``, and ``_sum_of_products``, which forms a whole sum of
``c * t**a * q**b * p_1 * ... * p_m`` items (a ballot expansion of ``qkit`` is
one, an item ``(w, 0, 0, (K_k,))`` per k).  Each shift-adds packed rows into
one int, under a derived bound on every coefficient, and ``_Layout.unpack``
decodes it once; the moment DP (``cfrac._moment``, whose one moment
``_Layout.unpack`` decodes) is the other user of ``_Layout``.  A polynomial
keeps one packed int per t-row and slot width (``_row_ints``), with its box and
l1 norm, in the lazily filled ``_pack_facts`` slot, so a polynomial shared by
many folds converts its rows once per width.  Slots are signed, and only the
codec ``_to_int``/``_to_bytes``/``_slots`` knows the half-offset that splits an
int into them.

Every memo of the package is made by ``_memo``, which lists it in ``_MEMOS``
for ``tqeuler.clear_caches()``.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, reduce
from itertools import accumulate, repeat
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


def _size(value: int, name: str, low: int = 0) -> int:
    """``value`` as an int, the one check of every size with a lower end: ``operator.index``
    first, so that a non-integer raises ``TypeError`` whatever its sign, then ``ValueError``
    below ``low``."""
    value = index(value)
    if value < low:
        raise ValueError(f"{name} must be nonnegative" if low == 0 else f"{name} must be at least {low}")
    return value


def _sign(value: int, name: str) -> int:
    """``value`` as an int in {+1, -1}, checked like :func:`_size`: ``1.0`` raises ``TypeError``."""
    value = index(value)
    if value not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1")
    return value


_MEMOS: list = []  # every memo as ``_memo`` made it, so a wrapper later bound to its name is cleared too


def _memo(fn):
    """``fn`` memoised without bound, the one memo rule of the package, and listed in ``_MEMOS``.

    Keys are typed, so an integral float never reaches the entry of an equal int: it runs
    ``fn``, whose checks raise as they do cold.  A memo keeps every key it sees, so a caller
    sweeping an argument grows it without bound until ``tqeuler.clear_caches()`` empties it.
    """
    memo = lru_cache(maxsize=None, typed=True)(fn)
    _MEMOS.append(memo)
    return memo


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
    first packed by one of the folds, which then keep its box, norm and row
    ints there.
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
        n = _size(n, "exponent")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- exact division ------------------------------------------------------

    def divide_exact(self, sign: int, powers: Iterable[int]) -> "LaurentPoly":
        """Exact division by the product of ``1 - sign * q**j`` over ``j`` in ``powers``.

        ``sign`` is +1 or -1 and each power j is at least 1; repeats are allowed,
        so ``(1, [1] * m)`` divides by ``(1-q)**m`` and ``(eps, range(1, b + 1))``
        by ``(eps*q; q)_b``.  Each t-row is divided by one factor at a time.  If
        ``p = (1 - sign * q**j) * y``, then ``y_i = p_i + sign * y_{i-j}`` (with
        ``y_i = 0`` below the row), so each residue class of slots mod j is one
        running sum; for sign -1 every other slot of a class is negated before
        and after the sum.  The sums run over all of p's slots, and y is all but
        the top j of them: the division is exact iff those j are 0, and otherwise
        :class:`NonDivisibleError` is raised.  An exact quotient row has nonzero
        ends, so it needs no cut: its bottom slot is p's, and p's top slot is
        ``-sign`` times y's.  The term-dict long division ``divide_reference`` in
        ``tests/reference.py`` is the reference.
        """
        sign = _sign(sign, "sign")
        powers = [_size(j, "power", 1) for j in powers]
        quo = []
        for et, lo, cs in self._rows:
            for j in powers:
                y = [0] * len(cs)
                for r in range(j):
                    if sign > 0:
                        y[r::j] = accumulate(cs[r::j])
                    else:
                        run = list(cs[r::j])
                        run[1::2] = map(neg, run[1::2])
                        run = list(accumulate(run))
                        run[1::2] = map(neg, run[1::2])
                        y[r::j] = run
                if any(y[-j:]):
                    raise NonDivisibleError(f"1 {'-' if sign > 0 else '+'} q^{j} does not divide {self!r}")
                cs = y[:-j]
            quo.append((et, lo, tuple(cs)))
        return LaurentPoly._trusted(tuple(quo))

    # -- substitutions -------------------------------------------------------

    def substitute_t(self, sign: int, power: int) -> "LaurentPoly":
        """Substitute ``t = sign * q**power`` with ``sign`` in ``{+1, -1}``: row e_t moves to
        q-offset ``e_t * power + lo`` with sign ``sign**e_t``, into one q-row.

        The terms are distinct exponent pairs, so each slot of the result is a
        signed sum of distinct coefficients, at most ``|p|_1`` in magnitude: the
        slot width holds that norm.  The rows' packed ints at that width (see
        ``_row_ints``, made once per width) are shift-added into one int, which
        ``_Layout.unpack`` decodes once.
        """
        sign, power = _sign(sign, "sign"), index(power)
        rows = self._rows
        if not rows:
            return ZERO
        offsets = [lo + et * power for et, lo, _ in rows]
        qmin = min(offsets)
        qmax = max([off + len(cs) for off, (_, _, cs) in zip(offsets, rows)]) - 1
        layout = _Layout.fitting(qmax - qmin + 1, _pack_facts(self)[1])
        bits, odd = 8 * layout.width, 1 if sign < 0 else 0
        total = 0
        for (et, _, _), off, v in zip(rows, offsets, _row_ints(self, layout.width)):
            total += (-v if et & odd else v) << (bits * (off - qmin))
        return layout.unpack(total, (0, 0, qmin, qmax))

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
        factor = _size(factor, "factor", 1)
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
        end, times ``t0**tmin * q0**qmin``.  :mod:`fractions` is imported here, on the
        first call, so that importing the package does not load it.
        """
        from fractions import Fraction

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

    def json_text(self) -> str:
        """Canonical JSON form: the sorted term records ``{"c": "<decimal>", "eq": e_q, "et": e_t}``
        as ``json.dumps(records, indent=2, sort_keys=True)`` writes them, written from the rows
        in term order: with indent set, json.dumps runs its pure-Python encoder, and through
        ``sorted_terms()`` the euler-ladder benchmark's op_s was 6.5% higher."""
        records = [f'  {{\n    "c": "{c}",\n    "eq": {eq},\n    "et": {et}\n  }}'
                   for et, lo, cs in self._rows for eq, c in enumerate(cs, lo) if c]
        return "[\n" + ",\n".join(records) + "\n]" if records else "[]"

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


def _trimmed_row(et: int, lo: int, row: list[int]) -> tuple[Row, ...]:
    """A merged row cut to its nonzero ends as a tuple of ints: one row, or none if all are 0."""
    if row[0] and row[-1]:
        return ((et, lo, tuple(row)),)
    nonzero = list(map(bool, row))
    if True not in nonzero:
        return ()
    start, stop = nonzero.index(True), len(row) - nonzero[::-1].index(True)
    return ((et, lo + start, tuple(row[start:stop])),)


def _merge(a: tuple[Row, ...], b: tuple[Row, ...], op: Callable[[int, int], int]) -> tuple[Row, ...]:
    """The rows of ``a + b`` (``op`` is ``add``) or ``a - b`` (``op`` is ``sub``), merged by e_t:
    rows of one e_t are added slot by slot and cut, and a row of one side only is kept,
    negated when it is ``b``'s in a difference.  Adding through a dense fold instead, whose
    accumulator spans every row's q-range, made each benchmark workload 13-18% slower."""
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
            out += _trimmed_row(et, start, row)
        else:
            out.append((et, lo, cs if op is add else tuple(map(neg, cs))))
    return (*out, *a[i:])


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
    ``_to_int`` and ``_slots`` convert through :mod:`array` in C.  With
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


def _to_bytes(value: int, width: int, nslots: int) -> bytes:
    """The ``nslots`` signed ``width``-byte slots of ``value`` in two's complement, slot 0
    first; ``_slots`` reads them back, so the pair inverts ``_to_int``.

    With the half-offset added every slot is nonnegative, so the bytes split with
    no borrows, and flipping each top bit gives two's complement; a zero slot is
    ``width`` zero bytes.  ``OverflowError`` means the offset value is negative or
    longer than ``nslots`` slots: a broken degree box or top slot.  An interior
    slot's overflow carries and is not detected.
    """
    half = _half_offset(width, nslots)
    value += half
    if value < 0 or value.bit_length() > 8 * width * nslots:
        raise OverflowError("packed value does not fit its derived degree box")
    return (value ^ half).to_bytes(width * nslots, "little")


def _slots(raw: bytes, width: int) -> tuple[int, ...]:
    """The signed ``width``-byte slots of two's-complement bytes, as a tuple of ints."""
    code = _TYPECODES.get(width)
    if code:
        return tuple(array(code, raw))
    return tuple([int.from_bytes(raw[k : k + width], "little", signed=True) for k in range(0, len(raw), width)])


class _Layout(NamedTuple):
    """Where a packed int keeps its terms: t-rows ``stride`` slots apart, ``width`` bytes a slot.

    Callers derive a stride above every q-span they decode and a bound on every
    coefficient; slot widths and bit positions stay in this class.  Slots are
    signed: ``_to_int`` writes a row's slots into an int, and ``_to_bytes`` and
    ``_slots`` read them back, and only that codec knows the half-offset.
    """

    stride: int
    width: int

    @classmethod
    def fitting(cls, stride: int, bound: int) -> "_Layout":
        """The layout with this stride whose slots hold every value in ``[-bound, bound]``."""
        return cls(stride, _slot_bytes(bound))

    def shift(self, et: int, eq: int) -> int:
        """The left shift that multiplies a packed int by ``t**et * q**eq``, for et, eq >= 0."""
        return 8 * self.width * (et * self.stride + eq)

    def unpack(self, value: int, box: Box) -> LaurentPoly:
        """Decode the polynomial inside ``box`` from a packed int whose slot 0 is (tmin, qmin).

        Only the box is read, one t-row at a time.  A row is cut to its nonzero
        ends on its two's-complement bytes, where a zero slot is ``width`` zero
        bytes, before its slots are read.  Correctness rests on the caller's
        derived bounds, which the tests check against the dict references; the
        one check made is ``_to_bytes``'s on the whole int.
        """
        stride, width = self
        tmin, tmax, qmin, qmax = box
        span = (qmax - qmin + 1) * width
        raw = _to_bytes(value, width, (tmax - tmin) * stride + qmax - qmin + 1)
        rows = []
        for et, s in zip(range(tmin, tmax + 1), range(0, len(raw), stride * width)):
            seg = raw[s : s + span]
            head = span - len(seg.lstrip(b"\0"))
            if head < span:
                head -= head % width
                tail = len(seg.rstrip(b"\0"))
                tail += -tail % width
                rows.append((et, qmin + head // width, _slots(seg[head:tail], width)))
        return LaurentPoly._trusted(tuple(rows))


Item = tuple[int, int, int, Sequence[LaurentPoly]]  # (c, a, b, (p_1, ...))


def _sum_of_products(items: Iterable[Item]) -> LaurentPoly:
    """``sum c * t**a * q**b * p_1 * ... * p_m`` over ``(c, a, b, (p_1, ..., p_m))`` items.

    The sum is one packed int, decoded once.  An item's degree box is its factors'
    boxes summed and shifted by (a, b); the decode box is the union of the item
    boxes.  Each coefficient is at most ``sum |c| * prod |p_i|_1`` in magnitude:
    ``sum |w| * |K_k|_1`` for a ballot expansion.  Items with c = 0 or a zero
    factor are skipped.

    Two loops.  The first reads each factor's box and norm from its
    ``_pack_facts`` and widens the union box and the bound as it goes, keeping
    ``(c, lo_t, lo_q, factors)`` for each live item.  The second reads the
    factors again, so they must be a sequence: a one-shot iterator, which the
    first loop has spent, fails ``len`` with ``TypeError`` instead of giving a
    wrong sum.  It packs each factor from the row ints it keeps, so a factor's
    rows are converted once per slot width over every sum it takes part in: a
    one-row factor is its row int, and a multi-row one is its row ints
    shift-added at the sum's stride (``_packed``).
    """
    live: list[tuple[int, int, int, Sequence[LaurentPoly]]] = []
    bound = 0
    for c, a, b, factors in items:
        if not c:
            continue
        lo_t, hi_t, lo_q, hi_q, size = a, a, b, b, abs(c)
        for p in factors:
            try:
                (t0, t1, q0, q1), norm, _ = p._pack_facts
            except AttributeError:
                if not p._rows:
                    break
                (t0, t1, q0, q1), norm, _ = _pack_facts(p)
            lo_t += t0
            hi_t += t1
            lo_q += q0
            hi_q += q1
            size *= norm
        else:
            len(factors)  # TypeError for a one-shot iterator, which the loop above has spent
            if live:
                tmin, tmax = (lo_t if lo_t < tmin else tmin), (hi_t if hi_t > tmax else tmax)
                qmin, qmax = (lo_q if lo_q < qmin else qmin), (hi_q if hi_q > qmax else qmax)
            else:
                tmin, tmax, qmin, qmax = lo_t, hi_t, lo_q, hi_q
            bound += size
            live.append((c, lo_t, lo_q, factors))
    if not live:
        return ZERO
    stride = qmax - qmin + 1
    layout = _Layout.fitting(stride, bound)
    width = layout.width
    bits = 8 * width
    total = 0
    for c, lo_t, lo_q, factors in live:
        value = c
        for p in factors:
            row_ints = p._pack_facts[2].get(width) or _row_ints(p, width)
            value *= row_ints[0] if len(row_ints) == 1 else _packed(p, stride, width)
        total += value << (bits * ((lo_t - tmin) * stride + lo_q - qmin))
    return layout.unpack(total, (tmin, tmax, qmin, qmax))


_PackFacts = tuple[Box, int, dict[int, tuple[int, ...]]]  # (box, l1 norm, row ints by slot width)


def _pack_facts(p: LaurentPoly) -> _PackFacts:
    """The box, l1 norm and row ints of a nonzero polynomial, made on first use.

    The row ints are a dict from slot width to the packed int of each row (see
    ``_row_ints``); it grows by one entry per width the polynomial is packed at.
    All three are kept in the polynomial's ``_pack_facts`` slot; polynomials are
    immutable, so they never go stale.
    """
    try:
        return p._pack_facts
    except AttributeError:
        rows = p._rows
        facts = p._pack_facts = (_box(rows), sum([sum(map(abs, cs)) for _, _, cs in rows]), {})
        return facts


def _row_ints(p: LaurentPoly, width: int) -> tuple[int, ...]:
    """The packed int of each row of ``p`` at this slot width, slot 0 at the row's lowest
    e_q, converted by ``_to_int`` on the first request for the width and kept."""
    ints = _pack_facts(p)[2]
    got = ints.get(width)
    if got is None:
        got = ints[width] = tuple([_to_int(cs, width) for _, _, cs in p._rows])
    return got


def _packed(p: LaurentPoly, stride: int, width: int) -> int:
    """``p`` packed at ``(stride, width)`` with slot 0 at its box's (tmin, qmin): its row ints
    shift-added, row e_t at slot ``(e_t - tmin) * stride + lo - qmin``."""
    ints = _row_ints(p, width)
    (tmin, _, qmin, _), _, _ = p._pack_facts
    bits = 8 * width
    return sum([v << (bits * ((et - tmin) * stride + lo - qmin)) for (et, lo, _), v in zip(p._rows, ints)])


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
