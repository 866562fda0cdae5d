"""Exact arithmetic substrate.

Everything in this package is computed exactly: the universal value type is
:class:`LaurentPoly`, a sparse polynomial in the two variables ``t`` and ``q``
whose exponents may be negative and whose coefficients are arbitrary-precision
integers.  Rational scalars are plain :class:`fractions.Fraction` values.  No
floating point appears anywhere.

All values are immutable after construction and all operations are pure.

``LaurentPoly.__mul__`` is the schoolbook dict loop ``_mul_dict``.  The packed
(Kronecker substitution, see ``_Layout``) path has one entry point here,
``_sum_of_products``, which forms a whole sum of
``c * t**a * q**b * p_1 * ... * p_m`` items in one packed int, with every
coefficient bounded by ``sum |c| * prod |p_i|_1``; the moment DP
(``cfrac._moment_walk``, each of whose moments ``_Layout.unpack`` decodes) is
the other user of ``_Layout``.  Slots are signed, and only the codec pair
``_to_int``/``_to_slots`` knows the half-offset that splits an int into them.
``_mul_dict`` and ``__add__`` are the reference both are tested against.
Each factor's box, l1 norm and packed ints (one per layout it was packed at)
live on the factor, in the lazily filled ``_pack_facts`` slot, so a
polynomial shared by many sums is packed once per layout.

The dense t-row form lives here too.  ``LaurentPoly._rows`` gives one
``(e_t, lowest e_q, coefficients)`` row per nonzero t-row and keeps them in a
second lazily filled slot, ``_row_memo``; ``LaurentPoly._from_rows`` is its
inverse.  ``_sum_rows`` folds weighted sums of such rows (``substitute_t`` is
one) and leaves the folded rows in its result's memo, and ``_Layout.unpack``
decodes a packed int row by row.  The memos ``formulas._tk_at_rows`` and
``qkit._kernel_rows`` keep what ``_rows`` returns and never assemble rows
themselves.

``LaurentPoly.divide_exact`` takes a divisor with one t-row, ``t**d * g(q)``,
and divides each dense row of the dividend by ``g`` on its own; the term-dict
loop that rescans the remainder for its leading term at every step is its
reference, in ``tests/reference.py``.  So is the term-by-term Fraction loop
for ``LaurentPoly.evaluate``, which sums integer numerators over one common
denominator instead.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import repeat
from operator import add, index, mul, neg
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    """Sparse Laurent polynomial in ``t`` and ``q`` over the integers.

    The internal term map sends exponent pairs ``(e_t, e_q)`` to nonzero
    integer coefficients.  The representation is canonical (zero coefficients
    are stripped eagerly), so equality is plain structural equality of the
    term maps.

    The constructor validates its input: exponents and coefficients must be
    integers (anything accepted by :func:`operator.index`), otherwise
    ``TypeError`` is raised.  Ring operations, whose results are canonical by
    construction, bypass it through :meth:`_trusted`.

    ``_pack_facts`` stays unset until the polynomial is first a factor of
    ``_sum_of_products``, which then keeps its box, norm and packed ints there.
    ``_row_memo``, the dense rows, stays unset until ``_rows`` is first read,
    unless ``_sum_rows`` made the polynomial and left its rows there.
    """

    __slots__ = ("_terms", "_pack_facts", "_row_memo")

    def __init__(self, terms: Mapping[ExpPair, int] | None = None):
        clean: dict[ExpPair, int] = {}
        if terms:
            for (et, eq), c in terms.items():
                e = (index(et), index(eq))
                c = index(c)
                if c:
                    clean[e] = c
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: dict[ExpPair, int]) -> "LaurentPoly":
        """Wrap an already-canonical term dict without copying or checking it.

        ``terms`` must have int exponent pairs and no zero coefficient, and the
        caller must not keep a reference to it.
        """
        p = object.__new__(cls)
        p._terms = terms
        return p

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self) -> Mapping[ExpPair, int]:
        """Read-only view of the canonical term map."""
        return MappingProxyType(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({} if other == 0 else {(0, 0): other})
        return NotImplemented

    __hash__ = None  # mutable-dict backed; polynomials are not hashable

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def _coerce(value: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            return value
        return const(index(value))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return LaurentPoly._trusted(_accumulate(dict(self._terms), self._coerce(other)._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        terms = self._coerce(other)._terms
        return LaurentPoly._trusted(_accumulate(dict(self._terms), zip(terms, map(neg, terms.values()))))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = self._coerce(other)
        return LaurentPoly._trusted(_mul_dict(self._terms, other._terms))

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
        each dense row is long-divided on its own, from its highest q-slot
        down to the q-span of ``g``.  A step at slot i writes only slots
        ``i - span .. i`` of its own row, so every index stays inside the row
        by construction and no row bound is needed.  The term-dict loop in
        ``tests/reference.py`` is the reference.
        """
        divisor = self._coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        rows = divisor._rows()
        if len(rows) > 1:
            raise ValueError("divide_exact needs a divisor with one t-row, t**d times a polynomial in q")
        ((d_t, d_q, g),) = rows
        span, lead = len(g) - 1, g[-1]
        lower = [(j - span, v) for j, v in enumerate(g[:-1]) if v]  # (offset from the lead, coefficient)
        quo = []
        for et, lo, cs in self._rows():
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
            quo.append((et - d_t, lo - d_q, row))
        return LaurentPoly._from_rows(quo)

    # -- dense rows ------------------------------------------------------------

    def _rows(self) -> tuple[Row, ...]:
        """One ``(e_t, lowest e_q, coefficients up to the highest e_q)`` per nonzero t-row,
        made on first use and kept in the ``_row_memo`` slot."""
        try:
            return self._row_memo
        except AttributeError:
            by_t: dict[int, dict[int, int]] = {}
            for (et, eq), c in self._terms.items():
                by_t.setdefault(et, {})[eq] = c
            rows = self._row_memo = tuple((et, lo, tuple(map(r.get, range(lo, max(r) + 1), repeat(0))))
                                          for et, r in by_t.items() for lo in (min(r),))
            return rows

    @classmethod
    def _from_rows(cls, rows: Iterable[tuple[int, int, Iterable[int]]]) -> "LaurentPoly":
        """The polynomial of rows with distinct e_t, zeros dropped; inverse of :meth:`_rows`."""
        return cls._trusted({(et, e): c for et, lo, cs in rows for e, c in enumerate(cs, lo) if c})

    # -- substitutions -------------------------------------------------------

    def substitute_t(self, sign: int, power: int) -> "LaurentPoly":
        """Substitute ``t = sign * q**power`` with ``sign`` in ``{+1, -1}``: ``_sum_rows`` folds
        row e_t of :meth:`_rows`, times ``sign**e_t``, into one q-row at offset ``e_t * power``."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        power = index(power)
        return _sum_rows((-1 if sign < 0 and et % 2 else 1, ((0, lo + et * power, cs),))
                         for et, lo, cs in self._rows())

    def substitute_t_zero(self) -> "LaurentPoly":
        """Substitute ``t = 0``; requires that no negative ``t`` exponent occurs."""
        for (et, _), _c in self._terms.items():
            if et < 0:
                raise ZeroDenominatorError("t = 0 meets a negative t exponent")
        # a subset of a canonical term map is canonical
        return LaurentPoly._trusted({e: c for e, c in self._terms.items() if e[0] == 0})

    def shift_t_by_q(self, r: int) -> "LaurentPoly":
        """Substitute ``t = t * q**r`` (exponent shift, no sign change)."""
        r = index(r)
        # injective on exponent pairs, so no two terms meet and no coefficient becomes 0
        return LaurentPoly._trusted({(et, eq + r * et): c for (et, eq), c in self._terms.items()})

    def scale_q(self, factor: int) -> "LaurentPoly":
        """Substitute ``q = q**factor`` for a positive integer factor."""
        if index(factor) < 1:
            raise ValueError("factor must be a positive integer")
        # injective for factor >= 1, so the term map stays canonical
        return LaurentPoly._trusted({(et, eq * factor): c for (et, eq), c in self._terms.items()})

    def invert_variables(self) -> "LaurentPoly":
        """Map every exponent pair (e_t, e_q) to (-e_t, -e_q)."""
        # injective, so the term map stays canonical
        return LaurentPoly._trusted({(-et, -eq): c for (et, eq), c in self._terms.items()})

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
        if not self._terms:
            return Fraction(0)
        tmin, tmax, qmin, qmax = _box(self._terms)
        if (tmin < 0 and t0 == 0) or (qmin < 0 and q0 == 0):
            raise ZeroDenominatorError("negative exponent at a zero base")
        tnum = _powers(t0.numerator, tmax - tmin)
        tden = _powers(t0.denominator, tmax - tmin)
        qnum = _powers(q0.numerator, qmax - qmin)
        qden = _powers(q0.denominator, qmax - qmin)
        total = sum(
            c * tnum[et - tmin] * tden[tmax - et] * qnum[eq - qmin] * qden[qmax - eq]
            for (et, eq), c in self._terms.items()
        )
        return Fraction(total, tden[-1] * qden[-1]) * t0**tmin * q0**qmin

    # -- canonical renderings -------------------------------------------------

    def sorted_terms(self) -> list[tuple[ExpPair, int]]:
        """Terms sorted lexicographically by (e_t, e_q)."""
        return sorted(self._terms.items())

    def render(self) -> str:
        """Canonical text form, e.g. ``1 - q - t*q``."""
        if not self._terms:
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


def _accumulate(out: dict[ExpPair, int], terms: Iterable[tuple[ExpPair, int]]) -> dict[ExpPair, int]:
    """Add ``terms`` into the term dict ``out`` in place, popping zero sums; returns ``out``."""
    for e, c in terms:
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _mul_dict(a: Mapping[ExpPair, int], b: Mapping[ExpPair, int]) -> dict[ExpPair, int]:
    """Schoolbook product of two term dicts."""
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


# -- packed (Kronecker) arithmetic ---------------------------------------------
#
# A term dict inside a degree box is packed into one Python int by evaluating
# it at t = X**stride, q = X with X = 2**(8*width): the slot of (e_t, e_q) is
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


def _box(terms: Mapping[ExpPair, int]) -> Box:
    """The degree box of a nonempty term dict."""
    ets, eqs = zip(*terms)
    return (min(ets), max(ets), min(eqs), max(eqs))


def _powers(base: int, top: int) -> list[int]:
    """``[base**0, base**1, ..., base**top]``."""
    return [base**k for k in range(top + 1)]


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

    def pack(self, terms: Mapping[ExpPair, int], box: Box) -> int:
        """The int of ``terms``, which lie inside ``box``; slot 0 is (tmin, qmin)."""
        stride, width = self
        tmin, tmax, qmin, qmax = box
        slots = [0] * ((tmax - tmin) * stride + qmax - qmin + 1)
        for (et, eq), c in terms.items():
            slots[(et - tmin) * stride + eq - qmin] = c
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

        Only the box is read, one dense row per t-row.  Correctness rests on
        the caller's derived bounds, which the tests check against the dict
        references; the one check made is ``_to_slots``'s on the whole int.
        """
        stride, width = self
        tmin, tmax, qmin, qmax = box
        cols = qmax - qmin + 1
        nslots = (tmax - tmin) * stride + cols
        slots = _to_slots(value, width, nslots)
        return LaurentPoly._from_rows(
            (et, qmin, slots[lo : lo + cols]) for et, lo in zip(range(tmin, tmax + 1), range(0, nslots, stride))
        )


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
            if not p._terms:
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
                v = packed[key] = layout.pack(p._terms, box)
            value *= v
        total += value << (bits * ((lo_t - tmin) * stride + lo_q - qmin))
    return layout.unpack(total, (tmin, tmax, qmin, qmax))


def _sum_rows(pairs: Iterable[tuple[int, Iterable[Row]]]) -> LaurentPoly:
    """``sum w * p`` over ``(w, p._rows())`` pairs, folded row by row into one dense row per e_t;
    the folded rows, cut to their nonzero ends, are the result's ``_rows``."""
    rows = [(w, *row) for w, p_rows in pairs for row in p_rows]
    q0 = min([lo for _, _, lo, _ in rows], default=0)
    width = max([lo + len(cs) for _, _, lo, cs in rows], default=0) - q0
    acc = {et: [0] * width for _, et, _, _ in rows}
    for w, et, lo, cs in rows:
        row, s = acc[et], lo - q0
        row[s : s + len(cs)] = map(add, row[s : s + len(cs)], cs if w == 1 else map(mul, cs, repeat(w)))
    out = []
    for et, row in acc.items():
        while row and not row[-1]:
            row.pop()
        if row:
            lo = next(i for i, c in enumerate(row) if c)
            out.append((et, q0 + lo, tuple(row[lo:])))
    p = LaurentPoly._from_rows(out)
    p._row_memo = tuple(out)
    return p


_PackFacts = tuple[Box, int, dict[tuple[int, int], int]]  # (box, l1 norm, packed ints by key)


def _pack_facts(p: LaurentPoly) -> _PackFacts:
    """The box, l1 norm and packed-int memo of a nonzero polynomial, made on first use.

    They are kept in the polynomial's ``_pack_facts`` slot; polynomials are
    immutable, so the memo never goes stale.
    """
    try:
        return p._pack_facts
    except AttributeError:
        facts = p._pack_facts = (_box(p._terms), sum(map(abs, p._terms.values())), {})
        return facts


def monomial(coeff: int, et: int = 0, eq: int = 0) -> LaurentPoly:
    """The single-term polynomial ``coeff * t**et * q**eq``."""
    return LaurentPoly({(et, eq): coeff})


def const(c: int) -> LaurentPoly:
    return LaurentPoly({(0, 0): c})


ZERO = LaurentPoly()
ONE = const(1)
T = monomial(1, 1, 0)
Q = monomial(1, 0, 1)
ONE_MINUS_Q = LaurentPoly({(0, 0): 1, (0, 1): -1})
_ONE_PLUS_T = LaurentPoly({(0, 0): 1, (1, 0): 1})
_ONE_PLUS_Q = LaurentPoly({(0, 0): 1, (0, 1): 1})
_ONE_MINUS_T2 = LaurentPoly({(0, 0): 1, (2, 0): -1})
