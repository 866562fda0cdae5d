"""Exact arithmetic substrate.

Everything in this package is computed exactly: the universal value type is
:class:`LaurentPoly`, a sparse polynomial in the two variables ``t`` and ``q``
whose exponents may be negative and whose coefficients are arbitrary-precision
integers.  :class:`Series` is a truncated formal power series in ``x`` with
``LaurentPoly`` coefficients.  Rational scalars are plain
:class:`fractions.Fraction` values.  No floating point appears anywhere.

All values are immutable after construction and all operations are pure, so
they may be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from types import MappingProxyType
from typing import Iterable, Mapping

__all__ = [
    "LaurentPoly",
    "Series",
    "NonDivisibleError",
    "NotInvertibleError",
    "ZeroDenominatorError",
    "monomial",
    "const",
    "div_exact",
    "ZERO",
    "ONE",
    "T",
    "Q",
]


class NonDivisibleError(ArithmeticError):
    """Exact division left a remainder.

    This is a correctness alarm: every division performed by this package is
    supposed to be exact, so a remainder means a formula was transcribed or
    implemented incorrectly.  It is never silently swallowed.
    """


class NotInvertibleError(ArithmeticError):
    """Series reciprocal requested for a series whose constant term is not 1."""


class ZeroDenominatorError(ZeroDivisionError):
    """A negative exponent met a zero base during rational evaluation."""


ExpPair = tuple[int, int]


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
    """

    __slots__ = ("_terms",)

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

    def is_zero(self) -> bool:
        return not self._terms

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
        other = self._coerce(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = self._coerce(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._trusted(out)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = self._coerce(other)
        out: dict[ExpPair, int] = {}
        for (at, aq), ac in self._terms.items():
            for (bt, bq), bc in other._terms.items():
                e = (at + bt, aq + bq)
                s = out.get(e, 0) + ac * bc
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly._trusted(out)

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
        """Exact division in the Laurent ring.

        Raises :class:`NonDivisibleError` if the divisor does not divide this
        polynomial exactly over the integers.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        # Shift both operands into the ordinary polynomial ring so that the
        # division algorithm terminates; the monomial shift is restored at
        # the end.
        a_t = min(et for et, _ in self._terms)
        a_q = min(eq for _, eq in self._terms)
        b_t = min(et for et, _ in divisor._terms)
        b_q = min(eq for _, eq in divisor._terms)
        a = {(et - a_t, eq - a_q): c for (et, eq), c in self._terms.items()}
        b = {(et - b_t, eq - b_q): c for (et, eq), c in divisor._terms.items()}
        quo = _poly_div_exact(a, b)
        if quo is None:
            raise NonDivisibleError(f"{divisor!r} does not divide {self!r}")
        shift_t, shift_q = a_t - b_t, a_q - b_q
        return LaurentPoly({(et + shift_t, eq + shift_q): c for (et, eq), c in quo.items()})

    # -- substitutions -------------------------------------------------------

    def substitute_t(self, sign: int, power: int) -> "LaurentPoly":
        """Substitute ``t = sign * q**power`` with ``sign`` in ``{+1, -1}``."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        out: dict[ExpPair, int] = {}
        for (et, eq), c in self._terms.items():
            s = c if (sign == 1 or et % 2 == 0) else -c
            e = (0, eq + et * power)
            tot = out.get(e, 0) + s
            if tot:
                out[e] = tot
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    def substitute_t_zero(self) -> "LaurentPoly":
        """Substitute ``t = 0``; requires that no negative ``t`` exponent occurs."""
        for (et, _), _c in self._terms.items():
            if et < 0:
                raise ZeroDenominatorError("t = 0 meets a negative t exponent")
        return LaurentPoly({e: c for e, c in self._terms.items() if e[0] == 0})

    def shift_t_by_q(self, r: int) -> "LaurentPoly":
        """Substitute ``t = t * q**r`` (exponent shift, no sign change)."""
        return LaurentPoly({(et, eq + r * et): c for (et, eq), c in self._terms.items()})

    def scale_q(self, factor: int) -> "LaurentPoly":
        """Substitute ``q = q**factor`` for a positive integer factor."""
        if factor < 1:
            raise ValueError("factor must be a positive integer")
        return LaurentPoly({(et, eq * factor): c for (et, eq), c in self._terms.items()})

    def invert_variables(self) -> "LaurentPoly":
        """Map every exponent pair (e_t, e_q) to (-e_t, -e_q)."""
        return LaurentPoly({(-et, -eq): c for (et, eq), c in self._terms.items()})

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, t0: Fraction | int, q0: Fraction | int) -> Fraction:
        """Exact rational value at ``(t0, q0)``.

        Raises :class:`ZeroDenominatorError` when a negative exponent meets a
        zero base.
        """
        t0 = Fraction(t0)
        q0 = Fraction(q0)
        total = Fraction(0)
        for (et, eq), c in self._terms.items():
            if (et < 0 and t0 == 0) or (eq < 0 and q0 == 0):
                raise ZeroDenominatorError("negative exponent at a zero base")
            total += c * t0**et * q0**eq
        return total

    # -- degree information ------------------------------------------------------

    def degree_box(self) -> tuple[int, int, int, int]:
        """(min t-exp, max t-exp, min q-exp, max q-exp); zero poly gives all 0."""
        if not self._terms:
            return (0, 0, 0, 0)
        ets = [et for et, _ in self._terms]
        eqs = [eq for _, eq in self._terms]
        return (min(ets), max(ets), min(eqs), max(eqs))

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

    @classmethod
    def from_json_terms(cls, records: Iterable[Mapping[str, object]]) -> "LaurentPoly":
        return cls({(int(r["et"]), int(r["eq"])): int(str(r["c"])) for r in records})

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


def _q_div_exact(u: dict[int, int], v: dict[int, int]) -> dict[int, int] | None:
    """Exact division of univariate integer polynomials given as exp->coeff maps."""
    dv = max(v)
    lv = v[dv]
    rem = dict(u)
    quo: dict[int, int] = {}
    while rem:
        du = max(rem)
        if du < dv:
            return None
        lu = rem[du]
        if lu % lv:
            return None
        c = lu // lv
        quo[du - dv] = c
        for e, vc in v.items():
            pos = du - dv + e
            s = rem.get(pos, 0) - c * vc
            if s:
                rem[pos] = s
            else:
                rem.pop(pos, None)
    return quo


def _poly_div_exact(a: dict[ExpPair, int], b: dict[ExpPair, int]) -> dict[ExpPair, int] | None:
    """Exact division in Z[t, q], treating polynomials as Z[q]-polynomials in t."""
    deg_b = max(et for et, _ in b)
    lead_b = {eq: c for (et, eq), c in b.items() if et == deg_b}
    rem = dict(a)
    quo: dict[ExpPair, int] = {}
    while rem:
        deg_r = max(et for et, _ in rem)
        if deg_r < deg_b:
            return None
        lead_r = {eq: c for (et, eq), c in rem.items() if et == deg_r}
        q_quo = _q_div_exact(lead_r, lead_b)
        if q_quo is None:
            return None
        dt = deg_r - deg_b
        for qe, qc in q_quo.items():
            quo[(dt, qe)] = quo.get((dt, qe), 0) + qc
            for (bt, bq), bc in b.items():
                e = (dt + bt, qe + bq)
                s = rem.get(e, 0) - qc * bc
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
    return quo


def monomial(coeff: int, et: int = 0, eq: int = 0) -> LaurentPoly:
    """The single-term polynomial ``coeff * t**et * q**eq``."""
    return LaurentPoly({(et, eq): coeff})


def const(c: int) -> LaurentPoly:
    return LaurentPoly({(0, 0): c})


def div_exact(a: LaurentPoly, b: LaurentPoly | int) -> LaurentPoly:
    """Module-level alias for :meth:`LaurentPoly.divide_exact`."""
    return a.divide_exact(b)


ZERO = LaurentPoly()
ONE = const(1)
T = monomial(1, 1, 0)
Q = monomial(1, 0, 1)


class Series:
    """Truncated formal power series in ``x`` with ``LaurentPoly`` coefficients.

    ``order`` is the truncation order N; ``coeffs`` holds the coefficients of
    ``x**0 .. x**N``.  Arithmetic between two series truncates to the smaller
    of the two orders.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[LaurentPoly]):
        coeffs = tuple(coeffs)
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order + 1 coefficients")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls(order, [ONE] + [ZERO] * order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(n, [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(n, [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)])

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Series(n, out)

    def recip(self) -> "Series":
        """Multiplicative inverse up to the truncation order.

        Only series with constant coefficient exactly 1 are supported, which
        covers every use in this package.
        """
        if self.coeffs[0] != ONE:
            raise NotInvertibleError("series reciprocal needs constant term 1")
        out = [ONE] + [ZERO] * self.order
        for n in range(1, self.order + 1):
            acc = ZERO
            for j in range(1, n + 1):
                sj = self.coeffs[j]
                if not sj.is_zero():
                    acc = acc + sj * out[n - j]
            out[n] = -acc
        return Series(self.order, out)

    def __repr__(self) -> str:
        inner = ", ".join(c.render() for c in self.coeffs)
        return f"Series(order={self.order}, [{inner}])"
