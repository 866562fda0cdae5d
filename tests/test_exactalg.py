import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tqeuler.exactalg import (
    LaurentPoly,
    NonDivisibleError,
    NotInvertibleError,
    ONE,
    Q,
    Series,
    T,
    ZERO,
    ZeroDenominatorError,
    const,
    div_exact,
    monomial,
)
from tqeuler import exactalg
from tqeuler.exactalg import (
    _PACK_MIN,
    _Layout,
    _box,
    _mul_dict,
    _mul_packed,
    _slot_bytes,
    _to_int,
    _to_slots,
)

ONE_MINUS_Q = LaurentPoly({(0, 0): 1, (0, 1): -1})
T1 = LaurentPoly({(0, 0): 1, (0, 1): -1, (1, 1): -1})  # 1 - q - t*q


def rand_poly(rng, max_terms=5, span=4, coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = (rng.randint(-span, span), rng.randint(-span, span))
        terms[e] = terms.get(e, 0) + rng.randint(-coeff, coeff)
    return LaurentPoly(terms)


@st.composite
def laurent_polys(draw):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        e = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        terms[e] = terms.get(e, 0) + draw(st.integers(-9, 9))
    return LaurentPoly(terms)


class TestAddMul:
    def test_cancellation(self):
        assert (ONE - Q) + Q == ONE

    def test_additive_identity(self):
        p = T1
        assert p + ZERO == p

    def test_like_terms(self):
        tq_inv = monomial(1, 1, -1)
        assert tq_inv + tq_inv == monomial(2, 1, -1)

    def test_difference_of_squares(self):
        assert (ONE - Q) * (ONE + Q) == ONE - monomial(1, 0, 2)

    def test_laurent_inverse_monomial(self):
        assert monomial(1, 0, -1) * Q == ONE

    def test_multiplicative_identity(self):
        assert T1 * ONE == T1

    def test_int_coercion(self):
        assert 2 * Q - Q - Q == ZERO
        assert Q + 1 == ONE + Q


class TestIntegerInput:
    """Non-integer input raises instead of being truncated by ``int()``."""

    def test_float_scalar(self):
        with pytest.raises(TypeError):
            Q * 2.5

    def test_fraction_scalar(self):
        with pytest.raises(TypeError):
            Q * Fraction(1, 2)

    def test_float_coefficient(self):
        with pytest.raises(TypeError):
            LaurentPoly({(0, 0): 1.9})

    def test_float_exponent(self):
        with pytest.raises(TypeError):
            LaurentPoly({(0.7, 1): 3})


def assert_canonical(p):
    for (et, eq), c in p.terms.items():
        assert type(et) is int and type(eq) is int and type(c) is int
        assert c != 0
    assert p == LaurentPoly(dict(p.terms))


class TestTrustedResults:
    """Ring operations skip validation, so their results must already be canonical."""

    @given(laurent_polys(), laurent_polys())
    def test_results_canonical(self, a, b):
        for result in (a + b, a - b, b - a, 3 - a, -a, a * b):
            assert_canonical(result)

    @given(laurent_polys(), laurent_polys())
    def test_sub_is_add_negation(self, a, b):
        assert a - b == a + (-b)
        assert 3 - a == const(3) + (-a)


def packed(a, b):
    return _mul_packed(a.terms, _box(a.terms), b.terms, _box(b.terms))


@st.composite
def pack_operands(draw):
    """Nonzero polynomials, univariate in t or q or bivariate, small or huge coefficients."""
    shape = draw(st.sampled_from(["tq", "t", "q"]))
    big = draw(st.sampled_from([9, 2**40, 2**200]))
    exps = st.integers(-4, 4)
    terms = {}
    for _ in range(draw(st.integers(1, 24))):
        et = draw(exps) if shape != "q" else 0
        eq = draw(exps) if shape != "t" else 0
        terms[(et, eq)] = draw(st.integers(-big, big).filter(bool))
    return LaurentPoly(terms)


class TestPackedMul:
    """The Kronecker path against the schoolbook dict loop it replaces."""

    @given(pack_operands(), pack_operands())
    def test_matches_dict_reference(self, a, b):
        assert packed(a, b) == _mul_dict(a.terms, b.terms)
        assert (a * b).terms == _mul_dict(a.terms, b.terms)

    def test_cancelling_slots(self):
        # (1 + q + ... + q^9)(1 - q + ... - q^9) = (1 - q^10)(1 + q^2 + ... + q^8)
        a = LaurentPoly({(0, i): 1 for i in range(10)})
        b = LaurentPoly({(0, i): (-1) ** i for i in range(10)})
        product = packed(a, b)
        assert product == _mul_dict(a.terms, b.terms)
        assert sorted(product) == [(0, e) for e in range(0, 20, 2)]

    def test_selection_rule(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return _mul_packed(*args)

        monkeypatch.setattr(exactalg, "_mul_packed", spy)
        dense = LaurentPoly({(i // 3, i % 3 - 1): i + 1 for i in range(_PACK_MIN)})
        small = LaurentPoly({(i, 0): 1 for i in range(_PACK_MIN - 1)})
        # product box 71 x 71 > 8 * 8 term pairs: sparse, stays on the dict path
        sparse_t = LaurentPoly({(10 * i, 0): 1 for i in range(_PACK_MIN)})
        sparse_q = LaurentPoly({(0, -10 * i): 1 for i in range(_PACK_MIN)})
        assert (dense * small).terms == _mul_dict(dense.terms, small.terms)
        assert (sparse_t * sparse_q).terms == _mul_dict(sparse_t.terms, sparse_q.terms)
        assert calls == []
        assert (dense * dense).terms == _mul_dict(dense.terms, dense.terms)
        assert len(calls) == 1
        assert packed(sparse_t, sparse_q) == _mul_dict(sparse_t.terms, sparse_q.terms)

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 16])
    def test_bound_reached_exactly(self, width):
        # The centre coefficient of (M * sum q^i)^2 is n * M^2, which is the
        # derived bound |a|_1 * max|b|; M is the largest value for which that
        # bound still fits ``width`` bytes, so only the sign bit is spare.
        n = 8
        m = math.isqrt(((1 << (8 * width - 1)) - 1) // n)
        bound = n * m * m
        assert _slot_bytes(bound) == width
        assert bound.bit_length() == 8 * width - 1
        assert _slot_bytes(1 << (8 * width - 1)) > width  # 8 * width bits leave no sign bit
        a = LaurentPoly({(0, i): m for i in range(n)})
        for b in (a, -a):
            product = packed(a, b)
            assert product == _mul_dict(a.terms, b.terms)
            assert abs(product[(0, n - 1)]) == bound

    @pytest.mark.parametrize("width", range(1, 10))
    def test_slot_conversion_roundtrip(self, width):
        top = (1 << (8 * width)) - 1
        slots = [0, 1, top, top >> 1, 1 << (8 * width - 1), 0]
        value = _to_int(slots, width)
        assert value == sum(v << (8 * width * k) for k, v in enumerate(slots))
        assert list(_to_slots(value, width, len(slots))) == slots

    @given(pack_operands(), pack_operands())
    def test_per_slot_conversion_matches(self, a, b):
        # Without array typecodes (as on big-endian machines) every width
        # converts per slot; the product must not change.
        reference = packed(a, b)
        saved = dict(exactalg._TYPECODES)
        exactalg._TYPECODES.clear()
        try:
            assert packed(a, b) == reference == _mul_dict(a.terms, b.terms)
        finally:
            exactalg._TYPECODES.update(saved)

    def test_unpack_rejects_value_outside_box(self):
        # 2 rows by 3 columns with stride 4: 7 one-byte slots
        layout, box = _Layout(stride=4, width=1), (0, 1, 0, 2)
        assert layout.unpack(-5 << 48, box) == {(1, 2): -5}
        for value in (1 << 56, -(1 << 56) - 1, 128 << 48, -129 << 48):
            with pytest.raises(OverflowError):
                layout.unpack(value, box)


class TestDivision:
    def test_linear(self):
        num = ONE - monomial(1, 0, 2)
        assert num.divide_exact(ONE_MINUS_Q) == ONE + Q

    def test_touchard_numerator(self):
        # long-division check against the n=2 ballot numerator
        num = LaurentPoly({(0, 0): 2, (0, 1): -3, (0, 3): 1})
        assert num.divide_exact(ONE_MINUS_Q**2) == const(2) + Q

    def test_non_divisible(self):
        with pytest.raises(NonDivisibleError):
            div_exact(ONE - Q, ONE - T)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            ONE.divide_exact(ZERO)

    def test_roundtrip_random(self):
        rng = random.Random(20240817)
        done = 0
        while done < 300:
            a = rand_poly(rng)
            b = rand_poly(rng)
            if b.is_zero():
                continue
            assert div_exact(a * b, b) == a
            done += 1


class TestRingAxioms:
    def test_axioms_random_triples(self):
        # associativity, commutativity, distributivity on 1000 seeded triples
        rng = random.Random(987654321)
        for _ in range(1000):
            a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    @given(laurent_polys(), laurent_polys())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(laurent_polys())
    def test_invert_variables_involution(self, p):
        assert p.invert_variables().invert_variables() == p


class TestSubstitution:
    def test_t_to_q(self):
        assert T1.substitute_t(1, 1) == LaurentPoly({(0, 0): 1, (0, 1): -1, (0, 2): -1})

    def test_t_to_minus_one(self):
        assert T1.substitute_t(-1, 0) == ONE

    def test_t_to_inverse_q(self):
        assert T1.substitute_t(1, -1) == monomial(-1, 0, 1)

    def test_t_zero(self):
        assert T1.substitute_t_zero() == ONE - Q
        with pytest.raises(ZeroDenominatorError):
            monomial(1, -1, 0).substitute_t_zero()

    def test_invert_variables(self):
        assert T1.invert_variables() == LaurentPoly({(0, 0): 1, (0, -1): -1, (-1, -1): -1})
        assert ONE.invert_variables() == ONE

    def test_inverted_t1_shift(self):
        # t*q^2 * T_1(1/t, 1/q) expands to t*q^2 - t*q - q
        got = monomial(1, 1, 2) * T1.invert_variables()
        assert got == LaurentPoly({(1, 2): 1, (1, 1): -1, (0, 1): -1})

    def test_shift_t_by_q(self):
        assert T1.shift_t_by_q(1) == LaurentPoly({(0, 0): 1, (0, 1): -1, (1, 2): -1})

    def test_scale_q(self):
        assert (ONE - Q).scale_q(2) == ONE - monomial(1, 0, 2)


class TestEvaluate:
    def test_simple(self):
        assert T1.evaluate(1, 1) == Fraction(-1)

    def test_t2_at_one(self):
        from tqeuler.formulas import tk_recurrence

        assert tk_recurrence(2).evaluate(1, 1) == 1

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            monomial(1, 0, -1).evaluate(1, 0)


class TestSeries:
    def test_geometric(self):
        s = Series(3, [ONE, -ONE, ZERO, ZERO])  # 1 - x
        assert s.recip() == Series(3, [ONE, ONE, ONE, ONE])

    def test_recip_one(self):
        assert Series(2, [ONE, ZERO, ZERO]).recip() == Series.one(2)

    def test_recip_weighted(self):
        c = (ONE - Q) * (ONE - T * Q)
        s = Series(2, [ONE, -c, ZERO])  # 1 - c*x
        assert s.recip().coeffs[2] == c * c

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            Series(1, [const(2), ZERO]).recip()

    def test_truncation_to_min_order(self):
        a = Series(3, [ONE, ONE, ONE, ONE])
        b = Series(1, [ONE, ONE])
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_mul_recip_is_one(self):
        rng = random.Random(5150)
        for _ in range(50):
            coeffs = [ONE] + [rand_poly(rng, max_terms=3, span=2, coeff=4) for _ in range(4)]
            s = Series(4, coeffs)
            assert s * s.recip() == Series.one(4)


class TestRendering:
    def test_text(self):
        assert T1.render() == "1 - q - t*q"
        assert ZERO.render() == "0"
        assert (const(2) - Q).render() == "2 - q"
        assert monomial(2, 1, -1).render() == "2*t*q^-1"

    def test_sorted_by_exponents(self):
        from tqeuler.cfrac import euler_hat

        assert euler_hat(1).render() == "1 - q - t*q + t*q^2"

    def test_json_roundtrip(self):
        rng = random.Random(31337)
        for _ in range(100):
            p = rand_poly(rng)
            assert LaurentPoly.from_json_terms(p.json_terms()) == p

    def test_json_terms_shape(self):
        assert T1.json_terms() == [
            {"et": 0, "eq": 0, "c": "1"},
            {"et": 0, "eq": 1, "c": "-1"},
            {"et": 1, "eq": 1, "c": "-1"},
        ]
