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
