import math

import pytest
from hypothesis import given, settings, strategies as st

from tqeuler.cfrac import (
    SFractionSpec,
    dn_hat,
    en_even_q,
    en_odd_q,
    euler_coeff,
    euler_hat,
    sfrac_expand,
    sfrac_moments,
)
from tqeuler.exactalg import LaurentPoly, ONE, Q, T, ZERO, const
from tqeuler.qkit import q_int

ONE_MINUS_Q = ONE - Q


def sfrac_moments_dict(coeff_fn, order):
    """The moment DP on LaurentPoly values: the reference for the packed DP."""
    c = {h: coeff_fn(h) for h in range(1, order + 1)}
    state = {0: ONE}
    moments = [ONE]
    for step in range(1, 2 * order + 1):
        nxt = {}
        for h, w in state.items():
            if h + 1 <= order:
                nxt[h + 1] = nxt.get(h + 1, ZERO) + w
            if h >= 1:
                nxt[h - 1] = nxt.get(h - 1, ZERO) + w * c[h]
        state = {h: w for h, w in nxt.items() if not w.is_zero()}
        if step % 2 == 0:
            moments.append(state.get(0, ZERO))
    return moments


@pytest.mark.parametrize(
    "coeff_fn",
    [euler_coeff, lambda h: LaurentPoly({(0, 0): 1, (0, h): -1})],
    ids=["euler", "dn"],
)
def test_packed_dp_matches_dict_dp(coeff_fn):
    reference = sfrac_moments_dict(coeff_fn, 12)
    for n in range(13):
        assert sfrac_moments(coeff_fn, n) == reference[: n + 1]


@st.composite
def coefficient_tables(draw):
    """c_1 .. c_order with negative exponents, zero entries and large coefficients."""
    order = draw(st.integers(0, 6))
    big = draw(st.sampled_from([3, 2**70]))
    table = []
    for _ in range(order):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            e = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
            terms[e] = draw(st.integers(-big, big))
        table.append(LaurentPoly(terms))
    return table


@settings(deadline=None)
@given(coefficient_tables())
def test_packed_dp_matches_dict_dp_on_tables(table):
    def coeff_fn(h):
        return table[h - 1]

    assert sfrac_moments(coeff_fn, len(table)) == sfrac_moments_dict(coeff_fn, len(table))


def test_int_coefficients():
    assert sfrac_moments(lambda h: 2, 3) == [ONE, const(2), const(8), const(40)]


def test_catalan_moments():
    moments = sfrac_moments(lambda h: ONE, 4)
    assert [m.evaluate(1, 1) for m in moments] == [1, 1, 2, 5, 14]


def test_constant_coefficient_catalan_powers():
    c = ONE - T * Q
    moments = sfrac_moments(lambda h: c, 5)
    for n, mu in enumerate(moments):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert mu == catalan * c**n


def test_q_int_moments():
    moments = sfrac_moments(q_int, 2)
    assert moments == [ONE, ONE, const(2) + Q]


def test_q_int_squared_at_one_gives_secant():
    moments = sfrac_moments(lambda h: q_int(h) * q_int(h), 4)
    assert [m.evaluate(1, 1) for m in moments] == [1, 1, 5, 61, 1385]


def test_sfrac_expand_series():
    series = sfrac_expand(SFractionSpec(lambda h: ONE, 3))
    assert series.order == 3
    assert series.coeffs[3].evaluate(1, 1) == 5


def test_euler_hat_small():
    assert euler_hat(0) == ONE
    c1 = euler_coeff(1)
    c2 = euler_coeff(2)
    assert euler_hat(1) == c1
    assert euler_hat(1) == ONE_MINUS_Q * (ONE - T * Q)
    assert euler_hat(2) == c1 * c1 + c1 * c2


def test_dn_hat_small():
    assert dn_hat(0) == ONE
    assert dn_hat(1) == ONE_MINUS_Q
    assert dn_hat(2).divide_exact(ONE_MINUS_Q**2) == const(2) + Q


def test_en_even_odd():
    assert en_even_q(0) == ONE
    assert en_even_q(2) == LaurentPoly({(0, 0): 2, (0, 1): 2, (0, 2): 1})
    assert en_even_q(2).evaluate(1, 1) == 5
    assert en_odd_q(1) == ONE + Q


def test_degenerate_substitutions():
    for n in range(5):
        eh = euler_hat(n)
        assert eh.substitute_t(1, -1) == (ONE if n == 0 else ZERO)
        assert eh.substitute_t_zero() == dn_hat(n)
        dn = dn_hat(n).divide_exact(ONE_MINUS_Q**n)
        rhs = (ONE + Q) ** n * ONE_MINUS_Q**n * dn.scale_q(2)
        assert eh.substitute_t(-1, 0) == rhs


def test_order_validation():
    with pytest.raises(ValueError):
        sfrac_moments(lambda h: ONE, -1)
    with pytest.raises(ValueError):
        euler_hat(-1)


def test_cache_is_write_once():
    a = euler_hat(3)
    b = euler_hat(3)
    assert a is b
    assert euler_hat(2) == sfrac_moments(euler_coeff, 2)[2]
