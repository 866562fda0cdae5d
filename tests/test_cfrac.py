import functools
import math
from contextlib import contextmanager
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from tqeuler import cfrac, clear_caches
from tqeuler.cfrac import (
    _binomial,
    _moment,
    dn_hat,
    en_even_q,
    en_odd_q,
    euler_hat,
)
from tqeuler.exactalg import LaurentPoly, ONE, Q, T, ZERO, _Layout, const, monomial
from tqeuler.formulas import dn_touchard_riordan, euler_hat_odd_pochhammer
from tqeuler.qkit import euler_down, euler_up, q_int

from reference import moment_boxes_reference

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
        state = {h: w for h, w in nxt.items() if w}
        if step % 2 == 0:
            moments.append(state.get(0, ZERO))
    return moments


def product(pairs):
    """The product of ``1 - t**a * q**b`` over the ``(a, b)`` pairs, built from term dicts."""
    return reduce(mul, (LaurentPoly({(0, 0): 1, pair: -1}) for pair in pairs if pair != (0, 0)),
                  ZERO if (0, 0) in pairs else ONE)


def coefficients(binomials):
    """``h -> c_h`` as a polynomial, for the dict DP and the max-plus boxes."""
    return lambda h: product(binomials(h))


def table_binomials(table):
    """``h -> table[h - 1]``: a table of pairs read as ``_moment`` reads its rule."""
    return lambda h: table[h - 1]


BINOMIALS = {  # (1 - q**h)(1 - t*q**h) and 1 - q**h, written out
    "euler": lambda h: ((0, h), (1, h)),
    "dn": lambda h: ((0, h),),
}


@functools.cache
def reference_moments(name):
    """Moments 0..12 of ``euler_hat`` or ``dn_hat`` by the dict DP."""
    return sfrac_moments_dict(coefficients(BINOMIALS[name]), 12)


@pytest.mark.parametrize("name", BINOMIALS)
def test_packed_dp_matches_dict_dp(name):
    reference = reference_moments(name)
    for n in range(13):
        assert _moment(BINOMIALS[name], n) == reference[n]


MOMENTS = {"euler": euler_hat, "dn": dn_hat}
REQUESTS = [(name, n) for n in range(13) for name in MOMENTS]


def check_requests(order):
    """From cold caches, each request in ``order`` gives the reference moment, and
    every request for the same moment returns the same object."""
    clear_caches()
    first = {}
    for name, n in order:
        value = MOMENTS[name](n)
        assert value == reference_moments(name)[n]
        assert MOMENTS[name](n) is value
        first[name, n] = value
    for (name, n), value in first.items():
        assert MOMENTS[name](n) is value


@pytest.mark.parametrize("order", [REQUESTS, REQUESTS[::-1]], ids=["ascending", "descending"])
def test_lazy_cache_in_request_order(order):
    check_requests(order)


@settings(deadline=None, max_examples=25)
@given(st.permutations(REQUESTS))
def test_lazy_cache_in_any_request_order(order):
    check_requests(order)


@contextmanager
def spying_unpack():
    """Records the ``(stride, box)`` of every ``_Layout.unpack`` made inside the block."""
    boxes = []
    unpack = _Layout.unpack

    def spy(self, value, box):
        boxes.append((self.stride, box))
        return unpack(self, value, box)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Layout, "unpack", spy)
        yield boxes


@pytest.fixture
def unpacked_boxes():
    with spying_unpack() as boxes:
        yield boxes


def test_cold_request_unpacks_one_moment(unpacked_boxes):
    for n in range(13):
        clear_caches()
        unpacked_boxes.clear()
        euler_hat(n)
        assert len(unpacked_boxes) == 1
    # the compute e ladder: every n misses, and each decodes only moment n, moment 0 included
    clear_caches()
    unpacked_boxes.clear()
    for n in range(13):
        euler_hat(n)
    assert len(unpacked_boxes) == 13


def test_smaller_moment_walks_once_after_a_larger_one(unpacked_boxes, monkeypatch):
    # euler_hat(12) keeps moment 12 alone, so moment 5 walks to order 5 on its first request
    walks = []
    walk = cfrac._moment

    def counting(binomials, n):
        walks.append(n)
        return walk(binomials, n)

    monkeypatch.setattr(cfrac, "_moment", counting)
    clear_caches()
    euler_hat(12)
    walks.clear()
    unpacked_boxes.clear()
    euler_hat(5)
    assert (walks, len(unpacked_boxes)) == ([5], 1)
    euler_hat(5)
    assert (walks, len(unpacked_boxes)) == ([5], 1)


@st.composite
def binomial_tables(draw):
    """c_1 .. c_order as 0 to 3 pairs (a, b) each, a and b in 0..4: a pair (0, 0)
    makes c_h = 0 and no pairs make it 1."""
    order = draw(st.integers(0, 6))
    pair = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return draw(st.lists(st.lists(pair, max_size=3).map(tuple), min_size=order, max_size=order))


@settings(deadline=None)
@given(binomial_tables())
def test_packed_dp_matches_dict_dp_on_tables(table):
    binomials = table_binomials(table)
    moments = sfrac_moments_dict(coefficients(binomials), len(table))
    assert [_moment(binomials, m) for m in range(len(table) + 1)] == moments


def moment_layouts(binomials, order):
    """The stride and box that moments 0..order are decoded with, one ``_moment`` each."""
    with spying_unpack() as layouts:
        for m in range(order + 1):
            _moment(binomials, m)
    return layouts


@pytest.mark.parametrize("name", BINOMIALS)
def test_closed_bound_is_tight_for_euler_tables(name):
    # the single-peak path reaches every moment's bound, so the layout is the max-plus one
    binomials = BINOMIALS[name]
    for m, (stride, box) in enumerate(moment_layouts(binomials, 30)):
        ref_stride, ref_boxes = moment_boxes_reference(coefficients(binomials), m)
        assert (stride, box) == (ref_stride, ref_boxes[m])


@settings(deadline=None)
@given(binomial_tables())
def test_closed_bound_contains_max_plus_boxes(table):
    binomials = table_binomials(table)
    for m, (stride, (t0, t1, q0, q1)) in enumerate(moment_layouts(binomials, len(table))):
        ref_stride, ref_boxes = moment_boxes_reference(coefficients(binomials), m)
        assert ref_stride <= stride
        ref = ref_boxes[m]
        if ref is not None:
            assert t0 <= ref[0] <= ref[1] <= t1 and q0 <= ref[2] <= ref[3] <= q1


def test_zero_coefficients():
    assert [_moment(lambda h: ((0, 0),), m) for m in range(4)] == [ONE, ZERO, ZERO, ZERO]
    binomials = table_binomials([((1, 1),), ((0, 0), (2, 3)), ((0, 2), (1, 0)), ()])
    assert [_moment(binomials, m) for m in range(5)] == sfrac_moments_dict(coefficients(binomials), 4)


def test_catalan_moments():
    moments = [_moment(lambda h: (), m) for m in range(5)]
    assert moments == [ONE, ONE, const(2), const(5), const(14)]


def test_constant_coefficient_catalan_powers():
    c = ONE - T * Q
    moments = [_moment(lambda h: ((1, 1),), m) for m in range(6)]
    for n, mu in enumerate(moments):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert mu == catalan * c**n


def test_q_int_moments():
    # c_h = [h]_q is (1 - q**h) / (1 - q), so its moment n is the binomial one over (1 - q)**n
    moments = [_moment(BINOMIALS["dn"], m).divide_exact(1, [1] * m) for m in range(5)]
    assert moments == sfrac_moments_dict(q_int, 4)
    assert moments[:3] == [ONE, ONE, const(2) + Q]


def test_q_int_squared_at_one_gives_secant():
    moments = [_moment(lambda h: ((0, h), (0, h)), m).divide_exact(1, [1] * (2 * m)) for m in range(5)]
    assert [m.evaluate(1, 1) for m in moments] == [1, 1, 5, 61, 1385]


@pytest.mark.parametrize("n, width", [(16, 9), (20, 11)])
def test_slots_wider_than_eight_bytes(n, width):
    # 16**n needs 4*n + 1 bits and a sign bit: widths with no array typecode, read per slot
    assert _Layout.fitting(1, 16**n).width == width
    clear_caches()
    assert euler_hat(n) == euler_hat_odd_pochhammer(n)
    assert dn_hat(n) == dn_touchard_riordan(n)


@pytest.mark.parametrize("rule", [
    ONE + Q, 2 - Q, ONE - Q + monomial(1, 7, 99), ONE - T * monomial(1, 0, -1), ONE - monomial(1, -1, 1),
    ONE, ZERO,
], ids=["one-plus-q", "two-minus-q", "nudged", "negative-q-exponent", "negative-t-exponent", "one", "zero"])
def test_a_rule_other_than_one_minus_a_monomial_raises(rule, monkeypatch):
    with pytest.raises(ValueError):
        _binomial(lambda h: rule, 1)
    for name in ("euler_up", "euler_down"):
        with monkeypatch.context() as mp:
            mp.setattr(cfrac, name, lambda h: rule)
            clear_caches()
            with pytest.raises(ValueError):
                euler_hat(1)
            if name == "euler_up":
                with pytest.raises(ValueError):
                    dn_hat(1)


def test_euler_hat_small():
    assert euler_hat(0) == ONE
    c1 = euler_up(1) * euler_down(1)
    c2 = euler_up(2) * euler_down(2)
    assert euler_hat(1) == c1
    assert euler_hat(1) == ONE_MINUS_Q * (ONE - T * Q)
    assert euler_hat(2) == c1 * c1 + c1 * c2


def test_dn_hat_small():
    assert dn_hat(0) == ONE
    assert dn_hat(1) == ONE_MINUS_Q
    assert dn_hat(2).divide_exact(1, [1, 1]) == const(2) + Q


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
        dn = dn_hat(n).divide_exact(1, [1] * n)
        rhs = (ONE + Q) ** n * ONE_MINUS_Q**n * dn.scale_q(2)
        assert eh.substitute_t(-1, 0) == rhs


def test_order_validation():
    with pytest.raises(ValueError):
        _moment(lambda h: (), -1)
    with pytest.raises(ValueError):
        euler_hat(-1)


def test_cache_is_write_once():
    a = euler_hat(3)
    b = euler_hat(3)
    assert a is b
    assert euler_hat(2) == _moment(BINOMIALS["euler"], 2)
