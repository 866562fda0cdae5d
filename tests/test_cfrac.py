import functools
import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from tqeuler import cfrac, clear_caches
from tqeuler.cfrac import (
    _moment,
    dn_hat,
    en_even_q,
    en_odd_q,
    euler_coeff,
    euler_hat,
)
from tqeuler.exactalg import LaurentPoly, ONE, Q, T, ZERO, _Layout, const
from tqeuler.qkit import euler_up, q_int

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


def dn_coeff(h):
    return LaurentPoly({(0, 0): 1, (0, h): -1})


@functools.cache
def reference_moments(name):
    """Moments 0..12 of ``euler_hat`` or ``dn_hat`` by the dict DP."""
    return sfrac_moments_dict({"euler": euler_coeff, "dn": dn_coeff}[name], 12)


@pytest.mark.parametrize("coeff_fn", [euler_coeff, dn_coeff], ids=["euler", "dn"])
def test_packed_dp_matches_dict_dp(coeff_fn):
    reference = reference_moments("euler" if coeff_fn is euler_coeff else "dn")
    for n in range(13):
        assert _moment(coeff_fn, n) == reference[n]


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

    def counting(coeff_fn, n):
        walks.append(n)
        return walk(coeff_fn, n)

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

    assert [_moment(coeff_fn, m) for m in range(len(table) + 1)] == sfrac_moments_dict(coeff_fn, len(table))


def moment_layouts(coeff_fn, order):
    """The stride and box that moments 0..order are decoded with, one ``_moment`` each."""
    with spying_unpack() as layouts:
        for m in range(order + 1):
            _moment(coeff_fn, m)
    return layouts


@pytest.mark.parametrize("coeff_fn", [euler_coeff, euler_up], ids=["euler", "dn"])
def test_closed_bound_is_tight_for_euler_tables(coeff_fn):
    # the single-peak path reaches every moment's bound, so the layout is the max-plus one
    for m, (stride, box) in enumerate(moment_layouts(coeff_fn, 30)):
        ref_stride, ref_boxes = moment_boxes_reference(coeff_fn, m)
        assert (stride, box) == (ref_stride, ref_boxes[m])


@settings(deadline=None)
@given(coefficient_tables())
def test_closed_bound_contains_max_plus_boxes(table):
    def coeff_fn(h):
        return table[h - 1]

    for m, (stride, (t0, t1, q0, q1)) in enumerate(moment_layouts(coeff_fn, len(table))):
        ref_stride, ref_boxes = moment_boxes_reference(coeff_fn, m)
        assert ref_stride <= stride
        ref = ref_boxes[m]
        if ref is not None:
            assert t0 <= ref[0] <= ref[1] <= t1 and q0 <= ref[2] <= ref[3] <= q1


def test_zero_coefficients():
    assert [_moment(lambda h: ZERO, m) for m in range(4)] == [ONE, ZERO, ZERO, ZERO]
    table = [ONE - T * Q, ZERO, Q * Q - 3 * T, ONE + T]

    def coeff_fn(h):
        return table[h - 1]

    assert [_moment(coeff_fn, m) for m in range(5)] == sfrac_moments_dict(coeff_fn, 4)


def test_int_coefficients():
    assert [_moment(lambda h: const(2), m) for m in range(4)] == [ONE, const(2), const(8), const(40)]


def test_catalan_moments():
    moments = [_moment(lambda h: ONE, m) for m in range(5)]
    assert [m.evaluate(1, 1) for m in moments] == [1, 1, 2, 5, 14]


def test_constant_coefficient_catalan_powers():
    c = ONE - T * Q
    moments = [_moment(lambda h: c, m) for m in range(6)]
    for n, mu in enumerate(moments):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert mu == catalan * c**n


def test_q_int_moments():
    moments = [_moment(q_int, m) for m in range(3)]
    assert moments == [ONE, ONE, const(2) + Q]


def test_q_int_squared_at_one_gives_secant():
    moments = [_moment(lambda h: q_int(h) * q_int(h), m) for m in range(5)]
    assert [m.evaluate(1, 1) for m in moments] == [1, 1, 5, 61, 1385]


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
        _moment(lambda h: ONE, -1)
    with pytest.raises(ValueError):
        euler_hat(-1)


def test_cache_is_write_once():
    a = euler_hat(3)
    b = euler_hat(3)
    assert a is b
    assert euler_hat(2) == _moment(euler_coeff, 2)
