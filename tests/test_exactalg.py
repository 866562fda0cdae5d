import contextlib
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tqeuler.exactalg import (
    LaurentPoly,
    NonDivisibleError,
    ONE,
    Q,
    T,
    ZERO,
    ZeroDenominatorError,
    const,
    monomial,
)
from tqeuler import exactalg
from tqeuler.exactalg import (
    _Layout,
    _slot_bytes,
    _slots,
    _sum_of_products,
    _to_bytes,
    _to_int,
)
from tqeuler.formulas import tk_recurrence
from tqeuler.qkit import ballot

from reference import (
    add_reference,
    divide_reference,
    evaluate_reference,
    exponent_map_reference,
    json_terms,
    mul_reference,
    substitute_t_reference,
    sum_rows_reference,
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
    """The row invariant: a tuple of ``(e_t, lowest e_q, coefficients)`` rows with e_t
    sorted and distinct, each a tuple of ints with nonzero ends, no empty row."""
    rows = p._rows
    assert type(rows) is tuple
    ets = [row[0] for row in rows]
    assert ets == sorted(set(ets))
    for row in rows:
        assert type(row) is tuple and len(row) == 3
        et, lo, cs = row
        assert type(et) is int and type(lo) is int and type(cs) is tuple
        assert cs and cs[0] and cs[-1]
        assert all(type(c) is int for c in cs)
    assert p == LaurentPoly(dict(p.terms))


def fresh(p):
    """A copy of ``p`` built from its terms by the validating constructor, with no pack facts."""
    return LaurentPoly(dict(p.terms))


class TestTrustedResults:
    """Ring operations skip validation, so their results must already be canonical."""

    @given(laurent_polys(), laurent_polys())
    def test_results_canonical(self, a, b):
        for result in (a + b, a - b, b - a, 3 - a, a + 3, -a, a * b, 2 * a, a * -1, a**2, a**0):
            assert_canonical(result)

    @given(laurent_polys(), laurent_polys())
    def test_sub_is_add_negation(self, a, b):
        assert a - b == a + (-b)
        assert 3 - a == const(3) + (-a)


def ballot_fold(pairs):
    """``sum w * p`` over ``(w, p)`` pairs as ``qkit._ballot_sum`` forms it: one packed sum
    with an item ``(w, 0, 0, (p,))`` per pair."""
    return _sum_of_products([(w, 0, 0, (p,)) for w, p in pairs])


def packed(a, b):
    """The product a * b through the packed sum, as a term dict."""
    return dict(_sum_of_products([(1, 0, 0, (a, b))]).terms)


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


class TestRows:
    """The dense t-rows, the one form, against the term dicts they stand for."""

    @given(st.one_of(laurent_polys(), pack_operands()))
    def test_roundtrip(self, p):
        assert_canonical(p)
        rows = p._rows
        assert fresh(p)._rows == rows
        for et, lo, cs in rows:
            assert all(p.terms.get((et, e), 0) == c for e, c in enumerate(cs, lo))
        assert len(p) == len(p.terms) == sum(1 for _, _, cs in rows for c in cs if c)

    def test_zero(self):
        assert ZERO._rows == ()
        for zero in (LaurentPoly(), LaurentPoly({}), LaurentPoly({(2, -1): 0}), monomial(0, 3, 4), const(0)):
            assert zero._rows == () and zero == ZERO == 0

    @given(st.lists(st.tuples(st.integers(-2**70, 2**70), laurent_polys()), max_size=5))
    def test_sum_rows(self, pairs):
        result = ballot_fold(pairs)
        want = {}
        for w, p in pairs:
            want = add_reference(want, p.terms, w)
        assert dict(result.terms) == want
        assert result == sum((w * p for w, p in pairs), ZERO)
        assert_canonical(result)

    @given(st.one_of(laurent_polys(), pack_operands()))
    def test_rows_are_kept(self, p):
        # an operation that leaves a polynomial unchanged gives back rows equal to its own
        for same in (p + ZERO, ZERO + p, p - ZERO, p * ONE, ONE * p, -(-p), p.shift_t_by_q(0), p.scale_q(1),
                     p.invert_variables().invert_variables()):
            assert same._rows == p._rows
            assert_canonical(same)


class TestPackedMul:
    """Single products through the packed sum against the schoolbook dict loop."""

    @given(pack_operands(), pack_operands())
    def test_matches_dict_reference(self, a, b):
        assert packed(a, b) == mul_reference(a.terms, b.terms) == (a * b).terms

    def test_cancelling_slots(self):
        # (1 + q + ... + q^9)(1 - q + ... - q^9) = (1 - q^10)(1 + q^2 + ... + q^8)
        a = LaurentPoly({(0, i): 1 for i in range(10)})
        b = LaurentPoly({(0, i): (-1) ** i for i in range(10)})
        product = packed(a, b)
        assert product == mul_reference(a.terms, b.terms)
        assert sorted(product) == [(0, e) for e in range(0, 20, 2)]

    @pytest.mark.parametrize("width", range(1, 10))
    def test_slot_conversion_roundtrip(self, width):
        # widths 1, 2, 4 and 8 convert through array, the others per slot
        half = 1 << (8 * width - 1)
        slots = [0, 1, -1, half - 1, -half, 0]
        value = _to_int(slots, width)
        assert value == sum(v << (8 * width * k) for k, v in enumerate(slots))
        assert _slots(_to_bytes(value, width, len(slots)), width) == tuple(slots)

    @pytest.mark.parametrize("per_slot", [False, True], ids=["array", "per-slot"])
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_to_int_rejects_slot_outside_width(self, width, per_slot, monkeypatch):
        if per_slot:
            monkeypatch.setattr(exactalg, "_TYPECODES", {})
        half = 1 << (8 * width - 1)
        for bad in (half, -half - 1):
            with pytest.raises(OverflowError):
                _to_int([0, bad, 0], width)

    @given(pack_operands(), pack_operands())
    def test_per_slot_conversion_matches(self, a, b):
        # Without array typecodes (as on big-endian machines) every width
        # converts per slot; the product must not change.
        reference = packed(a, b)
        saved = dict(exactalg._TYPECODES)
        exactalg._TYPECODES.clear()
        try:
            assert packed(a, b) == reference == mul_reference(a.terms, b.terms)
        finally:
            exactalg._TYPECODES.update(saved)

    @pytest.mark.parametrize("per_slot", [False, True], ids=["array", "per-slot"])
    def test_unpack_cuts_rows(self, per_slot, monkeypatch):
        # 3 rows by 4 columns: zeros at both ends of row 0, an all-zero row 1, and
        # row 2 cut at its top; every row leaves as a tuple, never an array slice
        if per_slot:
            monkeypatch.setattr(exactalg, "_TYPECODES", {})
        layout, box = _Layout(stride=4, width=1), (5, 7, -2, 1)
        slots = [0, 3, -1, 0] + [0] * 4 + [7, 0, 0, 0]
        got = layout.unpack(_to_int(slots, 1), box)
        assert got._rows == ((5, -1, (3, -1)), (7, -2, (7,)))
        assert_canonical(got)

    @pytest.mark.parametrize("per_slot", [False, True], ids=["array", "per-slot"])
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_unpack_cuts_rows_on_whole_slots(self, width, per_slot, monkeypatch):
        # an end slot may have zero bytes on either side of its nonzero ones (256 and -256
        # a zero low byte, 1 zero high bytes, 2**(8*width - 2) only its top byte nonzero):
        # the cut at the row's zero bytes keeps each end slot whole
        if per_slot:
            monkeypatch.setattr(exactalg, "_TYPECODES", {})
        layout, box, top = _Layout(stride=5, width=width), (0, 2, 0, 4), 1 << (8 * width - 2)
        slots = [0, 256, 0, 1, 0] + [-256, 0, 0, 0, 0] + [0, 0, 0, 0, top]
        got = layout.unpack(_to_int(slots, width), box)
        assert got._rows == ((0, 1, (256, 0, 1)), (1, 0, (-256,)), (2, 4, (top,)))
        assert_canonical(got)

    def test_unpack_rejects_value_outside_box(self):
        # 2 rows by 3 columns with stride 4: 7 one-byte slots
        layout, box = _Layout(stride=4, width=1), (0, 1, 0, 2)
        assert layout.unpack(-5 << 48, box) == monomial(-5, 1, 2)
        assert_canonical(layout.unpack(-5 << 48, box))
        for value in (1 << 56, -(1 << 56) - 1, 128 << 48, -129 << 48):
            with pytest.raises(OverflowError):
                layout.unpack(value, box)


def sum_reference(items):
    """The dict reference: sum of monomial(c, a, b) * factors via the term-dict product and sum."""
    total = {}
    for c, a, b, factors in items:
        term = {(a, b): c} if c else {}
        for p in factors:
            term = mul_reference(term, p.terms)
        total = add_reference(total, term)
    return LaurentPoly(total)


@st.composite
def sum_items(draw):
    """Item lists over a small pool of factors, so that factor objects repeat."""
    pool = draw(st.lists(st.one_of(pack_operands(), laurent_polys()), min_size=1, max_size=4))
    big = draw(st.sampled_from([9, 2**40, 2**200]))
    exps = st.integers(-4, 4)
    factors = st.lists(st.sampled_from(pool), max_size=3).map(tuple)
    return draw(st.lists(st.tuples(st.integers(-big, big), exps, exps, factors), max_size=6))


# a sum of items with coefficients near 2**200 takes several ms; under load one example
# can pass hypothesis's default 200 ms deadline, so the sum_items() tests have none
NO_DEADLINE = settings(deadline=None)


@pytest.fixture
def pack_calls(monkeypatch):
    """``(width, slots)`` of each row ``_to_int`` converts, in call order."""
    calls = []
    to_int = _to_int

    def spy(slots, width):
        calls.append((width, tuple(slots)))
        return to_int(slots, width)

    monkeypatch.setattr(exactalg, "_to_int", spy)
    return calls


class TestPackedSum:
    """The packed sum of products against the dict reference it replaces."""

    @NO_DEADLINE
    @given(sum_items())
    def test_matches_dict_reference(self, items):
        result = _sum_of_products(items)
        assert result == sum_reference(items)
        assert_canonical(result)

    def test_empty(self):
        assert _sum_of_products([]) == ZERO
        assert _sum_of_products([(3, 1, 1, (ZERO,)), (0, 2, 2, ())]) == ZERO

    def test_skipped_items_do_not_widen_the_box(self, monkeypatch):
        boxes = []
        unpack = _Layout.unpack

        def spy(self, value, box):
            boxes.append(box)
            return unpack(self, value, box)

        monkeypatch.setattr(_Layout, "unpack", spy)
        p = LaurentPoly({(0, i): i + 1 for i in range(9)})
        items = [(0, 50, -50, (p,)), (1, 0, 0, (p,)), (5, -50, 0, (p, ZERO))]
        assert _sum_of_products(items) == p
        assert boxes == [(0, 0, 0, 8)]

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_zero_factor_anywhere_skips_the_item(self, where):
        p, r = LaurentPoly({(0, i): i + 1 for i in range(4)}), fresh(T1)
        factors = {"first": (ZERO, p, r), "middle": (p, ZERO, r), "last": (p, r, ZERO)}[where]
        assert _sum_of_products([(7, -40, 40, factors), (1, 0, 0, (p,))]) == p

    def test_one_shot_factors_give_the_sum_or_raise_type_error(self):
        p, r = LaurentPoly({(0, i): i + 1 for i in range(4)}), LaurentPoly({(0, 0): 2, (1, 1): -1, (2, 0): 3})
        items = [(2, 1, 0, (p, r)), (-1, 0, 3, (r,)), (5, 0, 0, (p, ZERO, r)), (3, -1, 2, ())]
        want = sum_reference(items)
        for one_shot in (iter, lambda fs: (f for f in fs), lambda fs: map(fresh, fs)):
            with contextlib.suppress(TypeError):
                assert _sum_of_products([(c, a, b, one_shot(fs)) for c, a, b, fs in items]) == want

    def test_cancels_to_zero(self):
        p, r = T1, LaurentPoly({(0, i): (-1) ** i for i in range(10)})
        assert _sum_of_products([(2, 1, -1, (p, r)), (-1, 1, -1, (r, p)), (-1, 1, -1, (p, r))]) == ZERO

    def test_negative_exponents(self):
        p = LaurentPoly({(-1, -2): 3, (0, -1): -1})
        assert _sum_of_products([(2, -3, -5, (p,)), (1, 0, 0, ())]) == LaurentPoly(
            {(-4, -7): 6, (-3, -6): -2, (0, 0): 1}
        )

    def test_each_factor_packed_once(self, pack_calls):
        # every row of each factor is converted once, at the sum's width 2: p's one row and t1's two
        p, t1 = LaurentPoly({(0, i): 1 for i in range(10)}), fresh(T1)
        items = [(1, k, 0, (p, p)) for k in range(4)] + [(2, 0, 1, (p, t1))]
        assert _sum_of_products(items) == sum_reference(items)
        assert sorted(pack_calls) == sorted([(2, (1,) * 10), (2, (1, -1)), (2, (-1,))])

    def test_second_sum_packs_nothing(self, pack_calls):
        p = LaurentPoly({(0, i): i + 1 for i in range(6)})
        r = LaurentPoly({(0, 0): 2, (1, 1): -1, (2, 0): 3})
        items = [(1, 0, 0, (p, r)), (-3, 1, 2, (r, r))]
        first = _sum_of_products(items)
        assert pack_calls and first == sum_reference(items)
        pack_calls.clear()
        assert _sum_of_products(items) == first
        assert pack_calls == []

    def test_multi_row_factor_packed_once_per_stride(self, pack_calls):
        m = LaurentPoly({(0, 0): 1, (0, 1): -1, (1, 1): -1})
        narrow = [(1, 0, 0, (m,))]  # q-span 0..1: stride 2
        wide = [(1, 0, 0, (m,)), (1, 0, 5, ())]  # q-span 0..5: stride 6
        for _ in range(2):
            for items in (narrow, wide):
                assert _sum_of_products(items) == sum_reference(items)
        # its rows are converted once per width, so once for both strides
        assert pack_calls == [(1, (1, -1)), (1, (-1,))]
        assert sorted(m._pack_facts[2]) == [1]

    def test_one_row_factor_packed_once_per_width(self, pack_calls):
        r = LaurentPoly({(3, 0): 1, (3, 2): -2})
        sums = [
            [(1, 0, 0, (r,))],  # stride 3, width 1
            [(1, 0, 0, (r,)), (1, -3, 7, ())],  # stride 8, width 1
            [(1 << 20, 0, 0, (r,))],  # stride 3, width 4
        ]
        for _ in range(2):
            for items in sums:
                assert _sum_of_products(items) == sum_reference(items)
        assert pack_calls == [(1, (1, 0, -2)), (4, (1, 0, -2))]
        assert sorted(r._pack_facts[2]) == [1, 4]

    @NO_DEADLINE
    @given(sum_items(), st.integers(-9, 9), st.integers(-9, 9))
    def test_cached_packs_match_reference(self, items, et, eq):
        # The first sum packs fresh factors, the repeat reuses every pack, and
        # the sum with one more monomial item (another box, so mostly another
        # stride or width) mixes reused and new packs.
        more = items + [(5, et, eq, ())]
        for batch in (items, items, more, more):
            result = _sum_of_products(batch)
            assert result == sum_reference(batch)
            assert_canonical(result)

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 16])
    def test_bound_reached_exactly(self, width):
        # Single-term factors put every item on the slot of 1, so that slot holds
        # the whole derived bound sum |c| * prod |p_i|_1; the bound is the largest
        # value that still fits ``width`` bytes with a spare sign bit.
        bound = (1 << (8 * width - 1)) - 1
        assert _slot_bytes(bound) == width
        m = math.isqrt(bound // 3)
        rest = bound - 3 * m * m
        for sign in (1, -1):
            items = [
                (3 * sign, 1, -1, (monomial(m, 0, 2), monomial(m, -1, -1))),
                (sign, 2, 0, (monomial(rest, -2, 0),)),
            ]
            assert _sum_of_products(items) == sum_reference(items) == monomial(sign * bound)

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 16])
    def test_bound_is_a_sum_over_items(self, width):
        # Each item alone fits ``width`` bytes; their sum needs the next width.
        half = monomial(1 << (8 * width - 2))
        items = [(1, 0, 0, (half,)), (1, 1, 1, (half, monomial(1, -1, -1)))]
        assert _sum_of_products(items) == monomial(1 << (8 * width - 1))

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_factor_bound_is_l1_norm(self, width):
        # m * m fits ``width`` bytes; the centre coefficient 8 * m * m of a * a does not.
        m = math.isqrt((1 << (8 * width - 1)) - 1)
        a = LaurentPoly({(0, i): m for i in range(8)})
        items = [(1, 0, 0, (a, a))]
        assert _sum_of_products(items) == sum_reference(items)


@st.composite
def binomials(draw):
    """``(sign, powers)`` of a divisor ``prod (1 - sign * q**j)``: j in 1..6, repeats allowed."""
    return draw(st.sampled_from([1, -1])), draw(st.lists(st.integers(1, 6), max_size=6))


def binomial_product(sign, powers):
    """The divisor that ``divide_exact(sign, powers)`` divides by, multiplied out."""
    return math.prod((ONE - monomial(sign, 0, j) for j in powers), start=ONE)


def division_outcome(divide, *args):
    """The quotient's terms, or ``NonDivisibleError`` when ``divide`` raises it."""
    try:
        return dict(divide(*args).terms)
    except NonDivisibleError:
        return NonDivisibleError


class TestDivision:
    def test_linear(self):
        num = ONE - monomial(1, 0, 2)
        assert num.divide_exact(1, [1]) == ONE + Q

    def test_touchard_numerator(self):
        # the n=2 ballot numerator over (1-q)**2
        num = LaurentPoly({(0, 0): 2, (0, 1): -3, (0, 3): 1})
        assert num.divide_exact(1, [1, 1]) == const(2) + Q

    def test_non_divisible(self):
        with pytest.raises(NonDivisibleError):
            (ONE - T).divide_exact(1, [1])

    def test_zero_divisor(self):
        # the binomial 1 - q**0 is the zero polynomial: a power below 1 is refused
        with pytest.raises(ValueError):
            ONE.divide_exact(1, [0])

    @pytest.mark.parametrize("sign, powers", [(1, [1])], ids=["1-q"])
    def test_infinite_series_quotient(self, sign, powers):
        # 1/(1 - q) is a power series: the running sum of the row 1 is 1 in its
        # top slot, which is no quotient slot, so it is the remainder.
        with pytest.raises(NonDivisibleError):
            ONE.divide_exact(sign, powers)

    @given(
        pack_operands(),
        st.one_of(
            st.integers(0, 24).map(lambda m: (1, [1] * m)),
            st.builds(lambda eps, b: (eps, range(1, b + 1)), st.sampled_from([1, -1]), st.integers(0, 8)),
            st.just((-1, [1])),
        ),
    )
    def test_roundtrip_src_divisors(self, a, divisor):
        # the divisors of E_n, D_n (powers of 1 - q), tk_special ((eps q; q)_b)
        # and the 1 + q of formulas
        sign, powers = divisor
        assert (a * binomial_product(sign, powers)).divide_exact(sign, powers) == a

    def test_roundtrip_random(self):
        rng = random.Random(20240817)
        for _ in range(300):
            a = rand_poly(rng)
            sign, powers = rng.choice([1, -1]), [rng.randint(1, 9) for _ in range(rng.randint(0, 4))]
            assert (a * binomial_product(sign, powers)).divide_exact(sign, powers) == a

    @given(pack_operands(), binomials())
    def test_roundtrip_hypothesis(self, a, divisor):
        sign, powers = divisor
        quo = (a * binomial_product(sign, powers)).divide_exact(sign, powers)
        assert quo == a
        assert_canonical(quo)

    @given(
        laurent_polys(),
        binomials().filter(lambda divisor: divisor[1]),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.integers(-9, 9).filter(bool),
    )
    def test_non_divisible_hypothesis(self, a, divisor, et, eq, c):
        # a product of one or more binomials has two or more terms, so it is no unit
        # times a monomial: it divides a times it but not that plus a monomial.
        sign, powers = divisor
        with pytest.raises(NonDivisibleError):
            (a * binomial_product(sign, powers) + monomial(c, et, eq)).divide_exact(sign, powers)


class TestDivisionReference:
    """``divide_exact`` against the term-dict long division in ``tests/reference.py``."""

    @given(
        binomials(),
        st.one_of(pack_operands(), laurent_polys()),
        st.sampled_from(["product+monomial", "product+multiple", "any"]),
        binomials(),
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.integers(-9, 9).filter(bool),
    )
    def test_same_quotient_and_same_raises(self, divisor, a, kind, other, et, eq, c):
        sign, powers = divisor
        product = binomial_product(sign, powers)
        quo = (a * product).divide_exact(sign, powers)
        assert quo == a == divide_reference(a * product, product)
        assert_canonical(quo)
        # perturbed: divisible by the product, or not, exactly when the reference says so
        if kind == "product+monomial":
            dividend = a * product + monomial(c, et, eq)
        elif kind == "product+multiple":
            # divisible exactly when the product divides this other product of binomials
            dividend = a * product + monomial(c, et, eq) * binomial_product(*other)
        else:
            dividend = a
        got = division_outcome(LaurentPoly.divide_exact, dividend, sign, powers)
        assert got == division_outcome(divide_reference, dividend, product)
        if got is not NonDivisibleError:
            assert_canonical(dividend.divide_exact(sign, powers))
        if kind == "product+monomial" and powers:
            assert got is NonDivisibleError

    @pytest.mark.parametrize(
        "dividend, sign, powers",
        [
            (ONE, 1, [1]),
            (monomial(1, -1, 0), 1, [1]),
            (ONE, -1, [3]),
            (monomial(1, -2, -3), 1, [1, 4]),
            (monomial(4, -2, -3) * ONE_MINUS_Q**2 * (ONE - monomial(1, 0, 4)), 1, [4, 1]),
        ],
        ids=["1/(1-q)", "1/(t-tq)", "below-q-floor", "laurent", "laurent-exact"],
    )
    def test_fixed_cases(self, dividend, sign, powers):
        expected = division_outcome(divide_reference, dividend, binomial_product(sign, powers))
        assert division_outcome(LaurentPoly.divide_exact, dividend, sign, powers) == expected


class TestRowMemo:
    """Results do not depend on how an operand was made: a result of ring operations,
    whose pack facts a packed sum may have filled, gives what its copy from the
    validating constructor gives."""

    @given(binomials(), st.one_of(pack_operands(), laurent_polys()))
    def test_divide_exact(self, divisor, a):
        sign, powers = divisor
        for dividend in (a * binomial_product(sign, powers), a):
            want = division_outcome(LaurentPoly.divide_exact, fresh(dividend), sign, powers)
            _sum_of_products([(1, 0, 0, (dividend,))])  # fills its pack facts
            assert division_outcome(LaurentPoly.divide_exact, dividend, sign, powers) == want

    @NO_DEADLINE
    @given(sum_items())
    def test_sum_of_products(self, items):
        want = _sum_of_products([(c, a, b, tuple(map(fresh, factors))) for c, a, b, factors in items])
        for _ in range(2):  # the second sum reads the packs the first kept
            got = _sum_of_products(items)
            assert got == want
            assert_canonical(got)

    @given(st.one_of(laurent_polys(), pack_operands()), st.sampled_from([1, -1]), st.integers(-9, 9))
    def test_substitute_t(self, p, sign, power):
        want = fresh(p).substitute_t(sign, power)
        _sum_of_products([(1, 0, 0, (p,))])
        assert p.substitute_t(sign, power) == want


@st.composite
def sparse_polys(draw, max_terms=6):
    """Few terms, far apart: exponents up to +-60, small or huge coefficients."""
    big = draw(st.sampled_from([9, 2**70]))
    exps = st.integers(-60, 60)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[(draw(exps), draw(exps))] = draw(st.integers(-big, big))
    return LaurentPoly(terms)


@st.composite
def cancelling_pairs(draw):
    """``(a, b)`` whose sum is a sparse ``r``: a holds r plus a part p that b takes away,
    so rows of a + b cancel at either end, in the middle or down to ZERO."""
    p, r = draw(sparse_polys()), draw(st.one_of(st.just(ZERO), sparse_polys(max_terms=3)))
    shared = draw(st.sampled_from([ZERO, monomial(1, 0, -60), monomial(-3, 1, 60), T - Q]))
    return p + r + shared, -p - shared


@st.composite
def cancelling_products(draw):
    """``(a, b)`` with terms of ``a * b`` that cancel: (x + y)(x - y) loses its cross terms,
    which cancel in the middle of a row or a whole row, times sparse cofactors."""
    mono = st.builds(monomial, st.sampled_from([1, -2, 3]), st.integers(-30, 30), st.integers(-30, 30))
    x, y = draw(mono), draw(mono)
    u, v = draw(sparse_polys(max_terms=3)), draw(sparse_polys(max_terms=3))
    return (x + y) * (u if u else ONE), (x - y) * (v if v else ONE)


class TestSparseWide:
    """Row arithmetic on sparse, wide-span operands against the term-dict references."""

    @given(st.one_of(st.tuples(sparse_polys(), sparse_polys()), cancelling_pairs()))
    def test_add_sub(self, pair):
        a, b = pair
        for got, want in ((a + b, add_reference(a.terms, b.terms)), (b + a, add_reference(a.terms, b.terms)),
                          (a - b, add_reference(a.terms, b.terms, -1)), (b - a, add_reference(b.terms, a.terms, -1)),
                          (-a, add_reference({}, a.terms, -1))):
            assert dict(got.terms) == want
            assert_canonical(got)

    @given(st.one_of(st.tuples(sparse_polys(), sparse_polys()), cancelling_products(), cancelling_pairs()))
    def test_mul(self, pair):
        a, b = pair
        want = mul_reference(a.terms, b.terms)
        for got in (a * b, b * a):
            assert dict(got.terms) == want
            assert_canonical(got)

    @given(sparse_polys(), st.sampled_from([1, -1]), st.sampled_from([[1], [2, 1], [40], [25, 20], [7, 7, 7]]))
    def test_divide_exact(self, a, sign, powers):
        divisor = binomial_product(sign, powers)  # up to 46 q-slots
        for dividend in (a * divisor, a * divisor + monomial(1, 0, 60), a):
            got = division_outcome(LaurentPoly.divide_exact, dividend, sign, powers)
            assert got == division_outcome(divide_reference, dividend, divisor)
            if got is not NonDivisibleError:
                assert_canonical(dividend.divide_exact(sign, powers))

    @given(sparse_polys(), st.sampled_from([1, -1]), st.integers(-9, 9), st.integers(1, 5))
    def test_substitutions(self, p, sign, r, f):
        cases = [
            (p.substitute_t(sign, r), dict(substitute_t_reference(p, sign, r).terms)),
            (p.shift_t_by_q(r), exponent_map_reference(p, lambda et, eq: (et, eq + r * et))),
            (p.scale_q(f), exponent_map_reference(p, lambda et, eq: (et, eq * f))),
            (p.invert_variables(), exponent_map_reference(p, lambda et, eq: (-et, -eq))),
        ]
        if all(et >= 0 for et, _ in p.terms):
            cases.append((p.substitute_t_zero(), {e: c for e, c in p.terms.items() if e[0] == 0}))
        else:
            with pytest.raises(ZeroDenominatorError):
                p.substitute_t_zero()
        for got, want in cases:
            assert dict(got.terms) == want
            assert_canonical(got)


@st.composite
def width_polys(draw, width):
    """Nonzero polynomials whose l1 norm needs ``width`` bytes a slot (over 8 bytes for
    ``width`` 16): a small part and one big coefficient on a q-exponent of its own."""
    small = draw(laurent_polys())
    prev = {1: 0, 2: 1, 4: 2, 8: 4, 16: 8}[width]
    top = (1 << (8 * width - 1)) - 1 - sum(map(abs, small.terms.values()))
    big = draw(st.integers(1 << max(0, 8 * prev - 1), top)) * draw(st.sampled_from([1, -1]))
    return small + monomial(big, draw(st.integers(-3, 3)), draw(st.sampled_from([-9, 9])))


def norm(p):
    return sum(map(abs, p.terms.values()))


def assert_width(bound, width):
    got = _slot_bytes(bound)
    assert got == width if width <= 8 else 8 < got <= width


# over 8 bytes every slot converts on its own, as every width does under --per-slot-codec
WIDTHS = pytest.mark.parametrize("width", [1, 2, 4, 8, 16])


class TestPackedFolds:
    """``substitute_t`` and the ballot fold, each one packed int decoded once, against the
    term-by-term and dense-row references."""

    @WIDTHS
    @given(data=st.data(), sign=st.sampled_from([1, -1]), power=st.integers(-9, 9))
    def test_substitute_t_at_each_width(self, width, data, sign, power):
        # a substituted slot is a signed sum of distinct coefficients: at most the l1 norm
        p = data.draw(width_polys(width))
        assert_width(norm(p), width)
        got = p.substitute_t(sign, power)
        assert got == substitute_t_reference(p, sign, power)
        assert_canonical(got)

    @given(sparse_polys(), sparse_polys(), st.sampled_from([1, -1]), st.integers(-9, -1))
    def test_substitute_t_cancels_at_the_row_ends(self, r, u, sign, power):
        # u's terms cancel in pairs at t = sign * q**power, often beyond both ends of r's
        p = r + u * (T - monomial(sign, 0, power))
        got = p.substitute_t(sign, power)
        assert got == substitute_t_reference(r, sign, power) == substitute_t_reference(p, sign, power)
        assert_canonical(got)

    @WIDTHS
    @given(data=st.data(), n=st.integers(0, 14))
    def test_ballot_fold_at_each_width(self, width, data, n):
        # ballot-sized weights over a pool of kernels; a slot is at most sum |w| * |K_k|_1
        pool = data.draw(st.lists(width_polys(width), min_size=1, max_size=3))
        kernels = [data.draw(st.sampled_from(pool)) for _ in range(n + 1)]
        pairs = [(ballot(n, k), K) for k, K in enumerate(kernels)]
        got = ballot_fold(pairs)
        assert got == sum_rows_reference(pairs)
        assert dict(got.terms) == reduce_add(pairs)
        assert_canonical(got)

    @given(st.one_of(cancelling_pairs(), st.tuples(sparse_polys(), st.just(ZERO))),
           st.integers(1, 2**70), st.sampled_from([ZERO, ONE, T - Q, monomial(1, 0, 60)]))
    def test_ballot_fold_cancels(self, pair, w, extra):
        # a + b cancels at either row end or down to ZERO; w * p - w * p leaves nothing
        a, b = pair
        for pairs in ([(1, a), (1, b)], [(w, a), (w, b), (w, extra), (-w, extra)], [(w, a), (-w, a)]):
            got = ballot_fold(pairs)
            assert got == sum_rows_reference(pairs)
            assert dict(got.terms) == reduce_add(pairs)
            assert_canonical(got)
        assert ballot_fold([(w, a), (-w, a)])._rows == ()

    def test_tk_substituted_at_17_powers_packs_its_rows_once(self, pack_calls):
        tk = fresh(tk_recurrence(6))
        for power in range(-8, 9):
            for sign in (1, -1):
                assert tk.substitute_t(sign, power) == substitute_t_reference(tk, sign, power)
        width = _slot_bytes(norm(tk))
        assert pack_calls == [(width, cs) for _, _, cs in tk._rows]
        assert list(tk._pack_facts[2]) == [width]


def reduce_add(pairs):
    """``sum w * p`` as a term dict, through the term-dict sum."""
    total = {}
    for w, p in pairs:
        total = add_reference(total, p.terms, w)
    return total


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

    @given(st.one_of(laurent_polys(), pack_operands()), st.sampled_from([1, -1]), st.integers(-9, 9))
    @example(ZERO, 1, 0)
    @example(ONE + T, -1, 0)
    @example(T - monomial(1, 0, 3) + monomial(5, 2, -1), 1, 3)
    def test_matches_term_by_term_reference(self, p, sign, power):
        want = substitute_t_reference(p, sign, power)
        got = p.substitute_t(sign, power)
        assert got == want
        assert_canonical(got)

    @given(st.one_of(laurent_polys(), pack_operands()), st.sampled_from([1, -1]), st.integers(-9, 9))
    def test_cancels_to_zero(self, p, sign, power):
        # t - sign * q**power vanishes at t = sign * q**power, and so does every multiple of it
        got = (p * (T - monomial(sign, 0, power))).substitute_t(sign, power)
        assert got == ZERO
        assert got._rows == ()


class TestEvaluate:
    def test_simple(self):
        assert T1.evaluate(1, 1) == Fraction(-1)

    def test_t2_at_one(self):
        from tqeuler.formulas import tk_recurrence

        assert tk_recurrence(2).evaluate(1, 1) == 1

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            monomial(1, 0, -1).evaluate(1, 0)

    @given(
        laurent_polys(),
        st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=9)),
        st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=9)),
    )
    @example(LaurentPoly({(-3, 2): 5, (2, -3): -7, (0, 0): 1}), Fraction(-2, 3), Fraction(5, 7))
    @example(LaurentPoly({(1, -1): 2}), 0, Fraction(1, 2))
    @example(LaurentPoly({(1, -1): 2}), Fraction(1, 2), 0)
    @example(T1, 0, 0)
    @example(ZERO, 0, 0)
    def test_matches_term_by_term_reference(self, p, t0, q0):
        try:
            want = evaluate_reference(p, t0, q0)
        except ZeroDenominatorError:
            with pytest.raises(ZeroDenominatorError):
                p.evaluate(t0, q0)
            return
        got = p.evaluate(t0, q0)
        assert type(got) is Fraction
        assert got == want


class TestRendering:
    def test_text(self):
        assert T1.render() == "1 - q - t*q"
        assert ZERO.render() == "0"
        assert (const(2) - Q).render() == "2 - q"
        assert monomial(2, 1, -1).render() == "2*t*q^-1"

    def test_sorted_by_exponents(self):
        from tqeuler.cfrac import euler_hat

        assert euler_hat(1).render() == "1 - q - t*q + t*q^2"

    def test_json_terms_shape(self):
        assert json.loads(T1.json_text()) == json_terms(T1) == [
            {"et": 0, "eq": 0, "c": "1"},
            {"et": 0, "eq": 1, "c": "-1"},
            {"et": 1, "eq": 1, "c": "-1"},
        ]

    def test_json_text_is_json_dumps(self):
        for p in (T1, ZERO, monomial(-(2**200), -3, 5)):
            assert p.json_text() == json.dumps(json_terms(p), indent=2, sort_keys=True)


def test_only_exactalg_knows_the_row_layout():
    # no other module reads or wraps a polynomial's rows or names the row type
    name = re.compile(r"\b(_rows|_trusted|Row)\b")
    hits = [f"{path.name}:{n}" for path in sorted(Path(exactalg.__file__).parent.glob("*.py"))
            if path.name != "exactalg.py"
            for n, line in enumerate(path.read_text().splitlines(), 1) if name.search(line)]
    assert hits == []
