import gc
import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import tqeuler
from tqeuler import cfrac, combinat
from tqeuler.combinat import (
    CutoffExceededError,
    InvalidEndpointError,
    alt_statistic_polynomial,
    box_size_polynomial,
    delta_prime_weight_sum,
    dist_box_polynomial,
    dyck_weight_sum,
    l_path_weight_sum,
    lprime_path_weight_sum,
    m_path_weight_sum,
    md_star_weight_sum,
    md_star_weight_sum_general,
    sop_weight_sum,
    _DEFAULT_CUTOFFS,
    _box_leaves,
    _bounded_parts,
    _conjugate,
    _multiply_keys,
)
from tqeuler.exactalg import LaurentPoly, ONE, Q, T, ZERO, const, monomial
from tqeuler.formulas import tk_recurrence
from tqeuler.qkit import ballot, euler_down, euler_up, gauss_binom, q_int

from reference import (
    MD_STAR_RULES,
    alt_statistic_reference,
    alternating_reference,
    box_partitions,
    count_13_2_patterns,
    dyck_path_weight,
    dyck_paths,
    enum_alternating,
    enum_delta_prime,
    enum_md_star,
    l_path_reference,
    lprime_path_reference,
    m_path_reference,
    multiply_keys_reference,
    staircase_partitions,
)

ONE_MINUS_Q = ONE - Q
DATA = Path(__file__).parent / "data"


def parts_of(leaves):
    """The part tuples of partition leaves ``(parts, size, distinct)``, in order."""
    return [parts for parts, _, _ in leaves]


@st.composite
def rule_inputs(draw, max_k):
    """k <= max_k and per-height rule values for heights 1..k, each a sum of up
    to three random terms."""
    k = draw(st.integers(0, max_k))
    term = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2))
    value = st.lists(term, max_size=3).map(
        lambda terms: sum((monomial(c, et, eq) for c, et, eq in terms), ZERO)
    )
    rules = st.lists(value, min_size=k, max_size=k)
    return k, draw(rules), draw(rules)


@st.composite
def key_tallies(draw):
    """A ``(key, e_t, e_q) -> count`` tally over up to three slots, each slot
    zero, a monomial or a sum of up to three terms, every key digit in 0..n
    and the base n+1."""
    n = draw(st.integers(0, 4))
    term = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2))
    poly = st.lists(term, max_size=3).map(
        lambda terms: sum((monomial(c, et, eq) for c, et, eq in terms), ZERO)
    )
    slots = draw(st.lists(poly, max_size=3))
    key = st.lists(st.integers(0, n), min_size=len(slots), max_size=len(slots)).map(
        lambda digits: sum(d * (n + 1) ** i for i, d in enumerate(digits))
    )
    exponents = st.tuples(key, st.integers(-2, 2), st.integers(-2, 2))
    tally = draw(st.dictionaries(exponents, st.integers(-3, 3), max_size=8))
    return tally, slots, n + 1


class TestPartition:
    def test_conjugate_involution(self):
        assert _conjugate((4, 2, 1)) == (3, 2, 1, 1)
        for m in range(7):
            for n in range(7):
                for parts in parts_of(_box_leaves(m, n)):
                    assert _conjugate(_conjugate(parts)) == parts
                    assert sum(_conjugate(parts)) == sum(parts)


class TestBoxEnumeration:
    def test_empty_box(self):
        assert parts_of(_box_leaves(0, 5)) == [()]

    def test_unit_box(self):
        assert sorted(parts_of(_box_leaves(1, 1))) == [(), (1,)]

    def test_two_by_two(self):
        assert len(_box_leaves(2, 2)) == 6
        assert box_size_polynomial(2, 2) == gauss_binom(4, 2)

    def test_counts_without_duplicates(self):
        for m in range(8):
            for n in range(8):
                parts = parts_of(_box_leaves(m, n))
                assert len(parts) == len(set(parts)) == math.comb(m + n, m)
        for k in range(8):
            parts = parts_of(_bounded_parts(range(k, 0, -1)))
            catalan = math.comb(2 * k + 2, k + 1) // (k + 2)
            assert len(parts) == len(set(parts)) == catalan

    def test_cutoff(self):
        with pytest.raises(CutoffExceededError):
            box_size_polynomial(9, 1)

    def test_oracles_match_partition_objects(self):
        for m in range(7):
            for n in range(7):
                lams = parts_of(_box_leaves(m, n))
                size = sum((monomial(1, 0, sum(lam)) for lam in lams), ZERO)
                dist = sum((monomial(1, len(set(lam)), sum(lam)) for lam in lams), ZERO)
                assert box_size_polynomial(m, n) == size
                assert dist_box_polynomial(m, n) == dist

    @pytest.mark.parametrize("m, n", [(-1, 0), (0, -1), (-2, 3)])
    def test_negative_dimensions(self, m, n):
        for oracle in (box_size_polynomial, dist_box_polynomial):
            with pytest.raises(ValueError, match="nonnegative"):
                oracle(m, n)
        with pytest.raises(ValueError, match="nonnegative"):
            _box_leaves(m, n)


class TestPartitionLeaves:
    """Each leaf of the one partition enumerator carries the size and the number of
    distinct parts of its part tuple."""

    def test_size_and_distinct_count_of_every_leaf(self):
        cap, stair = _DEFAULT_CUTOFFS["partition"], _DEFAULT_CUTOFFS["delta"]
        shapes = [[n] * m for m in range(cap + 1) for n in range(cap + 1)]
        shapes += [range(k, 0, -1) for k in range(stair + 1)]
        for bounds in shapes:
            for parts, size, distinct in _bounded_parts(bounds):
                assert (size, distinct) == (sum(parts), len(set(parts))), (list(bounds), parts)

    def test_part_lists_are_the_leaves_in_order(self):
        # the box and staircase leaves are the reference partitions, in decreasing
        # lexicographic order of their zero-padded parts
        def trimmed(padded):
            return [tuple(p for p in parts if p) for parts in sorted(padded, reverse=True)]

        cap, stair = _DEFAULT_CUTOFFS["partition"], _DEFAULT_CUTOFFS["delta"]
        for m in range(cap + 1):
            for n in range(cap + 1):
                assert parts_of(_box_leaves(m, n)) == trimmed(box_partitions(m, n))
        for k in range(stair + 1):
            staircase = [parts + (0,) * (k - len(parts)) for parts in staircase_partitions(k)]
            assert parts_of(_bounded_parts(range(k, 0, -1))) == trimmed(staircase)
        assert parts_of(_bounded_parts(range(-1, 0, -1))) == [()]

    def test_a_first_part_at_the_bound_counts_as_distinct(self):
        assert _bounded_parts([2, 2]) == [
            ((2, 2), 4, 1), ((2, 1), 3, 2), ((2,), 2, 1), ((1, 1), 2, 1), ((1,), 1, 1), ((), 0, 0),
        ]


class TestDistBox:
    def test_one_one(self):
        assert dist_box_polynomial(1, 1) == LaurentPoly({(0, 0): 1, (1, 1): 1})

    def test_zero_rows(self):
        for n in range(4):
            assert dist_box_polynomial(0, n) == ONE

    def test_two_one(self):
        assert dist_box_polynomial(2, 1) == LaurentPoly({(0, 0): 1, (1, 1): 1, (1, 2): 1})

    def test_cutoff(self):
        with pytest.raises(CutoffExceededError):
            dist_box_polynomial(9, 1)


class TestDyck:
    def test_counts(self):
        assert len(list(dyck_paths(3))) == 5

    def test_unweighted(self):
        assert dyck_weight_sum(2, lambda h: ONE, lambda h: ONE) == const(2)

    def test_q_int_up(self):
        assert dyck_weight_sum(2, q_int, lambda h: ONE) == const(2) + Q

    def test_matches_euler_hat(self):
        for n in range(5):
            assert dyck_weight_sum(n, euler_up, euler_down) == cfrac.euler_hat(n)

    @pytest.mark.parametrize(
        "up, down", [(euler_up, euler_down), (q_int, q_int)], ids=["euler", "q-int"]
    )
    def test_oracle_matches_reference(self, up, down):
        # up to the Dyck cutoff itself
        for n in range(9):
            ref = sum((dyck_path_weight(p, up, down) for p in dyck_paths(n)), ZERO)
            assert dyck_weight_sum(n, up, down) == ref

    # n = 2 has the paths u1 d1 u1 d1 and u1 u2 d2 d1: the first example zeroes
    # the second path through a zero rule at height 2; the second gives
    # heights 1 and 2 multi-term values on both step kinds.
    @example((2, [T + Q, ZERO], [ONE - Q, const(3)]))
    @example((3, [Q - ONE, ONE + T, const(2)], [monomial(1, 0, -1) - ONE, T - Q, Q]))
    @given(rule_inputs(4))
    def test_oracle_matches_reference_on_random_rules(self, inputs):
        n, up, down = inputs
        up_rule, down_rule = (lambda h: up[h - 1]), (lambda h: down[h - 1])
        ref = sum((dyck_path_weight(p, up_rule, down_rule) for p in dyck_paths(n)), ZERO)
        assert dyck_weight_sum(n, up_rule, down_rule) == ref

    def test_cutoff(self):
        with pytest.raises(CutoffExceededError):
            dyck_weight_sum(9, lambda h: ONE, lambda h: ONE)

    def test_negative_length_is_empty(self):
        assert list(dyck_paths(-1)) == []
        assert dyck_weight_sum(-1, lambda h: ONE, lambda h: ONE) == ZERO
        assert md_star_weight_sum_general(-1, *MD_STAR_RULES["u-v"]) == ZERO
        assert enum_alternating(-1) == []
        assert alt_statistic_polynomial(-2) == ZERO
        assert delta_prime_weight_sum(-1) == ZERO
        assert sop_weight_sum(-1) == ZERO
        assert m_path_weight_sum(-1) == ZERO


class TestMultiplyKeys:
    # keys 1 and 3 in base 3 are the digits (1, 0) and (0, 1): their (1+t)
    # products cancel; key 3 in base 4 is (1-q)**3, the top digit; a zero
    # count and a zero slot drop their items
    @example(({(1, 0, 0): 1, (3, 0, 0): -1}, [ONE + T, ONE + T], 3))
    @example(({(3, 0, 1): 2, (0, 1, 0): -1}, [ONE - Q], 4))
    @example(({(0, 0, 0): 0, (1, 0, 0): 5, (2, 1, 1): 1}, [ZERO, monomial(-2, 1, -1)], 2))
    @example(({}, [ONE + T], 2))
    @given(key_tallies())
    def test_packed_matches_dict_loop(self, inputs):
        tally, slots, base = inputs
        assert _multiply_keys(tally, slots, base) == multiply_keys_reference(tally, slots, base)


class TestMarkedDyck:
    def test_euler_rules_less_one_are_the_starred_rules(self):
        # md_star_weight_sum weighs each step by its Euler weight less one: these
        # are the starred rules -q**h and -t*q**h
        for h in range(1, 9):
            assert euler_up(h) - ONE == monomial(-1, 0, h)
            assert euler_down(h) - ONE == monomial(-1, 1, h)

    def test_k0(self):
        assert md_star_weight_sum(0) == ONE

    def test_k1(self):
        # three admissible markings of the single peak path
        assert md_star_weight_sum(1) == LaurentPoly({(1, 2): 1, (1, 1): -1, (0, 1): -1})

    def test_no_marked_peaks(self):
        for p in enum_md_star(2):
            assert not p.has_marked_peak()
            assert p.is_valid_dyck()

    def test_transfer_to_tk(self):
        for k in range(6):
            lhs = md_star_weight_sum(k)
            rhs = monomial(1, k, k * (k + 1)) * tk_recurrence(k).invert_variables()
            assert lhs == rhs

    def test_ballot_reduction(self):
        # Dyck weight sums reduce to ballot-weighted sums over marked paths
        # with both weight rules decremented by one.
        pairs = [(euler_up, euler_down), (q_int, q_int)]
        for n in range(6):
            for up, down in pairs:
                lhs = dyck_weight_sum(n, up, down)
                rhs = ZERO
                for k in range(n + 1):
                    rhs = rhs + ballot(n, k) * md_star_weight_sum_general(
                        k, lambda h: up(h) - ONE, lambda h: down(h) - ONE
                    )
                assert lhs == rhs


    @pytest.mark.parametrize("rules", list(MD_STAR_RULES))
    def test_oracle_matches_frozen_outputs(self, rules):
        # [et, eq, c] terms of the sum over enum_md_star(k) for k = 0..6,
        # written by tests/make_fixtures.py.
        with open(DATA / "md_star_weight_sum.json", encoding="utf-8") as fh:
            frozen = json.load(fh)[rules]
        assert sorted(frozen, key=int) == [str(k) for k in range(7)]
        up, down = MD_STAR_RULES[rules]
        for k, terms in frozen.items():
            expected = LaurentPoly({(et, eq): c for et, eq, c in terms})
            assert md_star_weight_sum_general(int(k), up, down) == expected

    # k = 1 sums (u+1)(d+1) - 1 over its three leaves; both examples make it 0.
    @example((1, [const(-2)], [const(-2)]))
    @example((1, [Q - ONE], [monomial(1, 0, -1) - ONE]))
    @given(rule_inputs(3))
    def test_oracle_matches_reference_on_random_rules(self, inputs):
        k, up, down = inputs
        up_rule, down_rule = (lambda h: up[h - 1]), (lambda h: down[h - 1])
        ref = ZERO
        for p in enum_md_star(k):
            ref = ref + p.weight(up_rule, down_rule)
        assert md_star_weight_sum_general(k, up_rule, down_rule) == ref

    def test_oracle_cutoff(self):
        with pytest.raises(CutoffExceededError):
            md_star_weight_sum_general(7, *MD_STAR_RULES["u-v"])


@st.composite
def far_rule_inputs(draw):
    """k <= 3 and per-height rule values for heights 1..k, each zero, a monomial whose
    exponents reach +-50, or a sum of two near monomials.  The walk codes the exponents
    of monomial steps only; a multi-term step is a key digit whatever its exponents."""
    k = draw(st.integers(0, 3))
    far = st.builds(monomial, st.integers(-3, 3), st.integers(-50, 50), st.integers(-50, 50))
    near = st.builds(monomial, st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2))
    value = st.one_of(st.just(ZERO), far, st.builds(lambda a, b: a + b, near, near))
    rules = st.lists(value, min_size=k, max_size=k)
    return k, draw(rules), draw(rules)


def walk_references(k, up_rule, down_rule):
    """The plain and the marked sum of ``tests/reference.py``, one path at a time."""
    plain = sum((dyck_path_weight(p, up_rule, down_rule) for p in dyck_paths(k)), ZERO)
    marked = sum((p.weight(up_rule, down_rule) for p in enum_md_star(k)), ZERO)
    return plain, marked


FAR_RULES = {
    # every step q**50 or q**-50: the q-exponent sum is +-H, the edge of its field
    "q-top": (lambda h: monomial(2, 1, 50), lambda h: monomial(-1, 0, 50)),
    "q-bottom": (lambda h: monomial(1, -3, -50), lambda h: monomial(3, 50, -50)),
    # signs and t-exponents alternating with the height, t at -50 below q
    "alternating": (lambda h: monomial(-1, 50 if h % 2 else -50, -50 if h % 2 else 50),
                    lambda h: monomial(1, -50, 50 - h)),
    # a multi-term slot at every odd height beside far monomials
    "mixed": (lambda h: ONE + monomial(1, 1, h) if h % 2 else monomial(1, -50, 49),
              lambda h: monomial(-2, 50, -50) if h % 2 else T - monomial(1, 0, -50)),
    # every step weight a multi-term slot: (up down)**k takes the slots of height 1
    # k times each, the top digit of the key
    "all-slots": (lambda h: ONE + monomial(h, 1, 50), lambda h: monomial(1, 0, -50) - T),
}


class TestWalkCode:
    """The one-int prefix code of ``combinat._marked_walk`` at the edges of its fields."""

    @pytest.mark.parametrize("rules", list(FAR_RULES))
    @pytest.mark.parametrize("k", range(4))
    def test_far_rules_match_reference(self, rules, k):
        up, down = FAR_RULES[rules]
        plain, marked = walk_references(k, up, down)
        assert dyck_weight_sum(k, up, down) == plain
        assert md_star_weight_sum_general(k, up, down) == marked

    def test_q_exponent_sum_reaches_its_bound(self):
        # every path of length 2k has weight 2**k * (-1)**k * t**k * q**(100k), so the
        # q field holds exactly H = 2k * 50
        up, down = FAR_RULES["q-top"]
        for k in range(4):
            assert dyck_weight_sum(k, up, down) == monomial(math.comb(2 * k, k) // (k + 1) * (-2) ** k, k, 100 * k)

    @pytest.mark.parametrize("k", range(1, 4))
    def test_key_reaches_its_top_digit(self, monkeypatch, k):
        keys = []
        multiply = combinat._multiply_keys

        def spy(tally, slots, base):
            keys.extend(key for key, _, _ in tally)
            return multiply(tally, slots, base)

        monkeypatch.setattr(combinat, "_multiply_keys", spy)
        up, down = FAR_RULES["all-slots"]
        md_star_weight_sum_general(k, up, down)
        # slot 0 is the up step to height 1 and slot k the down step from it
        assert k + k * (k + 1) ** k in keys
        assert max(keys) < (k + 1) ** (2 * k)

    @example((3, [monomial(1, 50, 50)] * 3, [monomial(-1, -50, -50)] * 3))
    @example((2, [ONE + monomial(1, 50, -50), ZERO], [monomial(3, -50, 50), T - Q]))
    @given(far_rule_inputs())
    def test_matches_reference_on_far_rules(self, inputs):
        k, up, down = inputs
        up_rule, down_rule = (lambda h: up[h - 1]), (lambda h: down[h - 1])
        plain, marked = walk_references(k, up_rule, down_rule)
        assert dyck_weight_sum(k, up_rule, down_rule) == plain
        assert md_star_weight_sum_general(k, up_rule, down_rule) == marked


class TestDeltaConfigs:
    def test_k0(self):
        assert delta_prime_weight_sum(0) == ONE

    def test_k1(self):
        configs = enum_delta_prime(1)
        assert len(configs) == 3  # both-arrows case is a forbidden corner
        assert delta_prime_weight_sum(1) == LaurentPoly({(0, 0): 1, (0, 1): -1, (1, 1): -1})

    def test_matches_recurrence(self):
        for k in range(6):
            assert delta_prime_weight_sum(k) == tk_recurrence(k)

    def test_matches_frozen_outputs(self):
        # [et, eq, c] terms of the per-configuration sum over
        # enum_delta_prime(k) for k = 0..6, written by tests/make_fixtures.py.
        with open(DATA / "delta_prime_weight_sum.json", encoding="utf-8") as fh:
            frozen = json.load(fh)
        assert sorted(frozen, key=int) == [str(k) for k in range(7)]
        for k, terms in frozen.items():
            expected = LaurentPoly({(et, eq): c for et, eq, c in terms})
            assert delta_prime_weight_sum(int(k)) == expected

    def test_cutoff(self):
        with pytest.raises(CutoffExceededError):
            delta_prime_weight_sum(7)

    def test_weight_sign_is_arrow_parity(self):
        for k in range(5):
            for cfg in enum_delta_prime(k):
                arrows = len(cfg.row_arrows) + len(cfg.col_arrows)
                assert cfg.weight().evaluate(1, 1) == (-1) ** arrows

    def test_arrow_lengths_positive(self):
        for cfg in enum_delta_prime(4):
            assert all(length >= 1 for length in cfg.arrow_lengths())


class TestOverpartitions:
    def test_k0(self):
        assert sop_weight_sum(0) == ONE

    def test_k1(self):
        assert sop_weight_sum(1) == LaurentPoly({(0, 0): 1, (0, 1): -1, (1, 1): -1})

    def test_matches_recurrence(self):
        for k in range(7):
            assert sop_weight_sum(k) == tk_recurrence(k)


class TestMPaths:
    def test_k0(self):
        assert m_path_weight_sum(0) == ONE

    def test_k1(self):
        assert m_path_weight_sum(1) == ONE - Q * (ONE + T)

    def test_matches_recurrence(self):
        for k in range(8):
            assert m_path_weight_sum(k) == tk_recurrence(k)

    def test_matches_enumeration(self):
        # the walk against one step sequence at a time, over the whole cutoff range
        for k in range(8):
            assert m_path_weight_sum(k) == m_path_reference(k)


class TestAxisPaths:
    def test_endpoint_validation(self):
        with pytest.raises(InvalidEndpointError):
            l_path_weight_sum(2, 2, 1, 1, 1)

    @pytest.mark.parametrize("oracle", [l_path_weight_sum, lprime_path_weight_sum])
    def test_argument_check_order(self, oracle):
        # a negative coordinate, then an endpoint off both axes, then the cutoff, then eps
        with pytest.raises(ValueError, match="nonnegative"):
            oracle(9, 9, 1, -1, 5)
        with pytest.raises(InvalidEndpointError):
            oracle(9, 9, 1, 1, 5)
        with pytest.raises(CutoffExceededError):
            oracle(9, 9, 1, 0, 5)
        with pytest.raises(ValueError, match="eps"):
            oracle(2, 2, 1, 0, 5)

    def test_empty_family_is_zero(self):
        assert l_path_weight_sum(1, 3, 0, 1, 1) == ZERO  # needs more descents than steps

    def test_l_trivial_endpoint(self):
        # (b, k) -> (0, k): the all-west path, cleared weight 1 times q powers
        assert l_path_weight_sum(2, 2, 0, 2, 1) == ONE

    def test_lprime_empty_path(self):
        assert lprime_path_weight_sum(0, 1, 0, 1, 1) == ONE
        assert lprime_path_weight_sum(2, 0, 2, 0, -1) == ONE

    def test_matches_enumeration(self):
        # every axis endpoint of the cutoff range, including those one step out of reach
        for b in range(7):
            for k in range(7):
                ends = [(m, 0) for m in range(b + 2)] + [(0, n) for n in range(1, k + 2)]
                for (m, n), eps in itertools.product(ends, (1, -1)):
                    assert l_path_weight_sum(b, k, m, n, eps) == l_path_reference(b, k, m, n, eps)
                    assert lprime_path_weight_sum(b, k, m, n, eps) == lprime_path_reference(b, k, m, n, eps)


class TestAlternating:
    def test_counts(self):
        assert [len(enum_alternating(n)) for n in range(7)] == [1, 1, 1, 2, 5, 16, 61]

    def test_matches_filtered_permutations(self):
        # rises at even 0-based positions, descents at odd ones, in lexicographic order
        for n in range(9):
            assert enum_alternating(n) == alternating_reference(n)

    def test_n0_polynomial(self):
        assert alt_statistic_polynomial(0) == ONE

    def test_n4_distribution(self):
        assert alt_statistic_polynomial(4) == LaurentPoly({(0, 0): 2, (0, 1): 2, (0, 2): 1})

    def test_statistic_example(self):
        assert count_13_2_patterns((1, 4, 2, 3)) == 2
        assert count_13_2_patterns((2, 3, 1, 4)) == 0

    def test_statistic_matches_q_euler(self):
        # resolves the statistic question: the 13-2 pattern count on up-down
        # alternating permutations reproduces both classical families
        for n in range(10):
            ref = cfrac.en_even_q(n // 2) if n % 2 == 0 else cfrac.en_odd_q(n // 2)
            assert alt_statistic_polynomial(n) == ref

    def test_transfer_matches_enumeration(self):
        # the state transfer against counting the pattern on every permutation,
        # over the whole cutoff range
        for m in range(10):
            assert alt_statistic_polynomial(m) == alt_statistic_reference(m)

    def test_transfer_at_q1_counts_permutations(self):
        for m in range(10):
            assert alt_statistic_polynomial(m).evaluate(1, 1) == len(enum_alternating(m))

    def test_cutoff(self):
        with pytest.raises(CutoffExceededError):
            enum_alternating(10)
        with pytest.raises(CutoffExceededError):
            alt_statistic_polynomial(10)


ORACLE_CALLS = {
    "box_size_polynomial": lambda: box_size_polynomial(4, 3),
    "dist_box_polynomial": lambda: dist_box_polynomial(3, 4),
    "dyck_weight_sum": lambda: dyck_weight_sum(5, euler_up, euler_down),
    "md_star_weight_sum": lambda: md_star_weight_sum(4),
    "md_star_weight_sum_general": lambda: md_star_weight_sum_general(3, q_int, q_int),
    "delta_prime_weight_sum": lambda: delta_prime_weight_sum(4),
    "sop_weight_sum": lambda: sop_weight_sum(4),
    "m_path_weight_sum": lambda: m_path_weight_sum(5),
    "l_path_weight_sum": lambda: l_path_weight_sum(4, 3, 1, 0, -1),
    "lprime_path_weight_sum": lambda: lprime_path_weight_sum(4, 3, 0, 1, 1),
    "alt_statistic_polynomial": lambda: alt_statistic_polynomial(8),
}


def cyclic_garbage(call) -> int:
    """How many objects ``call()`` leaves that only the cyclic collector frees."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("call", ORACLE_CALLS.values(), ids=list(ORACLE_CALLS))
def test_oracle_leaves_no_cyclic_garbage(call):
    tqeuler.clear_caches()
    assert cyclic_garbage(call) == 0


def test_default_run_leaves_no_cyclic_garbage():
    tqeuler.clear_caches()
    assert cyclic_garbage(tqeuler.run_verification) == 0
