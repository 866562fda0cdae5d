import math

import pytest
from reference import pochhammer_product

import tqeuler
from tqeuler.combinat import box_size_polynomial
from tqeuler.exactalg import LaurentPoly, ONE, Q, ZERO, monomial
from tqeuler.qkit import (
    a_k_poly,
    ballot,
    euler_down,
    euler_up,
    gauss_binom,
    neg_q_power,
    odd_pochhammer,
    partition_box_binom,
    pochhammer,
    q_int,
    square_sum,
)

ONE_MINUS_Q = ONE - Q


def test_q_int():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(3) == LaurentPoly({(0, 0): 1, (0, 1): 1, (0, 2): 1})


@pytest.mark.parametrize("h", range(9))
def test_euler_weights_at_every_height(h):
    # at h = 0 the up weight is 1 - q**0 = 0 and the down weight 1 - t
    assert euler_up(h) == ONE - monomial(1, 0, h)
    assert euler_down(h) == ONE - monomial(1, 1, h)


def test_tq_factor():
    assert euler_up(2) == ONE - monomial(1, 0, 2)
    assert euler_down(1) == LaurentPoly({(0, 0): 1, (1, 1): -1})
    assert euler_down(2).substitute_t(1, 0) == ONE - monomial(1, 0, 2)
    product = euler_down(1) * euler_down(2)
    assert product.terms.get((2, 3)) == 1  # coefficient of t^2


def test_pochhammer():
    assert pochhammer(1, 1, 0) == ONE
    assert pochhammer(1, 1, 2) == LaurentPoly(
        {(0, 0): 1, (0, 1): -1, (0, 2): -1, (0, 3): 1}
    )
    # negative base power: (-q^-1; q)_2 = (1 + q^-1)(1 + 1)
    assert pochhammer(-1, -1, 2) == LaurentPoly({(0, 0): 2, (0, -1): 2})


def test_pochhammer_unit_base_collapses():
    # the i = -power factor is (1 -+ 1): 0 for sign +1, 2 for sign -1
    assert pochhammer(1, 0, 1) == ZERO
    assert pochhammer(-1, 0, 1) == LaurentPoly({(0, 0): 2})


def test_pochhammer_cache_matches_product_loop():
    symbols = [
        (sign, power, length)
        for sign in (1, -1)
        for power in range(-9, 10)
        for length in range(9, -1, -1)
    ]
    tqeuler.clear_caches()
    for _ in range(2):  # cold, then every symbol from the cache
        for symbol in symbols:
            assert pochhammer(*symbol) == pochhammer_product(*symbol)
    assert pochhammer(1, -3, 4) == ZERO  # the factor 1 - q**0
    assert pochhammer(-1, -3, 4) is pochhammer(-1, -3, 4)


def test_odd_pochhammer():
    assert odd_pochhammer(0) == ONE
    assert odd_pochhammer(1) == ONE_MINUS_Q
    assert odd_pochhammer(2) == ONE_MINUS_Q * (ONE - monomial(1, 0, 3))
    with pytest.raises(ValueError):
        odd_pochhammer(-1)


def test_odd_pochhammer_cached():
    def product(i):
        out = ONE
        for j in range(i):
            out = out * (ONE - monomial(1, 0, 2 * j + 1))
        return out

    tqeuler.clear_caches()
    for _ in range(2):  # cold and out of order, then every symbol from the cache
        for i in (7, 2, 12, 0, 5):
            assert odd_pochhammer(i) == product(i)
    # a miss fills every shorter symbol: exactly i = 0 .. 12 were built, each once
    info = odd_pochhammer.cache_info()
    assert (info.currsize, info.misses) == (13, 13)
    assert odd_pochhammer(9) is odd_pochhammer(9)


def test_gauss_binom_small():
    assert gauss_binom(2, 1) == ONE + Q
    assert gauss_binom(4, 2) == LaurentPoly({(0, 0): 1, (0, 1): 1, (0, 2): 2, (0, 3): 1, (0, 4): 1})
    assert gauss_binom(3, 5) == ZERO
    assert gauss_binom(-1, 0) == ZERO
    assert gauss_binom(3, -1) == ZERO


def test_gauss_binom_squared():
    assert gauss_binom(2, 1, squared=True) == ONE + monomial(1, 0, 2)


@pytest.mark.parametrize("n,k", [(2, 1), (7, 3), (7, 4), (9, 0), (12, 6)])
def test_gauss_binom_squared_is_cached(n, k):
    first = gauss_binom(n, k, squared=True)
    assert gauss_binom(n, k, squared=True) is first
    assert first == gauss_binom(n, k).scale_q(2)


def test_q_pascal_and_symmetry():
    for n in range(1, 21):
        for k in range(n + 1):
            assert gauss_binom(n, k) == gauss_binom(n - 1, k - 1) + monomial(1, 0, k) * gauss_binom(
                n - 1, k
            )
            assert gauss_binom(n, k) == gauss_binom(n, n - k)


def test_box_oracle():
    for m in range(7):
        for n in range(7):
            assert box_size_polynomial(m, n) == gauss_binom(m + n, m)


def test_partition_box_binom_degenerate():
    assert partition_box_binom(0, -1) == ONE
    assert partition_box_binom(0, 5) == ONE
    assert partition_box_binom(2, -1) == ZERO
    assert partition_box_binom(2, 3) == gauss_binom(5, 2)


def test_ballot_values():
    assert ballot(1, 0) == 1 and ballot(1, 1) == 1
    assert ballot(2, 1) == 3
    assert ballot(3, 4) == 0
    for n in range(8):
        assert all(ballot(n, k) >= 0 for k in range(n + 1))
        assert sum(ballot(n, k) for k in range(n + 1)) == math.comb(2 * n, n)


@pytest.mark.parametrize("n, k", [(-1, 0), (2, -1), (0, -1), (-1, -1)])
def test_ballot_rejects_negative_arguments(n, k):
    # ballot(2, -1) once returned the formula value -2 instead of raising
    with pytest.raises(ValueError):
        ballot(n, k)


def test_a_k_poly():
    assert a_k_poly(0) == ONE_MINUS_Q
    assert a_k_poly(1) == LaurentPoly({(0, 0): 1, (0, 1): -2, (0, 3): 1})


def test_a_k_inverse_always_divides():
    from tqeuler.formulas import a_k_inverse

    for k in range(9):
        a_k_inverse(k)  # NonDivisibleError would mean a transcription bug
    assert a_k_inverse(0) == ONE
    assert a_k_inverse(1) == LaurentPoly({(0, 0): 1, (0, -1): -1, (0, -2): -1})


def test_square_sum():
    assert square_sum(0) == ONE
    assert square_sum(1) == LaurentPoly({(0, 0): 1, (0, 1): -2})
    assert square_sum(2) == LaurentPoly({(0, 0): 1, (0, 1): -2, (0, 4): 2})
    with pytest.raises(ValueError):
        square_sum(-1)


def test_neg_q_power():
    assert neg_q_power(2) == monomial(1, 0, 2)
    assert neg_q_power(-3) == monomial(-1, 0, -3)


def test_spec_validation():
    with pytest.raises(ValueError, match="sign must be"):
        pochhammer(2, 0, 1)
    with pytest.raises(ValueError, match="length must be"):
        pochhammer(1, 0, -1)
    with pytest.raises(ValueError):
        q_int(-1)
