"""Every public function of ``qkit``, ``combinat``, ``cfrac``, ``formulas``
and ``exactalg`` at the edges of its range.

``TABLE`` has one row per name in the first four ``__all__`` lists apart
from the two error classes of ``combinat`` and the data constant
``DEFAULT_ZENG_BRACKET`` of ``formulas`` (it is ``zeng_bracket_qint`` under its
adopted name), and one row per callable of ``exactalg.__all__`` apart from
its two error classes, where ``LaurentPoly`` has one row per method that
takes a size, named ``LaurentPoly.<method>``, and ``pochhammer`` and
``tk_special`` have a second row each, ``pochhammer.unit-base`` (base
``q**0``) and ``tk_special.b`` (the size is the power b of ``t = q**b``).  A
row holds the call at size s, its definition (from ``reference``, or the
documented base value where -1 raises), the enumeration cutoff (None outside
``combinat``) and the error documented for a negative size (None where the
call is defined there, which for an oracle means the family is empty and the
value ZERO).  A call whose
range starts at 1 is made at s + 1, so -1 is again just below its range:
the factor of ``scale_q``, the sign of ``substitute_t`` and the power of a
``divide_exact`` binomial.  Each row runs at -1 and 0, and with a cutoff
also at the cutoff and one past it.  The marked-path and arrow sums at their cutoff 6
are read from the frozen outputs in ``tests/data``, which
``make_fixtures.py`` writes from the same reference enumerators.

A non-integer size raises ``TypeError`` before any range convention applies,
whatever its sign: every size, and every +-1 sign, goes through
``operator.index`` first (``exactalg._size`` and ``exactalg._sign``).  A
negative size has two conventions here, and both stay.  The box oracles
``box_size_polynomial(-1, 2)`` and ``dist_box_polynomial`` raise
``ValueError``: a box with -1 rows is no object to enumerate.
``partition_box_binom(-1, 2)`` and ``gauss_binom`` give ``ZERO``: the
q-series sums truncate on it.  A family with no member of size -1, as of
``m_path_weight_sum``, sums to ``ZERO``, and the two lattice-path oracles
raise ``ValueError`` for a negative coordinate.  The table records each as
it is.
"""

import json
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import tqeuler
from tqeuler import cfrac, combinat, exactalg, formulas, qkit
from tqeuler.cfrac import dn_hat, en_even_q, en_odd_q, euler_hat
from tqeuler.combinat import (
    CutoffExceededError,
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
)
from tqeuler.exactalg import ONE, ONE_MINUS_Q, Q, T, LaurentPoly, ZERO, const, monomial
from tqeuler.formulas import (
    a_k_inverse,
    dist_box_closed,
    dn_touchard_riordan,
    euler_hat_at_minus_inv_q,
    euler_hat_at_minus_q,
    euler_hat_ballot,
    euler_hat_josuat_verges,
    euler_hat_odd_pochhammer,
    secant_hat_closed,
    secant_hat_original,
    tangent_hat_closed,
    tangent_hat_original,
    tk_at,
    tk_at_minus_inv_q,
    tk_at_minus_q,
    tk_closed,
    tk_prodinger,
    tk_recurrence,
    tk_special,
    zeng_bracket_qint,
    zeng_value,
)
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

from reference import (
    MD_STAR_RULES,
    a_k_reference,
    alt_statistic_reference,
    ballot_paths,
    box_size_reference,
    dist_box_reference,
    dyck_path_weight,
    dyck_paths,
    enum_delta_prime,
    enum_md_star,
    gauss_binom_reference,
    l_path_reference,
    lprime_path_reference,
    m_path_reference,
    odd_pochhammer_reference,
    pochhammer_product,
    q_int_reference,
    q_power,
    sop_reference,
    square_sum_reference,
)

DATA = Path(__file__).parent / "data"
ERROR_CLASSES = {"CutoffExceededError", "InvalidEndpointError", "NonDivisibleError", "ZeroDenominatorError"}
DATA_CONSTANTS = {"DEFAULT_ZENG_BRACKET"}


def _frozen(name: str, group: str | None = None) -> dict[int, LaurentPoly]:
    table = json.loads((DATA / name).read_text(encoding="utf-8"))
    if group is not None:
        table = table[group]
    return {int(k): LaurentPoly({(et, eq): c for et, eq, c in terms}) for k, terms in table.items()}


def _frozen_or_enumerated(frozen: dict[int, LaurentPoly], objects, weight) -> Callable[[int], LaurentPoly]:
    """The frozen sum where one was written, else the sum over ``objects(k)``."""
    return lambda k: frozen[k] if k in frozen else sum(map(weight, objects(k)), ZERO)


class Row(NamedTuple):
    call: Callable[[int], object]
    reference: Callable[[int], object]
    cutoff: int | None
    negative: type[Exception] | None


UV = MD_STAR_RULES["u-v"]
QE = MD_STAR_RULES["q-int-euler-down"]

TABLE = {
    # qkit
    "pochhammer.unit-base": Row(lambda s: pochhammer(1, 0, s),
                                lambda s: pochhammer_product(1, 0, s), None, ValueError),
    "q_int": Row(q_int, q_int_reference, None, ValueError),
    "pochhammer": Row(lambda s: pochhammer(-1, -1, s),
                      lambda s: pochhammer_product(-1, -1, s), None, ValueError),
    "odd_pochhammer": Row(odd_pochhammer, odd_pochhammer_reference, None, ValueError),
    "gauss_binom": Row(lambda s: gauss_binom(s, 0), lambda s: gauss_binom_reference(s, 0), None, None),
    "partition_box_binom": Row(lambda s: partition_box_binom(s, 2),
                               lambda s: box_size_reference(s, 2), None, None),
    "ballot": Row(lambda s: ballot(s, s), lambda s: ballot_paths(s, s), None, ValueError),
    "a_k_poly": Row(a_k_poly, a_k_reference, None, ValueError),
    "square_sum": Row(square_sum, square_sum_reference, None, ValueError),
    "neg_q_power": Row(neg_q_power, lambda e: (-1) ** (e % 2) * q_power(e), None, None),
    "euler_up": Row(euler_up, lambda h: ONE - q_power(h), None, None),
    "euler_down": Row(euler_down, lambda h: ONE - T * q_power(h), None, None),
    # combinat
    "box_size_polynomial": Row(lambda s: box_size_polynomial(s, 2),
                               lambda s: box_size_reference(s, 2), 8, ValueError),
    "dist_box_polynomial": Row(lambda s: dist_box_polynomial(s, 2),
                               lambda s: dist_box_reference(s, 2), 8, ValueError),
    "dyck_weight_sum": Row(
        lambda s: dyck_weight_sum(s, *UV),
        lambda s: sum((dyck_path_weight(p, *UV) for p in dyck_paths(s)), ZERO), 8, None),
    "md_star_weight_sum": Row(
        md_star_weight_sum,
        _frozen_or_enumerated(_frozen("md_star_weight_sum.json", "u-v"), enum_md_star,
                              lambda p: p.weight(*UV)), 6, None),
    "md_star_weight_sum_general": Row(
        lambda s: md_star_weight_sum_general(s, *QE),
        _frozen_or_enumerated(_frozen("md_star_weight_sum.json", "q-int-euler-down"), enum_md_star,
                              lambda p: p.weight(*QE)), 6, None),
    "delta_prime_weight_sum": Row(
        delta_prime_weight_sum,
        _frozen_or_enumerated(_frozen("delta_prime_weight_sum.json"), enum_delta_prime,
                              lambda cfg: cfg.weight()), 6, None),
    "sop_weight_sum": Row(sop_weight_sum, sop_reference, 6, None),
    "m_path_weight_sum": Row(m_path_weight_sum, m_path_reference, 7, None),
    "l_path_weight_sum": Row(lambda s: l_path_weight_sum(s, 2, 1, 0, -1),
                             lambda s: l_path_reference(s, 2, 1, 0, -1), 6, ValueError),
    "lprime_path_weight_sum": Row(lambda s: lprime_path_weight_sum(s, 2, 1, 0, 1),
                                  lambda s: lprime_path_reference(s, 2, 1, 0, 1), 6, ValueError),
    "alt_statistic_polynomial": Row(alt_statistic_polynomial, alt_statistic_reference, 9, None),
    # cfrac: a moment of order 0 is the empty path's 1, and order -1 has none
    "euler_hat": Row(euler_hat, lambda s: ONE, None, ValueError),
    "dn_hat": Row(dn_hat, lambda s: ONE, None, ValueError),
    "en_even_q": Row(en_even_q, lambda s: ONE, None, ValueError),
    "en_odd_q": Row(en_odd_q, lambda s: ONE, None, ValueError),
    # formulas: T_0 = 1, each normalized Euler route is 1 at n = 0 (the unshifted tangent
    # form carries one more factor 1 - q)
    "tk_special.b": Row(lambda s: tk_special(1, s, 1), lambda b: ONE - Q - q_power(b + 1), None, None),
    "tk_recurrence": Row(tk_recurrence, lambda s: ONE, None, ValueError),
    "tk_closed": Row(tk_closed, lambda s: ONE, None, ValueError),
    "tk_special": Row(lambda s: tk_special(-1, 2, s), lambda s: ONE, None, ValueError),
    "tk_prodinger": Row(lambda s: tk_prodinger(1, s), lambda s: ONE, None, ValueError),
    "tk_at": Row(lambda s: tk_at(-1, -2, s), lambda s: ONE, None, ValueError),
    "tk_at_minus_q": Row(tk_at_minus_q, lambda s: ONE, None, ValueError),
    "tk_at_minus_inv_q": Row(tk_at_minus_inv_q, lambda s: ONE, None, ValueError),
    "euler_hat_ballot": Row(euler_hat_ballot, lambda s: ONE, None, ValueError),
    "secant_hat_closed": Row(secant_hat_closed, lambda s: ONE, None, ValueError),
    "tangent_hat_closed": Row(tangent_hat_closed, lambda s: ONE, None, ValueError),
    "dn_touchard_riordan": Row(dn_touchard_riordan, lambda s: ONE, None, ValueError),
    "euler_hat_josuat_verges": Row(euler_hat_josuat_verges, lambda s: ONE, None, ValueError),
    "euler_hat_odd_pochhammer": Row(euler_hat_odd_pochhammer, lambda s: ONE, None, ValueError),
    "secant_hat_original": Row(secant_hat_original, lambda s: ONE, None, ValueError),
    "tangent_hat_original": Row(tangent_hat_original, lambda s: ONE_MINUS_Q, None, ValueError),
    "euler_hat_at_minus_q": Row(euler_hat_at_minus_q, lambda s: ONE, None, ValueError),
    "euler_hat_at_minus_inv_q": Row(euler_hat_at_minus_inv_q, lambda s: ONE, None, ValueError),
    "dist_box_closed": Row(lambda s: dist_box_closed(s, 2), lambda s: ONE, None, ValueError),
    "a_k_inverse": Row(a_k_inverse, lambda s: ONE, None, ValueError),
    "zeng_value": Row(lambda s: zeng_value(s, 2, Fraction(1, 2)), lambda s: 1, None, ValueError),
    "zeng_bracket_qint": Row(lambda m: zeng_bracket_qint(m, Fraction(2), Fraction(1, 2)),
                             lambda m: (1 - 2 * Fraction(1, 2) ** m) / (1 - Fraction(1, 2)), None, None),
    # exactalg: a Laurent exponent may be negative, a power, a q-scale factor and a
    # t-sign may not, and the power of a divisor's binomial 1 - sign*q**j may not be below 1
    "monomial": Row(lambda s: monomial(1, 0, s), q_power, None, None),
    "const": Row(const, lambda c: ONE * c, None, None),
    "LaurentPoly.__pow__": Row(lambda s: ONE_MINUS_Q**s, lambda s: ONE, None, ValueError),
    "LaurentPoly.scale_q": Row(lambda s: ONE_MINUS_Q.scale_q(s + 1), lambda s: ONE - q_power(s + 1),
                               None, ValueError),
    "LaurentPoly.substitute_t": Row(lambda s: (ONE + T).substitute_t(s + 1, 2), lambda s: ONE + q_power(2),
                                    None, ValueError),
    "LaurentPoly.shift_t_by_q": Row(lambda s: (ONE + T).shift_t_by_q(s), lambda s: ONE + T * q_power(s),
                                    None, None),
    "LaurentPoly.divide_exact": Row(lambda s: ONE_MINUS_Q.divide_exact(1, [s + 1]), lambda s: ONE,
                                    None, ValueError),
}

CASES = [
    pytest.param(name, s, id=f"{name}[{s}]")
    for name, row in TABLE.items()
    for s in (-1, 0) + (() if row.cutoff is None else (row.cutoff, row.cutoff + 1))
]


def test_table_covers_every_public_name():
    public = {*qkit.__all__, *combinat.__all__, *cfrac.__all__, *formulas.__all__,
              *(name for name in exactalg.__all__ if callable(getattr(exactalg, name)))}
    assert {name.partition(".")[0] for name in TABLE} == public - ERROR_CLASSES - DATA_CONSTANTS


@pytest.mark.parametrize("name, s", CASES)
def test_boundary(name, s):
    row = TABLE[name]
    if row.cutoff is not None and s > row.cutoff:
        with pytest.raises(CutoffExceededError):
            row.call(s)
    elif s < 0 and row.negative is not None:
        with pytest.raises(row.negative):
            row.call(s)
    else:
        assert row.call(s) == row.reference(s)


@pytest.mark.parametrize("call", [
    lambda: gauss_binom(2.5, 1),
    lambda: gauss_binom(3, 1.0),
    lambda: (gauss_binom(4, 2, squared=True), gauss_binom(4.0, 2, squared=True)),
    lambda: tk_special(1, 1.5, 1),
    lambda: tk_prodinger(1.5, 2),
    lambda: monomial(1, 0, 1.5),
    lambda: const(1.5),
    lambda: ONE_MINUS_Q**2.0,
    lambda: ONE_MINUS_Q.scale_q(2.0),
    lambda: (ONE + T).substitute_t(1, 1.5),
    lambda: (ONE + T).shift_t_by_q(1.5),
    lambda: ONE_MINUS_Q.divide_exact(1, [1.0]),
    # each of these used to return its base-case value, and to raise only at 1.0
    lambda: partition_box_binom(0.0, 3),
    lambda: partition_box_binom(-1.5, 2),
    lambda: partition_box_binom(0, 2.5),
    lambda: a_k_poly(0.0),
    lambda: a_k_inverse(0.0),
    lambda: tk_special(1, 2, 0.0),
    lambda: alt_statistic_polynomial(0.0),
    lambda: sop_weight_sum(-1.0),
    lambda: delta_prime_weight_sum(-1.0),
    # this one used to return 1, from the loop that counts the exponent down
    lambda: ONE_MINUS_Q**0.0,
    # each of these used to raise CutoffExceededError, as the cutoff was compared before index
    lambda: box_size_polynomial(9.5, 2),
    lambda: delta_prime_weight_sum(7.5),
    lambda: dyck_weight_sum(9.0, *UV),
], ids=["gauss_binom-n", "gauss_binom-k", "gauss_binom-warm-cache", "tk_special-b", "tk_prodinger-b",
        "monomial", "const", "LaurentPoly.__pow__", "LaurentPoly.scale_q", "LaurentPoly.substitute_t",
        "LaurentPoly.shift_t_by_q", "LaurentPoly.divide_exact", "partition_box_binom-empty-rows",
        "partition_box_binom-negative-rows", "partition_box_binom-cols", "a_k_poly", "a_k_inverse",
        "tk_special-k", "alt_statistic_polynomial", "sop_weight_sum", "delta_prime_weight_sum",
        "LaurentPoly.__pow__-zero", "box_size_polynomial-past-cutoff", "delta_prime_weight_sum-past-cutoff",
        "dyck_weight_sum-past-cutoff"])
def test_non_integer_size_raises_type_error(call):
    # a float size used to recurse in qkit._gauss until RecursionError
    with pytest.raises(TypeError):
        call()


NOT_SIZES = {  # rows whose argument is an exponent, a rational point's bracket index or a sign
    "monomial", "const", "neg_q_power", "euler_up", "euler_down", "LaurentPoly.shift_t_by_q",
    "zeng_bracket_qint", "LaurentPoly.substitute_t",
}


@pytest.mark.parametrize("name", [name for name in TABLE if name not in NOT_SIZES])
@pytest.mark.parametrize("s", [-1.0, 0.0, 1.5])
def test_non_integer_size_raises_type_error_at_either_sign(name, s):
    # a negative float size used to raise ValueError from a range check made before operator.index
    with pytest.raises(TypeError):
        TABLE[name].call(s)


@pytest.mark.parametrize("call", [
    lambda eps: pochhammer(eps, 0, 2),
    lambda eps: tk_special(eps, 2, 2),
    lambda eps: (ONE + T).substitute_t(eps, 2),
    lambda eps: l_path_weight_sum(2, 2, 1, 0, eps),
    lambda eps: lprime_path_weight_sum(2, 2, 1, 0, eps),
    lambda eps: tk_at(eps, 2, 2),
], ids=["pochhammer", "tk_special", "LaurentPoly.substitute_t", "l_path_weight_sum",
        "lprime_path_weight_sum", "tk_at"])
@pytest.mark.parametrize("eps", [1, -1])
def test_non_integer_sign_raises_type_error_cold_and_warm(call, eps):
    # +-1.0 used to pass every sign check but pochhammer's, and reached tk_at's memo
    tqeuler.clear_caches()
    with pytest.raises(TypeError):
        call(float(eps))
    call(eps)
    with pytest.raises(TypeError):
        call(float(eps))


@pytest.mark.parametrize("sign, powers, error", [
    (1, [-1], ValueError),
    (1, [1, 0], ValueError),
    (1.0, [1], TypeError),
    (0, [1], ValueError),
    (2, [1], ValueError),
], ids=["power-minus-one", "second-power-zero", "float-sign", "sign-zero", "sign-two"])
@pytest.mark.parametrize("dividend", [ONE_MINUS_Q, ZERO], ids=["1-q", "zero"])
def test_divide_exact_checks_its_binomials(dividend, sign, powers, error):
    # every factor is 1 - sign * q**j with sign +-1 and j >= 1, checked before any row is
    # divided; the row above checks power 0 and a float power
    with pytest.raises(error):
        dividend.divide_exact(sign, powers)


@pytest.mark.parametrize("call", [
    lambda s: pochhammer(1, 0, s),
    lambda s: pochhammer(1, s, 2),
    odd_pochhammer,
    lambda s: gauss_binom(s, 1),
    tk_recurrence,
    lambda s: tk_at(1, 0, s),
    lambda s: tk_at(1, s, 2),
    lambda s: tk_special(1, 2, s),
    lambda s: tk_special(1, s, 2),
    euler_hat,
    dn_hat,
    square_sum,
], ids=["pochhammer", "pochhammer-power", "odd_pochhammer", "gauss_binom", "tk_recurrence", "tk_at-k",
        "tk_at-b", "tk_special-k", "tk_special-b", "euler_hat", "dn_hat", "square_sum"])
@pytest.mark.parametrize("size", [2.0, 2.5])
def test_non_integer_size_raises_type_error_cold_and_warm(call, size):
    # a memo keyed by an equal tuple must not turn 2.0 into the value at 2
    tqeuler.clear_caches()
    with pytest.raises(TypeError):
        call(size)
    call(2)
    with pytest.raises(TypeError):
        call(size)
