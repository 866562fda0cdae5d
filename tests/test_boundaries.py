"""Every public function of ``qkit`` and ``combinat`` at the edges of its range.

``TABLE`` has one row per name in ``qkit.__all__`` and ``combinat.__all__``
apart from the two error classes: the call at size s, its definition from
``reference``, the enumeration cutoff (None in ``qkit``, which has none) and
the error documented for a negative size (None where the call is defined
there, which for an oracle means the family is empty and the value ZERO).
Each row runs at -1 and 0, and with a cutoff also at the cutoff and one past
it.  The marked-path and arrow sums at their cutoff 6 are read from the
frozen outputs in ``tests/data``, which ``make_fixtures.py`` writes from the
same reference enumerators.
"""

import json
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from tqeuler import combinat, qkit
from tqeuler.combinat import (
    CutoffExceededError,
    alt_statistic_polynomial,
    box_size_polynomial,
    delta_prime_weight_sum,
    dist_box_polynomial,
    dyck_weight_sum,
    enum_alternating,
    l_path_weight_sum,
    lprime_path_weight_sum,
    m_path_weight_sum,
    md_star_weight_sum,
    md_star_weight_sum_general,
    sop_weight_sum,
)
from tqeuler.exactalg import ONE, T, LaurentPoly, ZERO
from tqeuler.qkit import (
    QSymbolSpec,
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
    alternating_reference,
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
ERROR_CLASSES = {"CutoffExceededError", "InvalidEndpointError"}


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
    "QSymbolSpec": Row(lambda s: pochhammer(QSymbolSpec(1, 0, s)),
                       lambda s: pochhammer_product(1, 0, s), None, ValueError),
    "q_int": Row(q_int, q_int_reference, None, ValueError),
    "pochhammer": Row(lambda s: pochhammer(QSymbolSpec(-1, -1, s)),
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
    "enum_alternating": Row(enum_alternating, alternating_reference, 9, None),
    "alt_statistic_polynomial": Row(alt_statistic_polynomial, alt_statistic_reference, 9, None),
}

CASES = [
    pytest.param(name, s, id=f"{name}[{s}]")
    for name, row in TABLE.items()
    for s in (-1, 0) + (() if row.cutoff is None else (row.cutoff, row.cutoff + 1))
]


def test_table_covers_every_public_name():
    assert set(TABLE) == (set(qkit.__all__) | set(combinat.__all__)) - ERROR_CLASSES


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
