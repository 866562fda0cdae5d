"""Every public route is load-bearing: changing the results of any callable in
the ``__all__`` of ``qkit``, ``combinat``, ``formulas`` or ``cfrac`` fails at
least one ``verify`` cell (see ``mutation_sweep.py``).  ``FROZEN`` holds each
name's failing ids at (3, 3, 2), so that an id which stops depending on a
route, or starts to, shows."""

import tqeuler

from mutation_sweep import sweep

FROZEN = {  # name -> ids of the cells that fail with its results changed
    "q_int": {"alternating-statistic"},
    "pochhammer": {
        "lpath-yaxis", "tk-at-q", "tk-special-mm", "tk-special-mp", "tk-special-pm", "tk-special-pp"
    },
    "odd_pochhammer": {"euler-odd-pochhammer"},
    "gauss_binom": {
        "box-binomial", "dist-box", "euler-josuat-verges", "euler-odd-pochhammer", "gauss-pascal",
        "gauss-symmetry", "lpath-xaxis", "lpath-yaxis", "lprime-xaxis", "lprime-yaxis",
        "tk-at-minus-one", "tk-at-one", "tk-at-q", "tk-closed", "tk-prodinger", "tk-special-mm",
        "tk-special-mp", "tk-special-pm", "tk-special-pp"
    },
    "partition_box_binom": {"lprime-xaxis", "lprime-yaxis"},
    "ballot": {
        "ballot-reduction", "euler-dp-vs-ballot", "euler-josuat-verges", "euler-minus-inv-q",
        "euler-minus-q", "euler-odd-pochhammer", "secant-closed", "tangent-closed",
        "touchard-riordan"
    },
    "a_k_poly": {"tangent-closed", "tangent-original", "tk-at-q"},
    "square_sum": {
        "euler-minus-inv-q", "secant-closed", "secant-original", "tangent-closed",
        "tangent-original", "tk-at-one", "tk-at-q", "tk-minus-inv-q", "tk-special-pp"
    },
    "neg_q_power": {
        "alpha-recurrence", "beta-recurrence", "euler-dp-vs-ballot", "lprime-xaxis", "lprime-yaxis",
        "markpath-transfer", "tk-at-one", "tk-closed", "tk-delta-config", "tk-functional",
        "tk-minus-inv-q", "tk-minus-q", "tk-mpath", "tk-overpartition", "tk-prodinger",
        "tk-special-mm", "tk-special-mp", "tk-special-pm", "tk-special-pp"
    },
    "euler_up": {
        "alternating-statistic", "dn-anchor", "euler-dp-vs-ballot", "euler-dyck-oracle",
        "euler-inv-q", "euler-josuat-verges", "euler-minus-inv-q", "euler-minus-q",
        "euler-odd-pochhammer", "euler-t-minus-one", "euler-t-zero", "markpath-transfer",
        "secant-anchor", "secant-closed", "tangent-anchor", "tangent-closed", "touchard-riordan",
        "zeng-numeric"
    },
    "euler_down": {
        "alternating-statistic", "euler-dp-vs-ballot", "euler-dyck-oracle", "euler-inv-q",
        "euler-josuat-verges", "euler-minus-inv-q", "euler-minus-q", "euler-odd-pochhammer",
        "euler-t-minus-one", "euler-t-zero", "markpath-transfer", "secant-anchor", "secant-closed",
        "tangent-anchor", "tangent-closed", "zeng-numeric"
    },
    "box_size_polynomial": {"box-binomial"},
    "dist_box_polynomial": {"dist-box"},
    "dyck_weight_sum": {"alternating-statistic", "ballot-reduction", "dn-anchor", "euler-dyck-oracle"},
    "md_star_weight_sum": {"ballot-reduction", "markpath-transfer"},
    "md_star_weight_sum_general": {"ballot-reduction", "markpath-transfer"},
    "delta_prime_weight_sum": {"tk-delta-config"},
    "sop_weight_sum": {"tk-overpartition"},
    "m_path_weight_sum": {"tk-mpath"},
    "l_path_weight_sum": {"lpath-xaxis", "lpath-yaxis"},
    "lprime_path_weight_sum": {"lprime-xaxis", "lprime-yaxis"},
    "alt_statistic_polynomial": {"alternating-statistic", "secant-anchor", "tangent-anchor"},
    "tk_recurrence": {
        "alpha-recurrence", "beta-recurrence", "euler-dp-vs-ballot", "markpath-transfer",
        "tk-at-minus-one", "tk-at-one", "tk-closed", "tk-delta-config", "tk-functional",
        "tk-minus-inv-q", "tk-minus-q", "tk-mpath", "tk-overpartition", "tk-prodinger",
        "tk-special-mm", "tk-special-mp", "tk-special-pm", "tk-special-pp"
    },
    "tk_closed": {"tk-closed"},
    "tk_special": {
        "tk-at-minus-one", "tk-at-one", "tk-at-q", "tk-special-mm", "tk-special-mp",
        "tk-special-pm", "tk-special-pp"
    },
    "tk_prodinger": {"tk-prodinger"},
    "tk_at": {
        "alpha-recurrence", "beta-recurrence", "tk-at-minus-one", "tk-at-one", "tk-minus-inv-q",
        "tk-minus-q", "tk-prodinger", "tk-special-mm", "tk-special-mp", "tk-special-pm",
        "tk-special-pp"
    },
    "tk_at_minus_q": {"tk-minus-q"},
    "tk_at_minus_inv_q": {"tk-minus-inv-q"},
    "euler_hat_ballot": {"euler-dp-vs-ballot"},
    "secant_hat_closed": {"secant-closed", "secant-original"},
    "tangent_hat_closed": {"tangent-closed", "tangent-original"},
    "dn_touchard_riordan": {"touchard-riordan"},
    "euler_hat_josuat_verges": {"euler-josuat-verges"},
    "euler_hat_odd_pochhammer": {"euler-odd-pochhammer"},
    "secant_hat_original": {"secant-original"},
    "tangent_hat_original": {"tangent-original"},
    "euler_hat_at_minus_q": {"euler-minus-q"},
    "euler_hat_at_minus_inv_q": {"euler-minus-inv-q"},
    "dist_box_closed": {"dist-box"},
    "a_k_inverse": {"tangent-closed", "tangent-original"},
    "zeng_value": {"zeng-numeric"},
    "zeng_bracket_qint": {"zeng-numeric"},
    "DEFAULT_ZENG_BRACKET": {"zeng-numeric"},
    "euler_hat": {
        "alternating-statistic", "euler-dp-vs-ballot", "euler-dyck-oracle", "euler-inv-q",
        "euler-josuat-verges", "euler-minus-inv-q", "euler-minus-q", "euler-odd-pochhammer",
        "euler-t-minus-one", "secant-anchor", "secant-closed", "tangent-anchor", "tangent-closed",
        "zeng-numeric"
    },
    "dn_hat": {"dn-anchor", "euler-t-minus-one", "euler-t-zero", "touchard-riordan"},
    "en_even_q": {"alternating-statistic", "secant-anchor"},
    "en_odd_q": {"alternating-statistic", "tangent-anchor"},
}


def test_every_route_fails_a_cell():
    failing = sweep(3, 3, 2)
    assert {name for name, ids in failing.items() if not ids} == set()
    assert failing == FROZEN
    # every original is bound again and no changed value stays cached
    assert tqeuler.run_verification(max_n=3, max_k=3, max_b=2).summary["fail"] == 0
