"""Every public route is load-bearing: changing the results of any callable in
the ``__all__`` of ``qkit``, ``combinat``, ``formulas`` or ``cfrac`` fails at
least one ``verify`` cell, apart from the three names of ``UNCHECKED`` (see
``mutation_sweep.py``), each of which fails none."""

import tqeuler

from mutation_sweep import UNCHECKED, sweep


def test_every_route_but_the_allow_list_fails_a_cell():
    counts = sweep(3, 3, 2)
    assert {name for name, fails in counts.items() if not fails} == set(UNCHECKED)
    # every original is bound again and no changed value stays cached
    assert tqeuler.run_verification(max_n=3, max_k=3, max_b=2).summary["fail"] == 0
