"""The paper map of ``paper_map.py`` against the registry: every id it names
exists, every registry id is mapped to one result or listed as auxiliary,
mutating the route that states a result fails one of that result's ids, and
each result has an id that checks an exact polynomial equality."""

import pytest

from tqeuler.exactalg import LaurentPoly
from tqeuler.registry import REGISTRY, Bounds, identity_ids

from paper_map import AUXILIARY, RESULTS
from test_mutation_sweep import FROZEN

MAPPED = [i for result in RESULTS.values() for i in result.ids]


def test_every_mapped_id_exists():
    assert set(MAPPED) | set(AUXILIARY) <= set(identity_ids())


def test_every_registry_id_is_mapped_once_or_auxiliary():
    assert sorted(MAPPED + list(AUXILIARY)) == sorted(identity_ids())


@pytest.mark.parametrize("name", RESULTS)
def test_mutating_the_defining_route_fails_an_id_of_the_result(name):
    result = RESULTS[name]
    assert FROZEN[result.route] & set(result.ids)


@pytest.mark.parametrize("name", [
    pytest.param("enumeration", marks=pytest.mark.xfail(
        strict=True, reason="zeng-numeric compares rational values at sample points; "
                            "the exact cleared identity is ROADMAP item 2")),
    "combinatorial",
    "special",
])
def test_each_result_has_an_exact_polynomial_id(name, monkeypatch):
    # an id checks an exact polynomial equality when its cells compare two LaurentPoly values
    compared = []
    eq = LaurentPoly.__eq__

    def counting_eq(self, other):
        compared.append(isinstance(other, LaurentPoly))
        return eq(self, other)

    monkeypatch.setattr(LaurentPoly, "__eq__", counting_eq)
    exact = []
    for identity in REGISTRY:
        if identity.id in RESULTS[name].ids:
            compared.clear()
            for params in identity.grid(Bounds(2, 2, 1)):
                assert identity.check(params) == ("pass", None)
            if any(compared):
                exact.append(identity.id)
    assert exact
