"""Rewrite the frozen oracle outputs in ``tests/data`` from the reference enumerators.

Run from the root of a checkout::

    PYTHONPATH=src python tests/make_fixtures.py

``delta_prime_weight_sum.json`` maps k = 0..6 to the ``[e_t, e_q, c]`` terms
of the sum of ``DeltaConfig.weight`` over ``enum_delta_prime(k)``.
``md_star_weight_sum.json`` maps each rule pair of ``MD_STAR_RULES`` to the
same table for the sum of ``MarkedDyckPath.weight`` over ``enum_md_star(k)``.
Terms are sorted by exponents.  The whole run takes about half a minute.
"""

from __future__ import annotations

import json
from pathlib import Path

from tqeuler.exactalg import ZERO

from reference import MD_STAR_RULES, enum_delta_prime, enum_md_star

DATA = Path(__file__).parent / "data"
MAX_K = 6


def _table(sums: dict[str, object], indent: str) -> str:
    rows = [
        f"{indent}{json.dumps(key)}: "
        + json.dumps(sorted([et, eq, c] for (et, eq), c in poly.terms.items()))
        for key, poly in sums.items()
    ]
    return "{\n" + ",\n".join(rows) + "\n" + indent[2:] + "}"


def _sum(objects, weight) -> object:
    total = ZERO
    for obj in objects:
        total = total + weight(obj)
    return total


def main() -> None:
    delta = {
        str(k): _sum(enum_delta_prime(k), lambda cfg: cfg.weight()) for k in range(MAX_K + 1)
    }
    (DATA / "delta_prime_weight_sum.json").write_text(_table(delta, "  ") + "\n", encoding="utf-8")

    groups = []
    for name, (up, down) in MD_STAR_RULES.items():
        paths = {
            str(k): _sum(enum_md_star(k), lambda p: p.weight(up, down)) for k in range(MAX_K + 1)
        }
        groups.append(f"  {json.dumps(name)}: {_table(paths, '    ')}")
    (DATA / "md_star_weight_sum.json").write_text(
        "{\n" + ",\n".join(groups) + "\n}\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
