"""Mutation audit of the local battery: each mutant stands in for the
local scale that ``c09``-``c11`` read, and the test pins which of the three
items fail on it.  A mutant that no item catches is a gap in the battery;
README lists those gaps.  The other items do not read the local scale."""

import pytest

from treescale import acceptance
from treescale.bmtree import (AxisData, _local_sylow_family, _word_product,
                              localized_scale, scale)
from treescale.supernat import valuation
from treescale.sylow import sylow_subgroup

LOCAL_ITEMS = ("c09_localised_sandwich", "c10_modular_p_parts", "c11_aggregate_divisibility")


def ambient_p_part(a, p):
    """The p-part of the ambient scale."""
    return p ** valuation(scale(a), p)


def ambient_scale(a, p):
    """The ambient scale itself."""
    return scale(a)


def orbit_size_weights(a, p):
    """F(p)'s orbital table weighted by the orbit sizes |Q_r . m| of the
    local Sylow family Q, in place of the indices |Q_r : Q_r meet Q_m|."""
    f = a.group

    def make():
        family = _local_sylow_family(f, p)
        table = sylow_subgroup(f, p).orbitals()
        return table._replace(sizes=tuple(len({g(m) for g in family[r].elements()})
                                          for r, m in table.labels))
    local = AxisData(sylow_subgroup(f, p), a.twist, a.word)
    return _word_product(local, f._memo(("orbit_size_weights", p), make))


# mutant: (local scale, the failing items with the start of their detail lines)
MUTANTS = {
    "ambient_p_part": (ambient_p_part, {}),
    "ambient_scale": (ambient_scale, {}),
    "orbit_size_weights": (orbit_size_weights, {}),
    "sylow_restriction_suborbits": (localized_scale, {
        "c09_localised_sandwich": "234/694 axes violate it",
        "c11_aggregate_divisibility": "600/600 axes fail",
    }),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_local_items_that_catch_the_mutant(name, monkeypatch):
    mutant, caught = MUTANTS[name]
    monkeypatch.setattr(acceptance, "localisation_scale", mutant)
    results = {item: acceptance.CHECKS[item]() for item in LOCAL_ITEMS}
    assert {item for item, r in results.items() if not r.passed} == set(caught)
    for item, start in caught.items():
        assert results[item].detail.startswith(start), results[item].detail
