"""Mutation audit of the local battery: each mutant stands in for the
local scale that ``c09``-``c11`` read, and the test pins which of the three
items fail on it.  A mutant that no item catches is a gap in the battery;
README lists those gaps.  The other items do not read the local scale."""

import pytest

from treescale import acceptance
from treescale.bmtree import localized_scale, scale
from treescale.supernat import valuation

LOCAL_ITEMS = ("c09_localised_sandwich", "c10_modular_p_parts", "c11_aggregate_divisibility")


def ambient_p_part(a, p):
    """The p-part of the ambient scale."""
    return p ** valuation(scale(a), p)


# mutant: (local scale, the failing items with the start of their detail lines)
MUTANTS = {
    "ambient_p_part": (ambient_p_part, {}),
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
