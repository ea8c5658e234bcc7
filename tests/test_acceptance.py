"""Acceptance battery: one test per criterion, printing one pass/fail line
each.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines,
or ``treescale verify --suite all`` for the CLI equivalent.

Each item's report must also equal its entry in ``data/verify_all.json``,
the output of ``treescale verify --suite all --json`` kept from before the
last change to the battery's code paths: the report is byte-identical
across refactors unless a change means it to move.
"""

import json
from pathlib import Path

import pytest

from treescale.acceptance import CHECKS, SUITES

GOLDEN = {item["name"]: item for item in json.loads(
    (Path(__file__).parent / "data" / "verify_all.json").read_text())}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_criterion(name):
    result = CHECKS[name]()
    print(result.line())
    assert {"name": result.name, "passed": result.passed, "law": result.law,
            "detail": result.detail} == GOLDEN[name]
    assert result.passed, result.line()


def test_every_criterion_is_registered():
    assert len(CHECKS) == 13
    assert sorted(CHECKS) == [f"c{i:02d}_{suffix}" for i, suffix in enumerate([
        "two_transitive_spectrum", "at_most_p_colours",
        "two_block_even_exponents", "many_blocks_skip_one",
        "mixed_blocks_full", "symmetric_p_part_lattice",
        "coprime_yet_locally_scaled", "oracle_agreement",
        "localised_sandwich", "modular_p_parts", "aggregate_divisibility",
        "sylow_hall_battery", "spectrum_exponent_inclusion"], start=1)]


def test_suites_and_their_members():
    assert SUITES == {
        "all": sorted(CHECKS),
        "spectrum": ["c01_two_transitive_spectrum", "c02_at_most_p_colours",
                     "c03_two_block_even_exponents", "c04_many_blocks_skip_one",
                     "c05_mixed_blocks_full", "c06_symmetric_p_part_lattice",
                     "c07_coprime_yet_locally_scaled"],
        "oracle": ["c08_oracle_agreement", "c09_localised_sandwich", "c10_modular_p_parts"],
        "aggregate": ["c11_aggregate_divisibility"],
        "sylow": ["c12_sylow_hall_battery"],
        "inclusion": ["c13_spectrum_exponent_inclusion"],
    }
    assert list(SUITES) == ["all", "spectrum", "oracle", "aggregate", "sylow", "inclusion"]
    assert all(CHECKS[name].__name__ == name for name in CHECKS)
