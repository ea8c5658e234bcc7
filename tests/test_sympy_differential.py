"""Differential checks of the group engine against sympy.combinatorics, an
implementation that shares no code with it: orders, orbits, point
stabilisers, solubility, nilpotency, Sylow orders and derived-series
lengths.  Skipped when sympy is absent."""

import pytest
from hypothesis import given, settings, strategies as st

from treescale.groupspec import parse_group_spec
from treescale.perm import Permutation, derived_subgroup, is_subgroup
from treescale.supernat import prime_factors
from treescale.sylow import sylow_subgroup

combinatorics = pytest.importorskip("sympy.combinatorics")


@st.composite
def gens_specs(draw):
    """A random ``gens:`` group of degree at most 7 and its generator images."""
    degree = draw(st.integers(1, 7))
    images = draw(st.lists(st.permutations(list(range(1, degree + 1))), max_size=3))
    cycles = ";".join(Permutation(im).cycle_string() for im in images)
    return f"gens:{degree}:{cycles}", degree, images


def sympy_group(degree, images):
    perms = [combinatorics.Permutation([i - 1 for i in im]) for im in images]
    return combinatorics.PermutationGroup(
        perms or [combinatorics.Permutation(list(range(degree)))])


@settings(max_examples=60, deadline=None)
@given(gens_specs())
def test_engine_agrees_with_sympy(case):
    spec, degree, images = case
    ours = parse_group_spec(spec).group
    theirs = sympy_group(degree, images)
    assert ours.order() == theirs.order()
    for point in range(1, degree + 1):
        assert ours.orbit(point) == {q + 1 for q in theirs.orbit(point - 1)}
        assert ours.point_stabiliser(point).order() == theirs.stabilizer(point - 1).order()
    assert ours.is_soluble() == theirs.is_solvable
    assert ours.is_nilpotent() == theirs.is_nilpotent


def derived_length(group):
    """Number of terms of the derived series G, G', G'', ... up to and
    including its first repeated order, the convention of sympy's
    ``derived_series``."""
    terms = [group]
    while True:
        nxt = derived_subgroup(terms[-1])
        if nxt.order() == terms[-1].order():
            return len(terms)
        terms.append(nxt)


@settings(max_examples=40, deadline=None)
@given(gens_specs())
def test_sylow_and_derived_series_agree_with_sympy(case):
    spec, degree, images = case
    ours = parse_group_spec(spec).group
    theirs = sympy_group(degree, images)
    for p in prime_factors(ours.order()):
        sylow = sylow_subgroup(ours, p)
        assert is_subgroup(sylow, ours)
        assert sylow.order() == theirs.sylow_subgroup(p).order()
    assert derived_length(ours) == len(theirs.derived_series())
