"""Differential checks of the group engine against sympy.combinatorics, an
implementation that shares no code with it.  Skipped when sympy is absent."""

import pytest
from hypothesis import given, settings, strategies as st

from treescale.groupspec import parse_group_spec
from treescale.perm import Permutation

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
