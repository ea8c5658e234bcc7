"""The stabiliser chain's image-tuple kernels: a sift step and the listing
against the per-index comprehensions they replaced, kept here as
references; the listing against a closure that uses no chain; membership
against sympy on degrees up to 32; and every kernel on groups of degree 1
and 2.  A kernel indexes a 0-padded tuple with ``operator.itemgetter``,
and itemgetter of one index returns the bare point, not a 1-tuple, so
degree 1 is answered apart.  ``TestKernel`` in ``test_perm`` checks the
products, inverses and conjugation maps on single permutations."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from treescale import perm
from treescale.bmtree import AxisData, scale
from treescale.errors import InvalidAxisError
from treescale.groupspec import parse_group_spec
from treescale.perm import (PermGroup, Permutation, _Chain, _InverseImages,
                            _orbit_transversal, is_subgroup, normal_closure)
from treescale.sylow import _power, p_core, sylow_subgroup

from test_perm import (assert_built_as, brute_force_elements, reference_schreier_generators,
                       tuple_conjugate, tuple_inverse, tuple_power, tuple_product)


def comprehension_sift(chain, h):
    """The residue of h sifted through every level, or None, one
    comprehension per step over the unpadded inverse."""
    identity = tuple(range(1, chain.degree + 1))
    for lvl in range(chain.degree):
        if h == identity:
            return None
        t = h[lvl]
        if t == lvl + 1:
            continue
        if t not in chain.orbits[lvl]:
            return h
        inv = tuple_inverse(chain.orbits[lvl][t].images)
        h = tuple([inv[x - 1] for x in h])
    return None


def comprehension_listing(chain):
    """t_1 ... t_k over the levels' transversals, composed from the deepest
    level up by one comprehension per product, in the listing's order."""
    result = [tuple(range(1, chain.degree + 1))]
    for i in range(chain.degree - 1, -1, -1):
        trans = chain.orbits[i]
        if len(trans) == 1:
            continue
        result = [tuple([t[x - 1] for x in h])
                  for t in [trans[pt].images for pt in sorted(trans)] for h in result]
    return result


@st.composite
def small_groups(draw):
    """A group of degree 1 to 32 whose generators move at most six points,
    so it has at most 720 elements, and image tuples to sift through it."""
    degree = draw(st.integers(1, 32))
    moved = draw(st.lists(st.integers(1, degree), unique=True, max_size=6))
    points = list(range(1, degree + 1))

    def moving():
        images = list(points)
        for a, b in zip(moved, draw(st.permutations(moved))):
            images[a - 1] = b
        return Permutation(images)

    gens = [moving() for _ in range(draw(st.integers(0, 3)))]
    candidates = [moving().images for _ in range(3)]
    candidates += draw(st.lists(st.permutations(points).map(tuple), max_size=3))
    return degree, gens, candidates


@settings(max_examples=150, deadline=None)
@given(small_groups())
def test_chain_kernels_match_their_references(case):
    degree, gens, candidates = case
    gens = PermGroup(degree, gens).generators  # distinct and nontrivial, as a chain takes them
    chain = _Chain(degree, gens)
    members = brute_force_elements(degree, gens)
    listing = chain.elements()
    assert listing == comprehension_listing(chain)
    assert len(listing) == chain.order() and set(listing) == members
    for h in candidates:
        assert chain._sift_from(0, h) == comprehension_sift(chain, h)
        assert chain.contains(Permutation(h)) == (h in members)
    for trans in chain.orbits:
        inverses = _InverseImages(trans)
        assert all(inverses[q] == (0,) + tuple_inverse(trans[q].images) for q in trans)
    for point in range(1, degree + 1):
        trans = _orbit_transversal(degree, point, gens)
        formed = perm._schreier_generators(trans, gens, _InverseImages(trans), {})
        assert ([sg.images for sg in formed]
                == [sg.images for sg in reference_schreier_generators(trans, gens)])


@st.composite
def wide_groups(draw):
    """Up to two random generators of degree 1 to 32, most often of the
    whole symmetric or alternating group, or a group from ``small_groups``;
    and image tuples to test for membership."""
    if draw(st.booleans()):
        degree, gens, candidates = draw(small_groups())
        return degree, [g.images for g in gens], candidates
    degree = draw(st.integers(1, 32))
    perms = st.permutations(list(range(1, degree + 1))).map(tuple)
    return degree, draw(st.lists(perms, max_size=2)), draw(st.lists(perms, max_size=4))


@settings(max_examples=60, deadline=None)
@given(wide_groups())
def test_membership_agrees_with_sympy(case):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    degree, images, candidates = case
    ours = PermGroup(degree, map(Permutation, images))
    theirs = combinatorics.PermutationGroup(
        [combinatorics.Permutation([i - 1 for i in im]) for im in images]
        or [combinatorics.Permutation(list(range(degree)))])
    assert ours.order() == theirs.order()
    if images:
        candidates = candidates + [tuple_product(images[0], images[-1])]
    for h in candidates:
        assert (Permutation(h) in ours) == theirs.contains(
            combinatorics.Permutation([i - 1 for i in h]))


@pytest.mark.parametrize("spec", ["sym:1", "cyclic:1", "trivial:1", "sym:2", "cyclic:2"])
def test_every_kernel_answers_degrees_one_and_two(spec):
    g = parse_group_spec(spec).group
    k = g.degree
    members = brute_force_elements(k, g.generators)
    everything = [Permutation(p) for p in itertools.permutations(range(1, k + 1))]
    for x in everything:
        assert (x in g) == (x.images in members)
        assert_built_as(x.inverse(), tuple_inverse(x.images))
        assert perm._times(x.images)(x.images) == tuple_power(x.images, 2)
        assert _power(x.images, 3) == tuple_power(x.images, 3)
        for y in everything:
            assert_built_as(x * y, tuple_product(x.images, y.images))
            assert perm._conjugator(x.images)(y.images) == tuple_conjugate(y.images, x.images)
        conjugate = g.conjugate(x)
        assert conjugate.element_set() == {tuple_conjugate(y, x.images) for y in members}
        closure = normal_closure(PermGroup.symmetric(k), [x])
        assert closure.order() == {(1,): 1, (1, 2): 1, (2, 1): 2}[x.images]
    chain = _Chain(k, g.generators)
    assert chain.order() == len(members) and set(chain.elements()) == members
    assert [x.images for x in g.elements()] == sorted(members)
    for p in (2, 3):
        sylow = sylow_subgroup(g, p)
        assert is_subgroup(sylow, g) and sylow.order() == (2 if len(members) == p else 1)
        assert p_core(g, p).element_set() == sylow.element_set()
    identity = Permutation.identity(k)
    if k == 1:
        with pytest.raises(InvalidAxisError):
            AxisData(g, identity, (1,))
    else:
        assert scale(AxisData(g, identity, (1, 2))) == 1
