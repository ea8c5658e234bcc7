"""Randomised cross-checks of the stabiliser chain against brute force."""

import random

import pytest
from hypothesis import given, settings

from treescale.perm import PermGroup, Permutation, _Chain
from treescale.sylow import corpus

from test_bmtree import small_groups
from test_perm import brute_force_elements


def random_generator_sets(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(2, 7)
        n_gens = rng.randint(1, 3)
        gens = []
        for _ in range(n_gens):
            images = list(range(1, degree + 1))
            rng.shuffle(images)
            gens.append(Permutation(images))
        yield degree, gens


def test_chain_order_matches_brute_force_on_random_groups():
    for degree, gens in random_generator_sets(seed=101, count=60):
        g = PermGroup(degree, gens)
        assert g.order() == len(brute_force_elements(degree, gens))


def test_membership_agrees_with_enumeration():
    rng = random.Random(7)
    for name, g in corpus():
        elems = g.element_set()
        for _ in range(30):
            images = list(range(1, g.degree + 1))
            rng.shuffle(images)
            candidate = Permutation(images)
            assert (candidate in g) == (candidate.images in elems), name


def test_element_count_equals_order_on_random_groups():
    for degree, gens in random_generator_sets(seed=55, count=25):
        g = PermGroup(degree, gens)
        elems = g.elements()
        assert len(elems) == g.order()
        assert len(set(elems)) == len(elems)


def test_point_stabiliser_on_random_groups():
    rng = random.Random(13)
    for degree, gens in random_generator_sets(seed=77, count=25):
        g = PermGroup(degree, gens)
        i = rng.randint(1, degree)
        stab = g.point_stabiliser(i)
        direct = [x for x in g.elements() if x(i) == i]
        assert stab.order() == len(direct)
        assert all(x in stab for x in direct)


def assert_listed_in_canonical_order(g):
    """elements() is every element of g once, strictly increasing by image
    tuple, and equal to the closure of the generators."""
    images = [x.images for x in g.elements()]
    assert all(a < b for a, b in zip(images, images[1:]))
    assert len(images) == g.order()
    assert set(images) == brute_force_elements(g.degree, g.generators)


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_corpus_elements_in_canonical_order(name):
    assert_listed_in_canonical_order(dict(corpus())[name])


@settings(max_examples=100, deadline=None)
@given(small_groups())
def test_random_group_elements_in_canonical_order(g):
    assert_listed_in_canonical_order(g)


def assert_extension_matches_fresh(degree, gens, rng):
    """A chain of the first generator extended by the others through
    ``_Chain.add`` has the order, basic orbits, membership and elements of
    a chain built afresh on all of them; add reports an element as new
    exactly when the ones before it do not generate it."""
    gens = PermGroup(degree, gens).generators
    extended = PermGroup(degree, gens[:1]).chain()
    for i, g in enumerate(gens[1:], 1):
        assert extended.add(g) == (g not in PermGroup(degree, gens[:i]))
        assert not extended.add(g)
    fresh = _Chain(degree, gens)
    assert extended.order() == fresh.order()
    assert [set(level) for level in extended.orbits] == [set(level) for level in fresh.orbits]
    assert sorted(extended.elements()) == sorted(fresh.elements())
    assert set(extended.elements()) == brute_force_elements(degree, gens)
    for _ in range(20):
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        candidate = Permutation(images)
        assert extended.contains(candidate) == fresh.contains(candidate)


def test_extended_chain_matches_fresh_chain_on_random_groups():
    rng = random.Random(29)
    for degree, gens in random_generator_sets(seed=31, count=40):
        assert_extension_matches_fresh(degree, gens, rng)


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_extended_chain_matches_fresh_chain_on_corpus(name):
    g = dict(corpus())[name]
    assert_extension_matches_fresh(g.degree, g.generators[::-1], random.Random(3))


@settings(max_examples=100, deadline=None)
@given(small_groups())
def test_extended_chain_matches_fresh_chain_on_intransitive_groups(g):
    assert_extension_matches_fresh(g.degree, g.generators, random.Random(5))
