"""Randomised cross-checks of the stabiliser chain against brute force."""

import math
import random

import pytest
from hypothesis import given, settings

from treescale import perm
from treescale.groupspec import parse_group_spec
from treescale.perm import PermGroup, Permutation, _Chain
from treescale.supernat import is_prime
from treescale.sylow import corpus, sylow_of_symmetric

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


def is_even(g):
    return sum(len(c) - 1 for c in g.cycles()) % 2 == 0


def degree_bound(group):
    """k!, or k!/2 when every generator is even, but never below 1."""
    even = all(map(is_even, group.generators))
    return max(math.factorial(group.degree) // (2 if even else 1), 1)


def full_from(chain, j):
    """Whether the orbit lengths of levels j.. multiply to (k-j)!, or to
    (k-j)!/2 with every generator of level j-1 (of level 0 for j = 0)
    even; recomputed from the orbits and generators."""
    n = math.prod(map(len, chain.orbits[j:]))
    bound = math.factorial(chain.degree - j)
    return n == bound or (2 * n == bound and all(map(is_even, chain.gens[max(j - 1, 0)])))


def record_schreier_generators(monkeypatch):
    """Patch the chain so that every check of a level appends (whether
    levels i+1.. were full, the number of nontrivial Schreier generators
    it formed), and every sift appends whether the whole chain was full."""
    checks, sifts = [], []
    formed = [0]
    schreier_generators = perm._schreier_generators
    verify_level = _Chain._verify_level
    sift_from = _Chain._sift_from

    def counting(trans, gens, inverses, done):
        for sg in schreier_generators(trans, gens, inverses, done):
            formed[0] += 1
            yield sg

    def checking(chain, i):
        full, before = full_from(chain, i + 1), formed[0]
        result = verify_level(chain, i)
        checks.append((full, formed[0] - before))
        return result

    def sifting(chain, start, g):
        sifts.append(full_from(chain, 0))
        return sift_from(chain, start, g)

    monkeypatch.setattr(perm, "_schreier_generators", counting)
    monkeypatch.setattr(_Chain, "_verify_level", checking)
    monkeypatch.setattr(_Chain, "_sift_from", sifting)
    return checks, sifts


@pytest.mark.parametrize("k", range(1, 33))
def test_build_forms_no_schreier_generator_below_a_full_suffix(k, monkeypatch):
    """The orbit lengths of levels i+1.. multiply to at most the order of
    the group they generate, so once they reach (k-i-1)!, or half of it
    with the generators of level i even, those levels hold every Schreier
    generator of level i and none is formed; once the whole chain reaches
    k! (sym:k), or k!/2 with even generators (alt:k), nothing is sifted."""
    for group in (PermGroup.symmetric(k), PermGroup.alternating(k)):
        checks, sifts = record_schreier_generators(monkeypatch)
        chain = _Chain(group.degree, group.generators)
        monkeypatch.undo()
        assert chain.order() == degree_bound(group)
        assert all(n == 0 for full, n in checks if full)
        assert not any(sifts)


@pytest.mark.parametrize("k", range(5, 33))
def test_symmetric_and_alternating_builds_form_few_schreier_generators(k, monkeypatch):
    """sym:k forms at most 2k - 5 nontrivial Schreier generators, and
    alt:k for even k at most 2k - 8."""
    checks, _ = record_schreier_generators(monkeypatch)
    PermGroup.symmetric(k).chain()
    assert sum(n for _, n in checks) <= 2 * k - 5
    if k % 2 == 0:
        checks.clear()
        PermGroup.alternating(k).chain()
        assert sum(n for _, n in checks) <= 2 * k - 8


# Nontrivial Schreier generators formed by a chain build of sym:k and of
# alt:k from their builtin generators, for k = 1..32: 12,161 in all.
FORMED = {
    "sym": (0, 0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27,
            29, 31, 33, 35, 37, 39, 41, 43, 45, 47, 49, 51, 53, 55, 57, 59),
    "alt": (0, 0, 0, 0, 3, 4, 7, 8, 11, 12, 23, 16, 27, 20, 49, 24,
            110, 28, 211, 32, 450, 36, 776, 40, 1149, 44, 1867, 48, 2365, 52, 3793, 56),
}


@pytest.mark.parametrize("k", range(1, 33))
def test_builds_form_the_pinned_number_of_schreier_generators(k, monkeypatch):
    for family, group in (("sym", PermGroup.symmetric(k)), ("alt", PermGroup.alternating(k))):
        checks, _ = record_schreier_generators(monkeypatch)
        _Chain(group.degree, group.generators)
        monkeypatch.undo()
        assert sum(n for _, n in checks) == FORMED[family][k - 1]


def stated_order_groups():
    """The groups whose construction states their order, other than sym:k
    and alt:k: sylow_of_symmetric(k, p) for every prime p <= k, cyclic:k
    and dihedral:k, for k <= 16."""
    return ([sylow_of_symmetric(k, p) for k in range(2, 17) for p in range(2, k + 1)
             if is_prime(p)]
            + [PermGroup.cyclic(k) for k in range(1, 17)]
            + [PermGroup.dihedral(k) for k in range(3, 17)])


def test_a_stated_order_ends_the_build(monkeypatch):
    """``chain()`` passes a stated order to the chain, which stops once its
    orbit lengths multiply to it: 1,426 nontrivial Schreier generators
    formed without the order become 485 with it, while sym:k and alt:k for
    k <= 32 form the same 12,161 either way, since the per-level test
    already ends their builds."""
    checks, _ = record_schreier_generators(monkeypatch)

    def formed(groups, stated):
        checks.clear()
        for g in groups:
            chain = g.chain() if stated else _Chain(g.degree, g.generators)
            assert chain.order() == g.order()
        return sum(n for _, n in checks)

    symmetric_and_alternating = [g for k in range(1, 33) for g in (
        PermGroup.symmetric(k), PermGroup.alternating(k))]
    assert formed(symmetric_and_alternating, True) == 12161
    assert formed(stated_order_groups(), False) == 1426
    assert formed(stated_order_groups(), True) == 485


def test_a_chain_stopped_at_the_stated_order_is_complete():
    """Every orbit of a chain stopped at the stated order is the true one:
    its transversals are valid, it lists exactly the group's elements, and
    (1 2) extends it exactly when it lies outside the group."""
    for g in stated_order_groups():
        if not 2 <= g.degree <= 8:
            continue
        chain = g.chain()
        elements = brute_force_elements(g.degree, g.generators)
        assert_transversals_valid(chain)
        assert set(chain.elements()) == elements
        swap = Permutation.from_cycles(g.degree, [[1, 2]])
        assert chain.add(swap) == (swap.images not in elements)
        assert chain.contains(swap)


def assert_transversals_valid(chain):
    """Level i's transversal maps i+1 to each orbit point and fixes 1..i."""
    for i, trans in enumerate(chain.orbits):
        for q, u in trans.items():
            assert u.images[:i] == tuple(range(1, i + 1)) and u.images[i] == q


@pytest.mark.parametrize("k", range(1, 11))
def test_alternating_chain_stopped_at_the_bound_extends_to_symmetric(k):
    """alt:k's chain stops at k!/2 with pairs left unsifted; it still
    decides membership by parity, and an odd element extends it to a chain
    of sym:k."""
    alt = PermGroup.alternating(k)
    chain = alt.chain()
    assert chain.order() == max(math.factorial(k) // 2, 1)
    rng = random.Random(k)
    for _ in range(20):
        images = list(range(1, alt.degree + 1))
        rng.shuffle(images)
        candidate = Permutation(images)
        assert chain.contains(candidate) == is_even(candidate)
    if k < 2:
        return
    assert chain.add(Permutation.from_cycles(k, [[1, 2]]))
    fresh = PermGroup.symmetric(k).chain()
    assert chain.order() == fresh.order() == math.factorial(k)
    assert [set(level) for level in chain.orbits] == [set(level) for level in fresh.orbits]
    assert_transversals_valid(chain)
    assert not chain.add(Permutation.from_cycles(k, [range(1, k + 1)]))
    if k <= 6:
        assert set(chain.elements()) == brute_force_elements(
            k, PermGroup.symmetric(k).generators)


@pytest.mark.parametrize("spec, order", [
    ("trivial:1", 1), ("sym:1", 1), ("alt:1", 1),
    ("trivial:2", 1), ("sym:2", 2), ("alt:2", 1), ("gens:2:(1 2)", 2)])
def test_degrees_one_and_two(spec, order):
    """On one or two points the bound is 1 for even generators (halving 1!
    must not give 0) and k! otherwise."""
    g = parse_group_spec(spec).group
    chain = _Chain(g.degree, g.generators)
    assert chain.order() == order == degree_bound(g)
    assert_transversals_valid(chain)
    assert not chain.add(Permutation.identity(g.degree))
    if g.degree == 2:
        assert chain.add(Permutation.parse("(1 2)", 2)) == (order == 1)
        assert chain.order() == 2 and chain.contains(Permutation.parse("(1 2)", 2))
