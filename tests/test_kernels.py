"""The stabiliser chain's image-tuple kernels: a sift step and the listing
against the per-index comprehensions they replaced, kept here as
references; the listing against a closure that uses no chain; membership
against sympy on degrees up to 32; and every kernel on groups of degree 1
and 2.  A kernel indexes a 0-padded tuple with ``operator.itemgetter``,
and itemgetter of one index returns the bare point, not a 1-tuple, so
degree 1 is answered apart.  ``TestKernel`` in ``test_perm`` checks the
products, inverses and conjugation maps on single permutations.  Last,
the scan that reads the listing one sorted coset at a time, with and
without its skip past the stabiliser, is checked against the sorted
closure, from the chain and from a held element set with no chain, with
``conjugators`` in the same order, and the Sylow growth that uses it
against a growth that scans the whole sorted listing."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from treescale import perm
from treescale.bmtree import AxisData, scale
from treescale.errors import InvalidAxisError
from treescale.groupspec import parse_group_spec
from treescale.perm import (PermGroup, Permutation, _Chain, _InverseImages,
                            _orbit_transversal, is_subgroup, normal_closure)
from treescale.supernat import prime_factors, valuation
from treescale.sylow import _grow_sylow, _power, p_core, sylow_subgroup

from test_perm import (assert_built_as, brute_force_elements, chain_listing,
                       reference_schreier_generators, tuple_conjugate, tuple_inverse, tuple_power,
                       tuple_product)


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
    listing = chain_listing(chain)
    assert listing == comprehension_listing(chain)
    assert len(listing) == chain.order() and set(listing) == members
    # one coset per point of the first level that moves a point, or one in all
    _, count = chain.cosets()
    assert count == next((len(trans) for trans in chain.orbits if len(trans) > 1), 1)
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
    assert chain.order() == len(members) and set(chain_listing(chain)) == members
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


# groups of degree 1 to 8 for the coset scan: trivial ones, groups that fix
# their leading points, and a few whole builtin groups
SCAN_SPECS = ["trivial:1", "sym:1", "sym:2", "trivial:5", "gens:6:(4 5)",
              "gens:8:(6 7 8);(7 8)", "gens:7:(3 4)(5 6);(3 5)(4 6)", "sym:4", "alt:5",
              "dihedral:6", "cyclic:8"]


@st.composite
def scan_specs(draw):
    """A spec from SCAN_SPECS, or one of degree 1 to 8 whose generators
    move at most six points, often not the leading ones."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SCAN_SPECS))
    degree = draw(st.integers(1, 8))
    moved = draw(st.lists(st.integers(1, degree), unique=True, max_size=6))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        images = list(range(1, degree + 1))
        for a, b in zip(moved, draw(st.permutations(moved))):
            images[a - 1] = b
        gens.append(str(Permutation(images)))
    return f"gens:{degree}:" + ";".join(gens)


def fresh(spec):
    """A new group for spec, with no listing, coset or element set yet
    unless its construction gives one."""
    return parse_group_spec(spec).group


def stabiliser_of_least_moved(members):
    """(b, |G_b|) from the element tuples: b the least point some element
    moves, G_b the elements that fix it."""
    b = min(i for xs in members for i, x in enumerate(xs, 1) if x != i)
    return b, sum(xs[b - 1] == b for xs in members)


def images(elements):
    """The image tuples of the permutations, in order."""
    return [x.images for x in elements]


@settings(max_examples=120, deadline=None)
@given(scan_specs(), st.integers(0, 60), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_the_coset_scan_yields_the_listing(spec, stop, i, j):
    g = fresh(spec)
    listing = sorted(brute_force_elements(g.degree, g.generators))
    assert list(itertools.islice(g._scan(), stop)) == listing[:stop]
    assert list(g._scan()) == listing and images(g.elements()) == listing
    # the element set and the elements after a partial scan, and the scan
    # after them
    h = fresh(spec)
    assert list(itertools.islice(h._scan(), stop)) == listing[:stop]
    assert sorted(h.element_set()) == listing and images(h.elements()) == listing
    assert list(h._scan()) == listing
    assert images(fresh(spec).elements()) == listing
    # a copy that holds only the element set lists the same, with no chain
    s = PermGroup._known(g.degree, g.generators, elements=g.element_set())
    assert list(itertools.islice(s._scan(), stop)) == listing[:stop]
    assert list(s._scan()) == listing and images(s.elements()) == listing
    # the x with x H x^-1 = K, H = <a> and K = y H y^-1, in canonical order
    a, y = (Permutation(listing[n % len(listing)]) for n in (i, j))
    hk = PermGroup(g.degree, [a])
    pairs = [(hk, hk.conjugate(y))]
    target = pairs[0][1].element_set()
    witnesses = [xs for xs in listing if tuple_conjugate(a.images, xs) in target]
    for group in (g, s, fresh(spec)):
        assert images(group.conjugators(pairs)) == witnesses
    assert s._chain is None


@settings(max_examples=120, deadline=None)
@given(scan_specs(), st.integers(0, 60))
def test_the_skip_yields_the_listing_after_the_stabiliser(spec, stop):
    members = brute_force_elements(fresh(spec).degree, fresh(spec).generators)
    if len(members) == 1:
        return
    listing = sorted(members)
    b, inner = stabiliser_of_least_moved(members)
    g = fresh(spec)
    assert g._stabiliser() == (b, inner) and listing[inner - 1][b - 1] == b
    assert list(g._scan(True)) == listing[inner:]
    # after a partial scan, after the elements and from a held element set
    h = fresh(spec)
    assert list(itertools.islice(h._scan(), stop)) == listing[:stop]
    assert list(h._scan(True)) == listing[inner:]
    h.elements()
    assert list(h._scan(True)) == listing[inner:]
    e = fresh(spec)
    e.element_set()
    assert list(e._scan(True)) == listing[inner:] and list(e._scan()) == listing
    s = PermGroup._known(e.degree, e.generators, elements=e.element_set())
    assert s._stabiliser() == (b, inner) and list(s._scan(True)) == listing[inner:]
    assert s._chain is None


@pytest.mark.parametrize("spec, p", [("alt:5", 2), ("alt:5", 3), ("dihedral:6", 2),
                                     ("gens:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)", 3),
                                     ("gens:6:(1 2);(1 2 3);(1 4)(2 5)(3 6)", 2)])
def test_a_group_holding_only_its_element_set_scans_with_no_chain(spec, p):
    g = fresh(spec)
    sylow = sylow_subgroup(g, p)
    conjugate = sylow.conjugate(g.elements()[-1])
    for h in (sylow, conjugate):
        assert h._chain is None and h._element_set is not None
        listing = sorted(brute_force_elements(h.degree, h.generators))
        b, inner = stabiliser_of_least_moved(listing)
        assert h._stabiliser() == (b, inner)
        assert list(h._scan(True)) == listing[inner:] and list(h._scan()) == listing
        assert h._chain is None


def test_the_trivial_group_scans_its_identity():
    g = PermGroup(3)
    assert g._stabiliser() == (1, 1)
    assert list(g._scan()) == [(1, 2, 3)] and list(g._scan(True)) == []
    assert g._chain is None


def full_scan_sylow(spec, p, start):
    """Sylow growth from the p-subgroup start that scans the whole sorted
    listing at every step, sorted(chain_listing(chain)), for the first x
    outside H with x^p in H that normalises H.  Returns the image tuples
    of the generators and, per step, the element a scan that skips
    exactly when H fixes b and |H| is the p-part of |G_b| reads first."""
    g = fresh(spec)
    listing = sorted(chain_listing(g.chain()))
    gens = [x.images for x in start.generators]
    members = brute_force_elements(g.degree, start.generators)
    firsts = []
    while len(members) < p ** valuation(len(listing), p):
        b, inner = stabiliser_of_least_moved(listing)
        sylow_in_stabiliser = (all(y[b - 1] == b for y in gens)
                               and len(members) == p ** valuation(inner, p))
        firsts.append(listing[inner if sylow_in_stabiliser else 0])
        gens.append(next(xs for xs in listing if xs not in members
                         and tuple_power(xs, p) in members
                         and all(tuple_conjugate(y, xs) in members for y in gens)))
        members = brute_force_elements(g.degree, map(Permutation, gens))
    return gens, firsts


def grown_with_firsts(spec, p, start):
    """``_grow_sylow`` on a fresh group: its generators' image tuples and
    the first element of each scan it makes."""
    firsts, scan = [], PermGroup._scan

    def recording(self, skip=False):
        it = scan(self, skip)
        first = next(it)
        firsts.append(first)
        return itertools.chain([first], it)
    with mock.patch.object(PermGroup, "_scan", recording):
        grown = _grow_sylow(fresh(spec), p, start)
    return images(grown.generators), firsts


@settings(max_examples=100, deadline=None)
@given(scan_specs(), st.data())
def test_growth_matches_a_scan_of_the_full_listing(spec, data):
    g = fresh(spec)
    degree = g.degree
    for p in prime_factors(g.order()):
        gens, _ = full_scan_sylow(spec, p, PermGroup(degree))
        sylow = sorted(brute_force_elements(degree, map(Permutation, gens)))
        picks = data.draw(st.lists(st.sampled_from(sylow), max_size=2), label=f"start at {p}")
        starts = [PermGroup(degree), PermGroup(degree, map(Permutation, picks))]
        b = min(x.min_moved() for x in g.generators)
        # a Sylow subgroup of G_b, where the first scan skips G_b
        in_stabiliser, _ = full_scan_sylow(
            f"gens:{degree}:" + ";".join(map(str, g.point_stabiliser(b).generators)),
            p, PermGroup(degree))
        starts.append(PermGroup(degree, map(Permutation, in_stabiliser)))
        for start in starts:
            assert grown_with_firsts(spec, p, start) == full_scan_sylow(spec, p, start)


@pytest.mark.parametrize("spec, p, start, skipped", [
    ("alt:7", 7, [], 360),  # 7 does not divide |A6|: none of A6 is read
    ("sym:4", 2, ["(1 2)(3 4)"], 0),  # H moves 1: the witness (3 4) lies in S3
    ("sym:4", 2, ["(3 4)"], 6),  # H is Sylow in S3 = G_1
])
def test_the_growth_skips_the_stabiliser_only_when_h_is_sylow_in_it(spec, p, start, skipped):
    degree = fresh(spec).degree
    start = PermGroup(degree, start)
    gens, firsts = grown_with_firsts(spec, p, start)
    assert (gens, firsts) == full_scan_sylow(spec, p, start)
    assert firsts[0] == sorted(fresh(spec).element_set())[skipped]
