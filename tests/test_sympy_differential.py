"""Differential checks of the group engine against sympy.combinatorics, an
implementation that shares no code with it: permutation products, inverses,
orders, cycles and conjugates; group orders, orbits, point stabilisers,
solubility, nilpotency, Sylow orders, derived-series lengths,
lower-central-series orders, and the normality of p-cores and the Fitting
subgroup; stabiliser-chain orders, bases and membership on structured
generator sets, and the orders and elements of chains extended in place,
chains of groups whose lower levels generate a whole symmetric or
alternating group before the levels above them are complete,
normal-closure orders, the orders that builtin groups start with,
membership in the Sylow subgroups grown over the built-in corpus, and
solubility and nilpotency read from the order against the full series.
Every chain built or extended here with a ceiling must end at an order no
larger than it.  Skipped when sympy is absent."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from treescale import perm
from treescale.groupspec import parse_group_spec
from treescale.perm import (PermGroup, Permutation, is_subgroup, nilpotent_residual,
                            normal_closure)
from treescale.supernat import prime_factors
from treescale.sylow import corpus, fitting, p_core, sylow_subgroup

from test_chain_properties import assert_transversals_valid, is_even
from test_perm import (NAMED_ORDERS, ORDER_DECIDES, ORDER_LEAVES_OPEN, brute_force_elements,
                       chain_base, chain_listing, commutator_subgroup, lower_central_series,
                       orbit)

combinatorics = pytest.importorskip("sympy.combinatorics")


@pytest.fixture(autouse=True, scope="module")
def ceilings_are_upper_bounds():
    """Every ``_Chain`` built or extended with a ceiling ends at an order no
    larger than it, so a ceiling that is not a true upper bound fails the
    test that set it."""
    def guarded(method, at):
        def call(chain, *args):
            result = method(chain, *args)
            ceiling = args[at] if len(args) > at else None
            if ceiling and chain.order() > ceiling:
                raise AssertionError(f"chain of order {chain.order()} passed its ceiling {ceiling}")
            return result
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perm._Chain, "__init__", guarded(perm._Chain.__init__, 2))
        patch.setattr(perm._Chain, "add", guarded(perm._Chain.add, 1))
        yield


def test_a_false_ceiling_is_caught():
    s3 = [Permutation.parse("(1 2 3)", 3), Permutation.parse("(1 2)", 3)]
    with pytest.raises(AssertionError, match="passed its ceiling 2"):
        perm._Chain(3, s3, 2)
    chain = perm._Chain(3, s3[:1], 3)
    with pytest.raises(AssertionError, match="passed its ceiling 4"):
        chain.add(s3[1], 4)


@st.composite
def permutation_pairs(draw):
    degree = draw(st.integers(1, 12))
    points = list(range(1, degree + 1))
    return Permutation(draw(st.permutations(points))), Permutation(draw(st.permutations(points)))


def sympy_permutation(p):
    return combinatorics.Permutation([i - 1 for i in p.images])


def images_of(s):
    return tuple(i + 1 for i in s.array_form)


@given(permutation_pairs())
def test_kernel_agrees_with_sympy(pair):
    p, q = pair
    sp, sq = sympy_permutation(p), sympy_permutation(q)
    # sympy's a*b applies a first, so p * q here is sympy's Q*P
    assert (p * q).images == images_of(sq * sp)
    assert p.inverse().images == images_of(~sp)
    assert p.order() == sp.order()
    assert p.cycles() == [tuple(i + 1 for i in c) for c in sp.cyclic_form]
    # sympy's P^Q is Q^-1 P Q applied left to right, that is q p q^-1 here
    assert perm._conjugator(q.images)(p.images) == images_of(sp ^ sq)


@st.composite
def gens_specs(draw):
    """A random ``gens:`` group of degree at most 7 and its generator images."""
    degree = draw(st.integers(1, 7))
    images = draw(st.lists(st.permutations(list(range(1, degree + 1))), max_size=3))
    cycles = ";".join(str(Permutation(im)) for im in images)
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
        assert orbit(ours, point) == {q + 1 for q in theirs.orbit(point - 1)}
        assert ours.point_stabiliser(point).order() == theirs.stabilizer(point - 1).order()
    assert ours.is_soluble() == theirs.is_solvable
    assert ours.is_nilpotent() == theirs.is_nilpotent


@st.composite
def structured_generators(draw):
    """Generator sets that random shuffles rarely give, each of degree at
    most 8: [a, a*b] with b(1) = 1, two generators of the top level with the
    same image of 1; generators fixing 1..m, so the top m levels are
    trivial; one generator moving only the last few points, alone on its
    level, next to up to two random ones.  The "even" family, of degree at
    most 12, has only even generators, so its chains stop at k!/2 when they
    generate Alt(k)."""
    family = draw(st.sampled_from(["pair", "fixing", "deep", "even"]))
    degree = draw(st.integers(2, 12 if family == "even" else 8))
    points = list(range(1, degree + 1))

    def moving(moved):
        """A random permutation of the points ``moved`` fixing the rest."""
        images = list(points)
        for x, y in zip(moved, draw(st.permutations(moved))):
            images[x - 1] = y
        return Permutation(images)

    if family == "pair":
        a = moving(points)
        gens = [a, a * moving(points[1:])]
    elif family == "fixing":
        m = draw(st.integers(1, degree - 1))
        gens = [moving(points[m:]) for _ in range(draw(st.integers(1, 3)))]
    elif family == "deep":
        deep = moving(points[-draw(st.integers(2, degree)):])
        gens = [deep] + [moving(points) for _ in range(draw(st.integers(0, 2)))]
    else:
        transposition = Permutation.from_cycles(degree, [[1, 2]])
        gens = [g if is_even(g) else g * transposition
                for g in (moving(points) for _ in range(draw(st.integers(1, 3))))]
    return degree, gens


def sympy_base(group, degree):
    """The points i whose orbit under the pointwise stabiliser of 1..i-1 is
    longer than one, the base our chains report."""
    base = []
    for i in range(degree):
        stabiliser = group.pointwise_stabilizer(list(range(i))) if i else group
        if len(stabiliser.orbit(i)) > 1:
            base.append(i + 1)
    return base


@settings(max_examples=150, deadline=None)
@given(structured_generators(), st.randoms(use_true_random=False))
def test_chain_agrees_with_sympy_on_structured_generators(case, rng):
    degree, gens = case
    ours = PermGroup(degree, gens)
    theirs = sympy_group(degree, [g.images for g in gens])
    assert ours.order() == theirs.order()
    assert chain_base(ours) == sympy_base(theirs, degree)
    for _ in range(10):
        member = Permutation.identity(degree)
        for _ in range(rng.randint(1, 8)):
            member = rng.choice(gens) * member
        assert member in ours and theirs.contains(sympy_permutation(member))
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        other = Permutation(images)
        assert (other in ours) == theirs.contains(sympy_permutation(other))


def assert_chain_agrees(chain, theirs, degree, rng):
    """Same order, and the same elements up to degree 8; above it the same
    membership of random permutations."""
    assert chain.order() == theirs.order()
    if degree <= 8:
        assert set(chain_listing(chain)) == {images_of(x) for x in theirs.generate()}
        return
    for _ in range(10):
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        other = Permutation(images)
        assert chain.contains(other) == theirs.contains(sympy_permutation(other))


@settings(max_examples=100, deadline=None)
@given(structured_generators(), st.randoms(use_true_random=False))
def test_extended_chain_agrees_with_sympy(case, rng):
    """A chain extended by the generators, then by an odd element: for
    the "even" family that extends a chain stopped at k!/2."""
    degree, gens = case
    chain = PermGroup(degree, gens[-1:]).chain()
    for g in gens:
        chain.add(g)
    assert_chain_agrees(chain, sympy_group(degree, [g.images for g in gens]), degree, rng)
    odd = Permutation.from_cycles(degree, [[1, 2]])
    chain.add(odd)
    assert_chain_agrees(chain, sympy_group(degree, [g.images for g in gens + [odd]]),
                        degree, rng)


def symmetric_on(degree, points):
    """Generators of the symmetric group on points: a transposition and,
    on three points or more, the cycle through all of them."""
    gens = [Permutation.from_cycles(degree, [points[:2]])]
    if len(points) > 2:
        gens.append(Permutation.from_cycles(degree, [points]))
    return gens


def alternating_on(degree, points):
    """Generators of the alternating group on at least three points, as
    PermGroup.alternating gives them: a 3-cycle and a cycle of odd length."""
    return [Permutation.from_cycles(degree, [points[:3]]),
            Permutation.from_cycles(degree, [points[1 - len(points) % 2:]])]


def fixes_blocks(blocks):
    return lambda x: all({x[p - 1] for p in block} == set(block) for block in blocks)


def permutes_blocks(blocks):
    sets = {frozenset(block) for block in blocks}
    return lambda x: {frozenset(x[p - 1] for p in block) for block in blocks} == sets


def full_suffix_case(family, k):
    """A group of degree k whose chain has levels that generate the whole
    symmetric or alternating group on the points after them while the
    levels above are incomplete: its generators, an element that add
    extends their chain by (or None), and the membership test of the
    resulting group on image tuples."""
    points = list(range(1, k + 1))
    odd = None
    if family == "sym-fixing-1":
        gens, member = symmetric_on(k, points[1:]), fixes_blocks([[1]])
    elif family == "sym-times-sym":
        blocks = [points[:k // 3 + 1], points[k // 3 + 1:]]
        gens = symmetric_on(k, blocks[0]) + symmetric_on(k, blocks[1])
        member = fixes_blocks(blocks)
    elif family == "sym-odd-times-sym-even":
        blocks = [points[::2], points[1::2]]
        gens = symmetric_on(k, blocks[0]) + symmetric_on(k, blocks[1])
        member = fixes_blocks(blocks)
    elif family == "wreath":
        blocks = [points[:k // 2], points[k // 2:]]
        swap = Permutation.from_cycles(k, list(zip(*blocks)))
        gens, member = symmetric_on(k, blocks[0]) + [swap], permutes_blocks(blocks)
    elif family == "alt-fixing-1-and-transposition":
        gens = alternating_on(k, points[1:]) + [Permutation.from_cycles(k, [[1, 2]])]
        member = lambda x: True
    elif family == "alt-fixing-1-and-double-transposition":
        gens = alternating_on(k, points[1:]) + [Permutation.from_cycles(k, [[1, 2], [3, 4]])]
        member = lambda x: is_even(Permutation._of(x))
    else:
        gens, member = PermGroup.alternating(k).generators, lambda x: True
        odd = Permutation.from_cycles(k, {"alt-add-odd-moving-1": [[1, 2, 3, 4]],
                                          "alt-add-odd-from-3": [[3, 4]],
                                          "alt-add-odd-last": [[k - 1, k]]}[family])
    return gens, odd, member


FULL_SUFFIX_FAMILIES = {
    "sym-fixing-1": range(3, 13), "sym-times-sym": range(4, 13),
    "sym-odd-times-sym-even": range(4, 13), "wreath": range(4, 13, 2),
    "alt-fixing-1-and-transposition": range(4, 13),
    "alt-fixing-1-and-double-transposition": range(4, 13),
    "alt-add-odd-moving-1": range(4, 13), "alt-add-odd-from-3": range(4, 13),
    "alt-add-odd-last": range(4, 13)}


@pytest.mark.parametrize("family, k", [(family, k) for family, degrees
                                       in FULL_SUFFIX_FAMILIES.items() for k in degrees])
def test_chain_with_a_full_suffix_agrees_with_sympy(family, k):
    """Levels below a suffix that reaches (k-j)!, or (k-j)!/2 with even
    generators above it, are passed over; the chain keeps sympy's order,
    valid transversals and the membership of the group, and for k <= 7
    its elements."""
    gens, odd, member = full_suffix_case(family, k)
    chain = PermGroup(k, gens).chain()
    if odd is not None:
        assert chain.add(odd)
        gens = list(gens) + [odd]
    theirs = sympy_group(k, [g.images for g in gens])
    assert chain.order() == theirs.order()
    assert_transversals_valid(chain)
    if k <= 7:
        assert set(chain_listing(chain)) == brute_force_elements(k, gens)
    rng = random.Random(k)
    for _ in range(20):
        product = Permutation.identity(k)
        for _ in range(rng.randint(1, 8)):
            product = rng.choice(gens) * product
        images = list(range(1, k + 1))
        rng.shuffle(images)
        for x in (product, Permutation(images)):
            expected = theirs.contains(sympy_permutation(x))
            assert chain.contains(x) == member(x.images) == expected


@settings(max_examples=60, deadline=None)
@given(gens_specs(), st.integers(0, 5039))
def test_normal_closure_agrees_with_sympy(case, index):
    spec, degree, images = case
    ours = parse_group_spec(spec).group
    seed = ours.elements()[index % ours.order()]
    theirs = sympy_group(degree, images)
    expected = theirs.normal_closure(sympy_permutation(seed)).order()
    assert normal_closure(ours, [seed]).order() == expected


@settings(max_examples=60, deadline=None)
@given(gens_specs(), st.integers(0, 5039))
def test_commutator_subgroup_agrees_with_sympy(case, index):
    # H is cyclic and need not be normal, so [G, H] need not lie in H
    spec, degree, images = case
    ours = parse_group_spec(spec).group
    h = PermGroup(degree, [ours.elements()[index % ours.order()]])
    theirs = sympy_group(degree, images)
    expected = theirs.commutator(theirs, sympy_subgroup(h)).order()
    assert commutator_subgroup(ours, h).order() == expected


def derived_length(group):
    """Number of terms of the derived series G, G', G'', ... up to and
    including its first repeated order, the convention of sympy's
    ``derived_series``."""
    terms = [group]
    while True:
        nxt = commutator_subgroup(terms[-1], terms[-1])
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


@settings(max_examples=60, deadline=None)
@given(gens_specs())
def test_commutator_series_agree_with_sympy(case):
    # sympy's lower_central_series also stops before the first repeated term
    spec, degree, images = case
    ours = parse_group_spec(spec).group
    theirs = sympy_group(degree, images)
    their_series = theirs.lower_central_series()
    assert ([term.order() for term in lower_central_series(ours)]
            == [term.order() for term in their_series])
    assert nilpotent_residual(ours).order() == their_series[-1].order()
    assert ours.is_soluble() == theirs.is_solvable


def sympy_subgroup(group):
    return sympy_group(group.degree, [x.images for x in group.generators])


@pytest.mark.parametrize("build", [PermGroup.symmetric, PermGroup.alternating,
                                   PermGroup.dihedral])
@pytest.mark.parametrize("k", [5, 8])
def test_stated_builtin_orders_agree_with_sympy(build, k):
    g = build(k)
    assert g.order() == sympy_subgroup(g).order()


@settings(max_examples=40, deadline=None)
@given(gens_specs())
def test_cores_are_normal_according_to_sympy(case):
    spec, degree, images = case
    ours = parse_group_spec(spec).group
    theirs = sympy_group(degree, images)
    assert sympy_subgroup(fitting(ours)).is_normal(theirs)
    for p in prime_factors(ours.order()):
        core = sympy_subgroup(p_core(ours, p))
        assert core.is_normal(theirs)
        assert core.is_subgroup(theirs.sylow_subgroup(p))


@pytest.mark.parametrize("name, group", corpus())
def test_grown_sylow_membership_agrees_with_sympy(name, group):
    # a grown Sylow subgroup answers from its element set, not from a chain
    for p in prime_factors(group.order()):
        sylow = sylow_subgroup(group, p)
        theirs = sympy_subgroup(sylow)
        for x in group.elements():
            assert (x in sylow) == theirs.contains(sympy_permutation(x))


def uncertified_soluble(group):
    """Whether the derived series, each term from the reference
    ``commutator_subgroup`` and no order read as proof, reaches 1."""
    while group.order() > 1:
        nxt = commutator_subgroup(group, group)
        if nxt.order() == group.order():
            return False
        group = nxt
    return True


def assert_certified_as_the_series(group):
    """is_soluble and is_nilpotent, which stop where the order decides,
    answer as the full series and as sympy."""
    theirs = sympy_subgroup(group)
    soluble, nilpotent = group.is_soluble(), group.is_nilpotent()
    fresh = PermGroup(group.degree, group.generators)
    assert soluble == uncertified_soluble(fresh) == theirs.is_solvable
    assert nilpotent == (lower_central_series(fresh)[-1].order() == 1) == theirs.is_nilpotent


@pytest.mark.parametrize("name, group", corpus())
def test_corpus_certificates_agree_with_the_series(name, group):
    assert_certified_as_the_series(group)


@pytest.mark.parametrize("name", sorted(ORDER_DECIDES) + sorted(ORDER_LEAVES_OPEN))
def test_named_certificates_agree_with_the_series(name):
    degree, gens = {**ORDER_DECIDES, **ORDER_LEAVES_OPEN}[name]
    group = PermGroup(degree, gens)
    assert group.order() == NAMED_ORDERS[name]
    assert_certified_as_the_series(group)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(
    st.permutations(list(range(1, d + 1))), max_size=3).map(
        lambda images, d=d: PermGroup(d, [Permutation(im) for im in images]))))
def test_random_certificates_agree_with_the_series(group):
    assert_certified_as_the_series(group)
