"""Sylow/Hall machinery tests against brute-force subgroup oracles."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from treescale import bmtree, perm, sylow
from treescale.acceptance import normal_subgroups
from treescale.errors import PreconditionError
from treescale.groupspec import parse_group_spec
from treescale.perm import (PermGroup, Permutation, is_subgroup, meet_index,
                            nilpotent_residual, normal_closure)
from treescale.supernat import prime_factors, valuation
from treescale.sylow import (SylowBasis, _grow_sylow, are_permutable,
                             basis_normaliser, core_commensurability_check,
                             corpus, fitting, is_normal_in, p_core,
                             p_part_of_order, pi_core, sylow_basis,
                             sylow_of_symmetric, sylow_subgroup,
                             verify_hall_covering)

from test_perm import (brute_force_elements, chain_builds, commutator_subgroup,
                       lower_central_series, normaliser, orbit, same_subgroup, tuple_power)

V4 = PermGroup(4, ["(1 2)(3 4)", "(1 3)(2 4)"])
GROUPS = dict(corpus(), sym5=PermGroup.symmetric(5), alt5=PermGroup.alternating(5),
              sylow2sym8=sylow_of_symmetric(8, 2))


def all_subgroups(g):
    """Every subgroup of a small group, as element sets: close the cyclic
    subgroups under pairwise join."""
    elems = g.elements()
    identity = Permutation.identity(g.degree)

    def closure(seed):
        items = set(seed) | {identity}
        frontier = list(items)
        while frontier:
            x = frontier.pop()
            for y in list(items):
                for z in (x * y, y * x):
                    if z not in items:
                        items.add(z)
                        frontier.append(z)
        return frozenset(items)

    cyclics = {closure(frozenset({x})) for x in elems}
    subs = set(cyclics) | {frozenset({identity})}
    frontier = list(subs)
    while frontier:
        a = frontier.pop()
        for c in cyclics:
            j = closure(a | c)
            if j not in subs:
                subs.add(j)
                frontier.append(j)
    return subs


class TestNormalSubgroupOracle:
    @pytest.mark.parametrize("name", [name for name, _ in corpus()])
    def test_matches_the_normal_members_of_all_subgroups(self, name):
        g = GROUPS[name]
        normals = normal_subgroups(g)
        assert len(normals) == len(set(normals))
        assert set(normals) == {sub for sub in all_subgroups(g) if all(
            x * s * x.inverse() in sub for x in g.generators for s in sub)}


class TestSylowSubgroup:
    def test_sym4_two(self):
        assert sylow_subgroup(PermGroup.symmetric(4), 2).order() == 8

    def test_prime_not_dividing(self):
        assert sylow_subgroup(PermGroup.symmetric(4), 5).order() == 1

    def test_alt4_is_klein(self):
        p = sylow_subgroup(PermGroup.alternating(4), 2)
        assert p.element_set() == V4.element_set()

    def test_orders_across_corpus(self):
        for _, g in corpus():
            for p in (2, 3, 5, 7):
                assert sylow_subgroup(g, p).order() == p_part_of_order(g, p)

    def test_deterministic(self):
        a = sylow_subgroup(PermGroup.symmetric(4), 2)
        b = sylow_subgroup(PermGroup.symmetric(4), 2)
        assert a.generators == b.generators

    def test_conjugates_are_reachable(self):
        g = PermGroup.symmetric(4)
        p = sylow_subgroup(g, 3)
        other = p.conjugate(Permutation.parse("(1 4)", 4))
        assert next(g.conjugators([(p, other)]), None) is not None

    def test_grows_from_a_start_subgroup(self):
        g = PermGroup.symmetric(5)
        for p, start in ((2, PermGroup(5, ["(1 2)(3 4)"])), (2, PermGroup(5, ["(4 5)"])),
                         (3, PermGroup(5, ["(1 2 3)"])), (5, PermGroup(5))):
            s = _grow_sylow(g, p, start)
            assert s.order() == p_part_of_order(g, p)
            assert all(x in s for x in start.generators)

    def test_start_must_be_a_p_subgroup(self, monkeypatch):
        # _grow_sylow does not check its start: every start the local Sylow
        # family grows from, P_r for P = F(p), is a p-subgroup of F_r
        starts = []

        def recording(g, p, start):
            starts.append((g, p, start))
            return _grow_sylow(g, p, start)

        monkeypatch.setattr(bmtree, "_grow_sylow", recording)
        for spec, p in (("sym:4", 2), ("sym:4", 3), ("sym:5", 2), ("alt:5", 2),
                        ("dihedral:6", 2), ("sylow:2:sym:8", 2),
                        ("gens:8:(1 2);(1 3 5 7)(2 4 6 8)", 2)):
            del starts[:]
            bmtree._local_sylow_family(parse_group_spec(spec).group, p)
            assert starts
            for g, q, start in starts:
                assert q == p and is_subgroup(start, g)
                assert start.order() == p_part_of_order(start, p)

    def test_generic_algorithm_refuses_huge_groups(self):
        with pytest.raises(PreconditionError, match="enumeration bound"):
            sylow_subgroup(PermGroup.alternating(15), 2)

    @pytest.mark.parametrize("k", [9, 15, 16])
    def test_symmetric_groups_take_the_block_subgroup(self, k):
        g = PermGroup.symmetric(k)
        for p in prime_factors(math.factorial(k)):
            s = sylow_subgroup(g, p)
            assert s.generators == sylow_of_symmetric(k, p).generators
            assert s.order() == p ** valuation(math.factorial(k), p)

    def test_cores_of_a_symmetric_group_above_the_bound(self):
        g = PermGroup.symmetric(15)
        for p in prime_factors(g.order()):
            assert p_core(g, p).order() == 1
        assert fitting(g).order() == 1

    def test_p_core_refuses_a_block_subgroup_above_the_bound(self):
        # the block Sylow 2-subgroup of Sym(20) has 2^18 > ENUMERATION_BOUND elements
        with pytest.raises(PreconditionError, match="enumeration bound"):
            p_core(PermGroup.symmetric(20), 2)


def reference_sylow(g, p, start=None):
    """The growth loop that builds each normaliser and scans its element
    list; ``sylow_subgroup`` must pick the same witnesses."""
    current = PermGroup(g.degree) if start is None else start
    while current.order() < p_part_of_order(g, p):
        cur_set = current.element_set()
        grown = next(x for x in normaliser(g, current).elements()
                     if x.images not in cur_set and x.order() == p ** valuation(x.order(), p)
                     and tuple_power(x.images, p) in cur_set)
        current = PermGroup(g.degree, list(current.generators) + [grown])
    return current


def intersect(h, k):
    """H meet K as a group, by enumerating the smaller factor."""
    if h.degree != k.degree:
        raise PreconditionError("degree mismatch")
    small, big = (h, k) if h.order() <= k.order() else (k, h)
    return PermGroup._spanned(h.degree, frozenset(x.images for x in small.elements() if x in big))


def reference_p_core(g, p):
    """Intersect the Sylow subgroup with its conjugates by the generators,
    as groups, until stable; ``p_core`` must give the same generators."""
    core = sylow_subgroup(g, p)
    while True:
        stable = True
        for x in g.generators:
            meet = intersect(core, core.conjugate(x))
            if meet.order() < core.order():
                core, stable = meet, False
        if stable:
            return core


def p_subgroup_of(g, p, index):
    """The cyclic group of the p-part of the index-th element of g."""
    x = g.elements()[index % g.order()]
    o = x.order()
    return PermGroup(g.degree, [Permutation(tuple_power(x.images, o // p ** valuation(o, p)))])


small_groups = st.integers(1, 6).flatmap(lambda d: st.lists(
    st.permutations(list(range(1, d + 1))).map(Permutation), max_size=3).map(
        lambda gens, d=d: PermGroup(d, gens)))


def assert_pinned(g, index):
    for p in prime_factors(g.order()):
        chosen = sylow_subgroup(g, p)
        if g.order() == math.factorial(g.degree):
            assert chosen.generators == sylow_of_symmetric(g.degree, p).generators
        elif g.order() == p_part_of_order(g, p):
            assert chosen is g
        else:
            assert chosen.generators == reference_sylow(g, p).generators
        start = p_subgroup_of(g, p, index)
        assert _grow_sylow(g, p, start).generators == reference_sylow(g, p, start).generators
        assert p_core(g, p).generators == reference_p_core(g, p).generators


class TestPinnedToNormaliserScan:
    @pytest.mark.parametrize("name", [name for name, _ in corpus()])
    def test_corpus(self, name):
        g = GROUPS[name]
        for index in range(0, g.order(), 5):
            assert_pinned(g, index)

    @settings(max_examples=40, deadline=None)
    @given(small_groups, st.integers(0, 719))
    def test_random_groups(self, g, index):
        assert_pinned(g, index)


def assert_filled_in_as_built(g, s):
    """The growth fills in s's element set and order without a chain, and
    they are the image tuples and order of the group its generators
    generate."""
    assert s._chain is None
    built = PermGroup(g.degree, s.generators)
    assert s.element_set() == frozenset(x.images for x in built.elements())
    assert s.order() == built.order()


class TestGrowthOnElementSets:
    @pytest.mark.parametrize("name", [name for name, _ in corpus()])
    def test_corpus(self, name):
        g = dict(corpus())[name]
        for p in (2, 3, 5, 7):
            # full symmetric groups and p-groups take no growth step
            if g.order() not in (math.factorial(g.degree), p_part_of_order(g, p)):
                assert_filled_in_as_built(g, sylow_subgroup(g, p))
            for index in range(0, g.order(), 5):
                start = p_subgroup_of(g, p, index)
                assert_filled_in_as_built(g, _grow_sylow(g, p, start))

    @pytest.mark.parametrize("k, p", [(8, 2), (9, 3)])
    def test_p_groups(self, k, p):
        g = sylow_of_symmetric(k, p)
        assert sylow_subgroup(g, p) is g

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_p_core_element_set(self, name):
        g = GROUPS[name]
        for p in prime_factors(g.order()):
            core = p_core(g, p)
            built = PermGroup(g.degree, core.generators)
            assert core.element_set() == frozenset(x.images for x in built.elements())

    def test_no_chain_per_p_step(self, monkeypatch):
        g = PermGroup.alternating(8)
        built = chain_builds(monkeypatch)
        s = sylow_subgroup(g, 2)
        assert s.order() == 2 ** valuation(math.factorial(8) // 2, 2)
        # g's chain and the trivial start group's; none per p-step
        assert len(built) <= 2


def rebuilt_spanning_generators(degree, elements):
    """The greedy generating set, with a new group built for every element
    taken; ``PermGroup._spanned`` must take the same elements."""
    gens = []
    group = PermGroup(degree)
    for x in elements:
        if x not in group:
            gens.append(x)
            group = PermGroup(degree, gens)
    return gens


def rebuilt_normal_closure(g, seeds):
    """The normal closure, with a new group built for every conjugate
    taken; ``normal_closure`` must take the same conjugates."""
    closure = PermGroup(g.degree, seeds)
    gens = list(closure.generators)
    for x in gens:
        for c in g.generators:
            y = c * x * c.inverse()
            if y not in closure:
                gens.append(y)
                closure = PermGroup(g.degree, gens)
    return closure


def reference_pi_core(g, pi):
    """The closure of every element not yet in the core, none skipped, and
    a new group built for every element taken; ``pi_core`` must give the
    same generators."""
    members = []
    core = PermGroup(g.degree)
    for x in g.elements():
        if x.is_identity() or x in core:
            continue
        if set(prime_factors(rebuilt_normal_closure(g, [x]).order())) <= set(pi):
            members.append(x)
            core = PermGroup(g.degree, rebuilt_spanning_generators(g.degree, members))
    return core


def assert_closures_pinned(g):
    """normal_closure, the commutator closures of both series and
    PermGroup._spanned, which extend one chain and stop at a ceiling, take
    the generators that rebuilding a group per element taken takes."""
    elements = g.elements()
    for x in elements[::max(1, len(elements) // 10)]:
        assert normal_closure(g, [x]).generators == rebuilt_normal_closure(g, [x]).generators
    comms = [a.inverse() * b.inverse() * a * b for a in g.generators for b in g.generators]
    assert normal_closure(g, comms).generators == rebuilt_normal_closure(g, comms).generators
    # the series steps: [G, G], and [G, H] for each later lower central
    # term H, whose closure stops at |H|
    for h in lower_central_series(g):
        seeds = perm._commutators(g, h)
        assert (perm._closure(g, seeds, h.order()).generators
                == rebuilt_normal_closure(g, seeds).generators)
    sets = [g.element_set()] + [s(g, p).element_set() for p in prime_factors(g.order())
                                for s in (sylow_subgroup, p_core)]
    for members in sets:
        spanned = PermGroup._spanned(g.degree, members)
        assert spanned.generators == tuple(rebuilt_spanning_generators(
            g.degree, map(Permutation._of, sorted(members))))
        assert spanned.element_set() is members
        assert spanned.chain().order() == len(members)


class TestClosuresPinnedToRebuilding:
    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_named_groups(self, name):
        assert_closures_pinned(GROUPS[name])

    @settings(max_examples=40, deadline=None)
    @given(small_groups)
    def test_random_groups(self, g):
        assert_closures_pinned(g)

    def test_one_chain_per_closure(self, monkeypatch):
        g = PermGroup.symmetric(6)
        g.elements()
        built = chain_builds(monkeypatch)
        closure = normal_closure(g, [Permutation.parse("(1 2 3)", 6)])
        assert closure.order() == 360 and len(built) == 1
        PermGroup._spanned(6, g.element_set())
        assert len(built) == 2


PRIME_SETS = ({2}, {3}, {2, 3}, {5}, {2, 5})


class TestPiCorePinnedToClosureScan:
    @pytest.mark.parametrize("name", [name for name, _ in corpus()])
    def test_corpus(self, name):
        g = GROUPS[name]
        for pi in PRIME_SETS:
            assert pi_core(g, pi).generators == reference_pi_core(g, pi).generators

    @pytest.mark.parametrize("k", [5, 6])
    @pytest.mark.parametrize("pi", PRIME_SETS[:4], ids=str)
    def test_symmetric(self, k, pi):
        g = PermGroup.symmetric(k)
        assert pi_core(g, pi).generators == reference_pi_core(g, pi).generators

    @settings(max_examples=40, deadline=None)
    @given(small_groups, st.sampled_from(PRIME_SETS))
    def test_random_groups(self, g, pi):
        assert pi_core(g, pi).generators == reference_pi_core(g, pi).generators


def two_function_sylow_generators(k, p):
    """The generators of the standard Sylow p-subgroup of Sym(k) as an
    earlier version built them: count the base-p digits of k, take each by
    divmod, and give each block of width p^j its j sub-block cycles."""

    def wreath_generators(start, j):
        gens, size = [], 1
        for _ in range(j):
            cycles = [[start + r + t * size for t in range(p)] for r in range(size)]
            gens.append(Permutation.from_cycles(k, cycles))
            size *= p
        return gens

    rest, j, width = k, 0, 1
    while width * p <= k:
        width *= p
        j += 1
    gens, start = [], 1
    while j >= 0:
        count, rest = divmod(rest, width)
        for _ in range(count):
            gens.extend(wreath_generators(start, j))
            start += width
        width //= p
        j -= 1
    return gens


class TestSylowOfSymmetric:
    def test_generators_match_the_two_function_layout(self):
        for k in range(1, 33):
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
                built = [g.images for g in sylow_of_symmetric(k, p).generators]
                assert built == [g.images for g in two_function_sylow_generators(k, p)], (k, p)

    def test_k_below_one_is_refused(self):
        with pytest.raises(PreconditionError) as info:
            sylow_of_symmetric(0, 2)
        assert str(info.value) == "k must be at least 1"

    def test_two_blocks(self):
        f = sylow_of_symmetric(6, 3)
        assert {str(g) for g in f.generators} == {"(1 2 3)", "(4 5 6)"}
        assert f.order() == 9
        # elementary abelian: commuting generators, exponent 3
        assert all(x.order() in (1, 3) for x in f.elements())

    def test_trivial_when_p_large(self):
        assert sylow_of_symmetric(4, 5).order() == 1

    def test_wreath_on_nine(self):
        f = sylow_of_symmetric(9, 3)
        assert f.order() == 81
        assert len(orbit(f, 1)) == f.degree

    @pytest.mark.parametrize("k", range(1, 16))
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_order_is_p_part_of_factorial(self, k, p):
        expected = p ** valuation(math.factorial(k), p)
        assert sylow_of_symmetric(k, p).chain().order() == expected

    @pytest.mark.parametrize("k", range(3, 8))
    def test_conjugate_to_generic_sylow(self, k):
        g = PermGroup.symmetric(k)
        for p in prime_factors(math.factorial(k)):
            built = sylow_of_symmetric(k, p)
            generic = _grow_sylow(g, p, PermGroup(k))
            assert next(g.conjugators([(built, generic)]), None) is not None


class TestCores:
    def test_p_core_sym4(self):
        assert p_core(PermGroup.symmetric(4), 2).element_set() == V4.element_set()
        assert p_core(PermGroup.symmetric(4), 3).order() == 1

    def test_p_core_of_p_group(self):
        d8 = PermGroup.dihedral(4)
        assert same_subgroup(p_core(d8, 2), d8)

    def test_p_core_refuses_a_non_prime_and_keeps_nothing(self):
        g = PermGroup.symmetric(4)
        with pytest.raises(PreconditionError) as info:
            p_core(g, 4)
        assert str(info.value) == "4 is not prime"
        assert ("p_core", 4) not in g._derived

    def test_p_core_contains_all_normal_p_subgroups(self):
        for _, g in corpus():
            for p in prime_factors(g.order()):
                core_set = p_core(g, p).element_set()
                for sub in normal_subgroups(g):
                    n = len(sub)
                    if n == p ** valuation(n, p):
                        assert {x.images for x in sub} <= core_set

    def test_pi_core_full(self):
        s4 = PermGroup.symmetric(4)
        assert same_subgroup(pi_core(s4, {2, 3}), s4)

    def test_fitting_sym4(self):
        assert fitting(PermGroup.symmetric(4)).element_set() == V4.element_set()

    def test_fitting_of_the_trivial_group(self):
        for k in (1, 3):
            f = fitting(PermGroup(k))
            assert f.degree == k and f.generators == () and f.order() == 1

    def test_fitting_of_nilpotent(self):
        for g in (PermGroup.dihedral(4), PermGroup.cyclic(6)):
            assert same_subgroup(fitting(g), g)

    def test_p_normality(self):
        # O_2 is a full Sylow 2-subgroup of A4 and D8, but not of S4
        for g, p_normal in ((PermGroup.alternating(4), True),
                            (PermGroup.symmetric(4), False), (PermGroup.dihedral(4), True)):
            assert (p_core(g, 2).order() == p_part_of_order(g, 2)) is p_normal


def reference_sylow_conjugates(g, p):
    """The conjugates of the canonical Sylow p-subgroup P, P first, then
    each new conjugate as the scan of g in canonical element order meets
    it, told apart by its whole conjugated element set."""
    base = sylow_subgroup(g, p)
    members = base.element_set()
    if all((x * y * x.inverse()).images in members
           for x in g.generators for y in base.generators):
        return [base]
    seen = {members}
    out = [base]
    for x in g.elements():
        key = frozenset((x * Permutation(y) * x.inverse()).images for y in members)
        if key not in seen:
            seen.add(key)
            out.append(base.conjugate(x))
    return out


class TestSylowTheory:
    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_conjugate_count(self, name):
        g = GROUPS[name]
        for p in prime_factors(g.order()):
            conjugates = reference_sylow_conjugates(g, p)
            assert len(conjugates) % p == 1
            assert len(conjugates) == g.order() // normaliser(g, conjugates[0]).order()
            assert len({c.element_set() for c in conjugates}) == len(conjugates)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_p_core_is_the_meet_of_all_conjugates(self, name):
        g = GROUPS[name]
        for p in prime_factors(g.order()):
            meet = frozenset.intersection(
                *(c.element_set() for c in reference_sylow_conjugates(g, p)))
            assert p_core(g, p).element_set() == meet

    @pytest.mark.parametrize("name", ["q8", "d8", "sylow2sym8"])
    def test_nilpotent_groups_have_one_conjugate_per_prime(self, name):
        g = GROUPS[name]
        for p in prime_factors(g.order()):
            assert len(reference_sylow_conjugates(g, p)) == 1


class TestDerivedOncePerGroup:
    def test_repeated_calls_return_the_same_object(self):
        for _, g in corpus():
            for p in prime_factors(g.order()):
                for call in (sylow_subgroup, p_core):
                    cached = call(g, p)
                    assert call(g, p) is cached
            assert nilpotent_residual(g) is nilpotent_residual(g)

    def test_refused_call_keeps_nothing(self):
        for p in (2, 3):
            g = PermGroup.alternating(15)
            with pytest.raises(PreconditionError, match="enumeration bound"):
                sylow_subgroup(g, p)
            with pytest.raises(PreconditionError, match="enumeration bound"):
                p_core(g, p)
            assert g._derived == {}

    def test_prime_is_checked_before_the_cache(self):
        g = PermGroup.symmetric(4)
        sylow_subgroup(g, 2)
        p_core(g, 2)
        for call in (sylow_subgroup, p_core):
            with pytest.raises(PreconditionError):
                call(g, 4)

    def test_start_calls_are_not_cached(self):
        g = PermGroup.symmetric(5)
        cached = sylow_subgroup(g, 2)
        start = PermGroup(5, ["(4 5)"])
        grown = _grow_sylow(g, 2, start)
        assert grown is not cached
        assert all(x in grown for x in start.generators)
        assert grown.generators == reference_sylow(g, 2, start).generators
        assert sylow_subgroup(g, 2) is cached


def reference_sylow_basis(g):
    """The Sylow basis by backtracking over the full conjugate lists, primes
    in increasing order; ``sylow_basis`` must choose the same members."""
    primes = sorted(prime_factors(g.order()))
    candidates = {p: reference_sylow_conjugates(g, p) for p in primes}
    chosen = []

    def extend(i):
        if i == len(primes):
            return True
        for cand in candidates[primes[i]]:
            if all(are_permutable(cand, old) for old in chosen):
                chosen.append(cand)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    assert extend(0)
    return dict(zip(primes, chosen))


def assert_basis_pinned(g):
    members = sylow_basis(g).members
    assert ({p: m.generators for p, m in members.items()}
            == {p: m.generators for p, m in reference_sylow_basis(g).items()})
    # any two Sylow subgroups permute when |g| has at most two prime divisors
    if len(members) <= 2:
        assert all(members[p] is sylow_subgroup(g, p) for p in members)


class TestBasisPinnedToBacktracking:
    @pytest.mark.parametrize("name", sorted(n for n, g in GROUPS.items() if g.is_soluble()))
    def test_named_groups(self, name):
        assert_basis_pinned(GROUPS[name])

    @settings(max_examples=60, deadline=None)
    @given(small_groups)
    def test_random_groups(self, g):
        assume(g.is_soluble())
        assert_basis_pinned(g)

    def test_builds_no_conjugate_group_for_sym4(self, monkeypatch):
        built = []
        original = PermGroup.conjugate

        def counting(group, x):
            conjugate = original(group, x)
            if conjugate is not group:
                built.append(x)
            return conjugate

        monkeypatch.setattr(PermGroup, "conjugate", counting)
        basis = sylow_basis(PermGroup.symmetric(4))
        assert basis.violations() == []
        # the canonical Sylow 2- and 3-subgroups already permute
        assert built == []

    def test_falls_back_to_the_first_canonical_conjugate_that_fits(self, monkeypatch):
        g = parse_group_spec("gens:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)").group
        shift = Permutation.parse("(1 2 3 4 5 6 7)", 7)
        p2, p3 = sylow_subgroup(g, 2), sylow_subgroup(g, 3).conjugate(shift)
        assert not set_products_agree(p2, p3)
        original = sylow_subgroup
        monkeypatch.setattr(sylow, "sylow_subgroup",
                            lambda h, p: p3 if p == 3 else original(h, p))
        basis = sylow_basis(g)
        assert basis.violations() == []
        assert basis.members[2] is p2
        # brute force: conjugate element sets by products, permutability by set products
        first = next(x for x in g.elements() if set_products_agree(
            p2, PermGroup(7, [x * y * x.inverse() for y in p3.generators])))
        assert g.elements().index(first) == 6
        assert basis.members[3].element_set() == frozenset(
            (first * y * first.inverse()).images for y in p3.elements())


class TestBasis:
    def test_violations_name_a_member_that_is_not_sylow(self):
        s4 = PermGroup.symmetric(4)
        basis = SylowBasis(s4, {2: PermGroup(4, ["(1 2)"]), 3: PermGroup(4, ["(1 2 3)"])})
        assert basis.violations() == ["member at 2 is not Sylow"]

    def test_violations_name_a_pair_that_does_not_permute(self):
        # D8 on 1..4 and (3 4 5) generate Sym(5), larger than 8 * 3
        basis = SylowBasis(PermGroup.symmetric(5), {2: PermGroup(5, ["(1 2 3 4)", "(1 3)"]),
                                                    3: PermGroup(5, ["(3 4 5)"])})
        assert basis.violations() == ["members at 2 and 3 do not permute"]

    def test_sym4_basis(self):
        basis = sylow_basis(PermGroup.symmetric(4))
        assert {p: m.order() for p, m in basis.members.items()} == {2: 8, 3: 3}
        assert basis.violations() == []

    def test_sym3xc3_basis(self):
        g = PermGroup(6, ["(1 2)", "(1 2 3)", "(4 5 6)"])
        basis = sylow_basis(g)
        assert {p: m.order() for p, m in basis.members.items()} == {2: 2, 3: 9}
        assert basis.violations() == []

    def test_nilpotent_basis_members_normal(self):
        g = PermGroup.cyclic(6)
        basis = sylow_basis(g)
        for member in basis.members.values():
            assert is_normal_in(member, g)

    def test_refuses_insoluble(self):
        with pytest.raises(PreconditionError):
            sylow_basis(PermGroup.alternating(5))

    def test_permutability_probe(self):
        s4 = PermGroup.symmetric(4)
        basis = sylow_basis(s4)
        assert are_permutable(basis.members[2], basis.members[3])

    def test_permutability_needs_one_degree(self):
        a, b = PermGroup(3, ["(1 2)"]), PermGroup(4, ["(1 2 3)"])
        for x, y in ((a, b), (b, a)):
            with pytest.raises(PreconditionError):
                are_permutable(x, y)

    def test_equality_is_identity(self):
        s4 = PermGroup.symmetric(4)
        basis = sylow_basis(s4)
        x = Permutation.parse("(1 2 3)", 4)
        other = SylowBasis(s4, {p: m.conjugate(x) for p, m in basis.members.items()})
        assert other.members[2].generators != basis.members[2].generators
        assert basis != other and basis == basis
        assert len({basis, other}) == 2


class TestBasisNormaliser:
    def test_sym4(self):
        s4 = PermGroup.symmetric(4)
        n = basis_normaliser(s4, sylow_basis(s4))
        assert n.order() == 2
        gen, = n.generators
        assert gen.order() == 2 and len(gen.cycles()) == 1  # a transposition

    def test_nilpotent_gives_whole_group(self):
        g = PermGroup.dihedral(4)
        assert same_subgroup(basis_normaliser(g, sylow_basis(g)), g)

    def test_sym3_explicit_basis(self):
        s3 = PermGroup.symmetric(3)
        basis = SylowBasis(s3, {2: PermGroup(3, ["(1 2)"]),
                                3: PermGroup(3, ["(1 2 3)"])})
        n = basis_normaliser(s3, basis)
        assert n.order() == 2
        assert Permutation.parse("(1 2)", 3) in n


class TestHallCovering:
    def test_sym4_alt4(self):
        s4 = PermGroup.symmetric(4)
        assert verify_hall_covering(s4, sylow_basis(s4), PermGroup.alternating(4))

    def test_nilpotent_trivial_kernel(self):
        g = PermGroup.cyclic(6)
        assert verify_hall_covering(g, sylow_basis(g), PermGroup(6))

    def test_precondition_failure_is_error(self):
        s4 = PermGroup.symmetric(4)
        with pytest.raises(PreconditionError):
            verify_hall_covering(s4, sylow_basis(s4), V4)

    @pytest.mark.parametrize("case, message", [
        ("insoluble", "hall covering requires a soluble group"),
        ("kernel not normal", "hall covering requires K normal in U"),
        ("member not Sylow", "hall covering requires a Sylow basis of U"),
        ("prime without member", "hall covering requires one basis member per prime"),
    ])
    def test_refusals(self, case, message):
        s3, s4, a5 = PermGroup.symmetric(3), PermGroup.symmetric(4), PermGroup.alternating(5)
        u, basis, k = {
            "insoluble": (a5, SylowBasis(a5, {}), a5),
            "kernel not normal": (s4, sylow_basis(s4), PermGroup(4, ["(1 2)"])),
            "member not Sylow": (s3, SylowBasis(s3, {2: PermGroup(3, ["(1 2)"]),
                                                     3: PermGroup(3, ["(1 2)"])}), s3),
            "prime without member": (s3, SylowBasis(s3, {2: PermGroup(3, ["(1 2)"])}), s3),
        }[case]
        with pytest.raises(PreconditionError) as info:
            verify_hall_covering(u, basis, k)
        assert str(info.value) == message


class TestCoreCommensurability:
    def test_sym4_alt4(self):
        assert core_commensurability_check(
            PermGroup.symmetric(4), PermGroup.alternating(4), [{2}])

    def test_reflexive(self):
        s4 = PermGroup.symmetric(4)
        assert core_commensurability_check(s4, s4, [{2}, {3}])

    def test_klein_kernel(self):
        assert core_commensurability_check(PermGroup.symmetric(4), V4, [{2}, {3}])

    def test_rejects_non_normal(self):
        with pytest.raises(PreconditionError):
            core_commensurability_check(
                PermGroup.symmetric(4), PermGroup(4, ["(1 2)"]), [{2}])

    def test_no_prime_sets(self):
        # both sides are the trivial group, as with the one empty set
        s4 = PermGroup.symmetric(4)
        assert core_commensurability_check(s4, V4, [])
        assert core_commensurability_check(s4, V4, [set()])
        trivial = PermGroup(3)
        assert core_commensurability_check(trivial, trivial, [])

    def test_rejects_overlapping_sets(self):
        s4 = PermGroup.symmetric(4)
        with pytest.raises(PreconditionError):
            core_commensurability_check(s4, s4, [{2, 3}, {3}])


def test_corpus_orders_and_solubility():
    expected = {"sym3": 6, "sym4": 24, "alt4": 12, "c6": 6, "d8": 8,
                "d12": 12, "sym3xc3": 18, "q8": 8, "v4": 4}
    groups = dict(corpus())
    assert {name: g.order() for name, g in groups.items()} == expected
    assert all(g.is_soluble() for g in groups.values())
    q8 = groups["q8"]
    assert q8.is_nilpotent()
    assert sum(1 for x in q8.elements() if x.order() == 2) == 1


# The Hall-layer predicates as they were when they built every meet,
# conjugate and quotient term as a group; the engine must give the same
# verdicts without building them.

def reference_are_permutable(a, b):
    joined = PermGroup(a.degree, a.generators + b.generators)
    meet = intersect(a, b)
    return joined.order() * meet.order() == a.order() * b.order()


def reference_is_normal_in(v, u):
    return (is_subgroup(v, u)
            and all(same_subgroup(v.conjugate(x), v) for x in u.generators))


def reference_quotient_is_nilpotent(u, k):
    """Whether U/K is nilpotent, via the lower central series modulo K."""
    term = u
    for _ in range(int(u.degree * math.log2(math.factorial(u.degree))) + 2):
        step = commutator_subgroup(u, term)
        nxt = PermGroup(u.degree, step.generators + k.generators)
        if nxt.order() == k.order():
            return True
        if nxt.order() == term.order():
            return False
        term = nxt
    return False


def reference_hall_covering(u, basis, k):
    """``verify_hall_covering`` on the group-building predicates: its
    verdict, or "precondition" where it refuses."""
    if (not u.is_soluble() or not reference_is_normal_in(k, u)
            or not reference_quotient_is_nilpotent(u, k)):
        return "precondition"
    n = basis_normaliser(u, basis)
    return n.order() * k.order() // intersect(n, k).order() == u.order()


def reference_core_commensurability_check(u, v, prime_sets):
    sets = [frozenset(s) for s in prime_sets]
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            if a & b:
                raise PreconditionError("prime sets must be pairwise disjoint")
    if not reference_is_normal_in(v, u):
        raise PreconditionError("core commensurability requires V normal in U")
    o_u = PermGroup(u.degree, [x for s in sets for x in pi_core(u, s).generators])
    o_v = PermGroup(v.degree, [x for s in sets for x in pi_core(v, s).generators])
    return same_subgroup(intersect(o_u, v), o_v)


def set_products_agree(a, b):
    """AB = BA from image tuples of all the elements of A and B."""
    a = [x.images for x in a.elements()]
    b = [y.images for y in b.elements()]
    ab = {tuple([x[i - 1] for i in y]) for x in a for y in b}
    ba = {tuple([y[i - 1] for i in x]) for x in a for y in b}
    return ab == ba


def hall_outcome(u, basis, k):
    try:
        return verify_hall_covering(u, basis, k)
    except PreconditionError:
        return "precondition"


def core_outcome(check, u, v, prime_sets):
    try:
        return check(u, v, prime_sets)
    except PreconditionError:
        return "precondition"


CORE_PRIME_SETS = ([{2}], [{3}], [{2}, {3}], [{2, 3}], [{2}, {5}])


def assert_pair_pinned(a, b):
    verdict = are_permutable(a, b)
    assert verdict == reference_are_permutable(a, b) == set_products_agree(a, b)
    assert is_normal_in(a, b) == reference_is_normal_in(a, b)


def assert_kernel_pinned(g, basis, k):
    """The residual test, the covering verdict and the core check on one
    normal subgroup K of g; basis is None for an insoluble g."""
    assert is_subgroup(nilpotent_residual(g), k) == reference_quotient_is_nilpotent(g, k)
    if basis is not None:
        assert hall_outcome(g, basis, k) == reference_hall_covering(g, basis, k)
    for sets in CORE_PRIME_SETS:
        assert (core_outcome(core_commensurability_check, g, k, sets)
                == core_outcome(reference_core_commensurability_check, g, k, sets))


def subgroup_list(g):
    return [PermGroup._spanned(g.degree, frozenset(x.images for x in sub))
            for sub in sorted(all_subgroups(g), key=sorted)]


def brute_meet_index(h, k):
    """|H : H meet K| from element sets closed under products, no chain."""
    hs = brute_force_elements(h.degree, h.generators)
    return len(hs) // len(hs & brute_force_elements(k.degree, k.generators))


class TestMeetIndex:
    @pytest.mark.parametrize("name", [name for name, _ in corpus()])
    def test_subgroup_pairs(self, name):
        g = GROUPS[name]
        subs = sorted(all_subgroups(g), key=sorted)
        groups = [PermGroup._spanned(g.degree, frozenset(x.images for x in sub))
                  for sub in subs]
        # every ordered pair, so both the smaller and the larger group come
        # first; the spanned groups hold their element sets, and a fresh
        # group on the same generators sifts through its chain
        for hs, h in zip(subs, groups):
            for ks, k in zip(subs, groups):
                expected = len(hs) // len(hs & ks)
                assert meet_index(h, k) == expected
                assert meet_index(PermGroup(h.degree, h.generators),
                                  PermGroup(k.degree, k.generators)) == expected

    @settings(max_examples=40, deadline=None)
    @given(small_groups, st.lists(st.integers(0, 719), min_size=3, max_size=3))
    def test_random_groups(self, g, picks):
        elements = g.elements()
        x, y, z = (elements[i % len(elements)] for i in picks)
        a = PermGroup(g.degree, [x])
        b = PermGroup(g.degree, [y, z])
        for h, k in ((a, b), (b, a), (a, g), (g, b), (g, g)):
            assert meet_index(h, k) == brute_meet_index(h, k)

    def test_degree_mismatch_is_refused(self):
        for h, k in ((PermGroup.symmetric(3), PermGroup.symmetric(4)),
                     (PermGroup(4), PermGroup(3))):
            for pair in ((h, k), (k, h)):
                with pytest.raises(PreconditionError):
                    meet_index(*pair)


class TestHallPredicatesPinnedToGroupBuilding:
    @pytest.mark.parametrize("name", [name for name, _ in corpus()])
    def test_subgroup_pairs(self, name):
        subs = subgroup_list(GROUPS[name])
        for a in subs:
            for b in subs:
                assert_pair_pinned(a, b)

    @pytest.mark.parametrize("name", [name for name, _ in corpus()])
    def test_normal_subgroups(self, name):
        g = GROUPS[name]
        basis = sylow_basis(g)
        for sub in normal_subgroups(g):
            assert_kernel_pinned(g, basis, PermGroup(g.degree, sorted(sub)))

    def test_sylow_two_and_five_of_sym5_do_not_permute(self):
        # S5 has no subgroup of order 40, so P2 P5 is never a subgroup
        g = PermGroup.symmetric(5)
        p2, p5 = sylow_subgroup(g, 2), sylow_subgroup(g, 5)
        assert not are_permutable(p2, p5)
        assert not reference_are_permutable(p2, p5)
        assert not set_products_agree(p2, p5)
        for x in g.elements()[::7]:
            assert not are_permutable(p2, p5.conjugate(x))

    @settings(max_examples=40, deadline=None)
    @given(small_groups, st.lists(st.integers(0, 719), min_size=3, max_size=3))
    def test_random_groups(self, g, picks):
        elements = g.elements()
        x, y, z = (elements[i % len(elements)] for i in picks)
        a = PermGroup(g.degree, [x])
        b = PermGroup(g.degree, [y, z])
        assert_pair_pinned(a, b)
        assert_pair_pinned(b, a)
        assert_pair_pinned(a, g)
        assert_pair_pinned(b, g)
        basis = sylow_basis(g) if g.is_soluble() else None
        kernels = lower_central_series(g) + [normal_closure(g, [x]),
                                             PermGroup(g.degree)]
        for k in kernels:
            assert_kernel_pinned(g, basis, k)
