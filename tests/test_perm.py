"""Permutation and group engine tests.

Orders and stabilisers are checked against brute-force product enumeration,
which never touches the stabiliser chain.
"""

import math

import pytest
from hypothesis import given, strategies as st

from treescale.errors import EnumerationBoundError, ParseError, PreconditionError
from treescale.perm import (ENUMERATION_BOUND, PermGroup, Permutation,
                            derived_subgroup, generated, intersect,
                            is_subgroup, lower_central_series, normal_closure)
from treescale.sylow import sylow_of_symmetric


def brute_force_elements(degree, gens):
    """Independent closure oracle: BFS over products, no chain involved."""
    idp = tuple(range(1, degree + 1))
    elems = {idp}
    frontier = [idp]
    gen_images = [g.images for g in gens]
    while frontier:
        cur = frontier.pop()
        for g in gen_images:
            nxt = tuple(g[c - 1] for c in cur)
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return elems


perms = st.integers(3, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(Permutation)


class TestPermutation:
    def test_involution_squared(self):
        p = Permutation.parse("(1 2)", 2)
        assert (p * p).is_identity()

    def test_inverse_pair(self):
        p = Permutation.parse("(1 2 3)")
        q = Permutation.parse("(1 3 2)")
        assert (p * q).is_identity()

    def test_right_factor_first(self):
        # frozen from applying each point by hand: 1->1->2, 2->3->3, 3->2->1
        p = Permutation.parse("(1 2)", 3)
        q = Permutation.parse("(2 3)", 3)
        assert p * q == Permutation.parse("(1 2 3)", 3)
        for i in (1, 2, 3):
            assert (p * q)(i) == p(q(i))

    def test_degree_mismatch(self):
        with pytest.raises(PreconditionError):
            Permutation.parse("(1 2)", 2) * Permutation.parse("(1 2)", 3)

    def test_not_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    @given(perms)
    def test_inverse_law(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(perms)
    def test_cycle_round_trip(self, p):
        assert Permutation.parse(p.cycle_string(), p.degree) == p

    def test_canonical_form(self):
        assert Permutation.parse("(2 3 1)", 3).cycle_string() == "(1 2 3)"
        assert Permutation.parse("(4 5)(1 2 3)", 5).cycle_string() == "(1 2 3)(4 5)"
        assert Permutation.identity(4).cycle_string() == "()"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Permutation.parse("(1 2)(2 3)", 3)  # duplicate point
        with pytest.raises(ParseError):
            Permutation.parse("(1 2 4)", 3)     # out of range
        with pytest.raises(ParseError):
            Permutation.parse("(1 2) junk", 3)
        with pytest.raises(ParseError):
            Permutation.parse("nonsense", 3)

    def test_order(self):
        assert Permutation.parse("(1 2 3)(4 5)", 5).order() == 6
        assert Permutation.identity(3).order() == 1


class TestGroupOrder:
    def test_symmetric(self):
        assert PermGroup.symmetric(3).order() == 6
        assert PermGroup.symmetric(4).order() == 24

    def test_trivial(self):
        assert PermGroup.trivial(5).order() == 1

    def test_two_cycles(self):
        g = PermGroup(6, ["(1 2 3)", "(4 5 6)"])
        assert g.order() == 9
        assert g.order() == len(brute_force_elements(6, g.generators))

    def test_large_degree_without_enumeration(self):
        assert PermGroup.symmetric(15).order() == math.factorial(15)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_chain_matches_brute_force(self, k):
        for g in (PermGroup.symmetric(k), PermGroup.alternating(k),
                  PermGroup.cyclic(k), PermGroup.dihedral(k)):
            assert g.order() == len(brute_force_elements(k, g.generators))

    def test_element_list_matches_brute_force(self):
        g = PermGroup.dihedral(6)
        assert {e.images for e in g.elements()} == brute_force_elements(6, g.generators)

    def test_enumeration_bound_refusal(self):
        with pytest.raises(EnumerationBoundError):
            PermGroup.symmetric(15).elements()

    def test_membership(self):
        g = PermGroup(6, ["(1 2 3)", "(4 5 6)"])
        assert Permutation.parse("(1 3 2)(4 6 5)", 6) in g
        assert Permutation.parse("(1 2)", 6) not in g

    def test_base_is_increasing(self):
        for g in (PermGroup.symmetric(5), PermGroup(6, ["(3 4)", "(1 2)", "(5 6)"])):
            base = g.base()
            assert base == sorted(base)


class TestOrbits:
    def test_transitive_orbit(self):
        assert PermGroup.symmetric(4).orbit(1) == {1, 2, 3, 4}

    def test_fixed_point(self):
        assert PermGroup(5, ["(1 2 3)"]).orbit(4) == {4}

    def test_cycle_orbit(self):
        assert PermGroup(5, ["(1 2 3)"]).orbit(2) == {1, 2, 3}

    def test_point_out_of_range(self):
        with pytest.raises(PreconditionError):
            PermGroup.symmetric(3).orbit(4)

    def test_stabiliser_order(self):
        assert PermGroup.symmetric(4).point_stabiliser(1).order() == 6
        assert PermGroup.trivial(4).point_stabiliser(2).order() == 1

    def test_stabiliser_two_cycles(self):
        # frozen by filtering the 9 elements for those fixing 1
        g = PermGroup(6, ["(1 2 3)", "(4 5 6)"])
        stab = g.point_stabiliser(1)
        assert stab.order() == 3
        assert stab.orbit(4) == {4, 5, 6}

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_orbit_stabiliser_identity(self, k):
        for g in (PermGroup.symmetric(k), PermGroup.alternating(k),
                  PermGroup.dihedral(k), PermGroup(k, ["(1 2 3)"])):
            for i in range(1, k + 1):
                assert g.order() == len(g.orbit(i)) * g.point_stabiliser(i).order()

    def test_suborbits(self):
        s4 = PermGroup.symmetric(4)
        assert s4.suborbit_size(1, 2) == 3
        assert s4.suborbit_size(1, 1) == 1
        assert PermGroup(5, ["(1 2 3)"]).suborbit_size(4, 1) == 3

    def test_suborbit_index_identity(self):
        # |G_a . b| = |G_a| / |G_a meet G_b| on everything enumerable here
        for g in (PermGroup.symmetric(4), PermGroup.dihedral(5),
                  PermGroup(6, ["(1 2 3)", "(4 5 6)"])):
            for a in range(1, g.degree + 1):
                for b in range(1, g.degree + 1):
                    ga = g.point_stabiliser(a)
                    gb = g.point_stabiliser(b)
                    assert g.suborbit_size(a, b) * intersect(ga, gb).order() == ga.order()


class TestOrbitals:
    @pytest.mark.parametrize("k", [2, 3, 5, 9])
    def test_symmetric_has_rank_two(self, k):
        table = PermGroup.symmetric(k).orbitals()
        assert table.labels == ((1, 1), (1, 2))
        assert table.sizes == (1, k - 1)

    def test_sylow_3_of_sym27(self):
        assert len(sylow_of_symmetric(27, 3).orbitals().labels) == 7

    def test_intransitive_diagonal(self):
        # orbits {1,2,3}, {4}, {5}: one diagonal orbital per orbit
        table = PermGroup(5, ["(1 2 3)"]).orbitals()
        diagonal = {table.labels[table.index[c][c]] for c in range(5)}
        assert diagonal == {(1, 1), (4, 4), (5, 5)}
        assert len(table.labels) == 11

    def test_matches_brute_force(self):
        # (a, b) and (c, d) share an orbital iff some element maps one to
        # the other; each label lies in its orbital; sizes are suborbits
        for g in (PermGroup.dihedral(5), PermGroup(6, ["(1 2 3)", "(4 5)"]),
                  PermGroup(6, ["(1 2)(3 4)(5 6)", "(1 3 5)(2 4 6)"]),
                  PermGroup.trivial(3)):
            table = g.orbitals()
            k = g.degree
            pairs = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1)]
            for a, b in pairs:
                images = {(x(a), x(b)) for x in g.elements()}
                here = table.index[a - 1][b - 1]
                assert images == {pr for pr in pairs
                                  if table.index[pr[0] - 1][pr[1] - 1] == here}
                assert table.labels[here] in images
                assert table.sizes[here] == len(g.point_stabiliser(a).orbit(b))
            assert list(table.labels) == sorted(table.labels)

    def test_write_once(self):
        g = PermGroup.symmetric(4)
        assert g.orbitals() is g.orbitals()


class TestTransporters:
    def test_sym4_example(self):
        # frozen from enumerating all 24 elements with f(1) = 2
        assert PermGroup.symmetric(4).transporter_images(1, 2, 3) == {1, 3, 4}

    def test_trivial(self):
        assert PermGroup.trivial(3).transporter_images(1, 1, 2) == {2}

    def test_empty_when_not_in_orbit(self):
        assert PermGroup(5, ["(1 2 3)"]).transporter_images(1, 4, 2) == set()

    def test_coset_law(self):
        # |{f(c): f(a)=b}| = |G_a . c| whenever b lies in the orbit of a
        for g in (PermGroup.symmetric(4), PermGroup.alternating(4),
                  PermGroup.dihedral(5)):
            for a in range(1, g.degree + 1):
                for b in g.orbit(a):
                    for c in range(1, g.degree + 1):
                        assert len(g.transporter_images(a, b, c)) == g.suborbit_size(a, c)

    def test_matches_brute_force(self):
        g = PermGroup.dihedral(4)
        for a in range(1, 5):
            for b in range(1, 5):
                for c in range(1, 5):
                    direct = {f(c) for f in g.elements() if f(a) == b}
                    assert g.transporter_images(a, b, c) == direct


class TestNormaliser:
    def test_self_normalising_sylow(self):
        s4 = PermGroup.symmetric(4)
        d8 = PermGroup(4, ["(1 2 3 4)", "(1 3)"])
        n = s4.normaliser(d8)
        assert n.order() == 8
        assert n.same_subgroup(d8)

    def test_normaliser_of_self(self):
        g = PermGroup.alternating(4)
        assert g.normaliser(g).same_subgroup(g)

    def test_three_cycle(self):
        s4 = PermGroup.symmetric(4)
        assert s4.normaliser(PermGroup(4, ["(1 2 3)"])).order() == 6

    def test_bound_refusal(self):
        big = PermGroup.symmetric(15)
        with pytest.raises(EnumerationBoundError):
            big.normaliser(PermGroup(15, ["(1 2)"]))

    def test_requires_subgroup(self):
        with pytest.raises(PreconditionError):
            PermGroup.alternating(4).normaliser(PermGroup(4, ["(1 2)"]))


class TestPredicates:
    def test_transitivity(self):
        assert PermGroup.symmetric(4).is_transitive()
        assert not PermGroup(5, ["(1 2 3)"]).is_transitive()

    def test_two_transitivity(self):
        assert PermGroup.symmetric(4).is_2transitive()
        assert PermGroup.alternating(5).is_2transitive()
        assert not PermGroup.dihedral(4).is_2transitive()
        assert not PermGroup.cyclic(4).is_2transitive()

    def test_solubility(self):
        assert PermGroup.symmetric(4).is_soluble()
        assert PermGroup.dihedral(6).is_soluble()
        assert not PermGroup.alternating(5).is_soluble()
        assert not PermGroup.symmetric(5).is_soluble()

    def test_nilpotency(self):
        assert not PermGroup.symmetric(4).is_nilpotent()
        assert not PermGroup.symmetric(3).is_nilpotent()
        assert PermGroup.dihedral(4).is_nilpotent()
        assert PermGroup.cyclic(6).is_nilpotent()
        assert PermGroup.trivial(3).is_nilpotent()

    def test_derived_series_of_sym4(self):
        g = PermGroup.symmetric(4)
        orders = [g.order()]
        while orders[-1] > 1:
            g = derived_subgroup(g)
            orders.append(g.order())
        assert orders == [24, 12, 4, 1]

    def test_lower_central_stalls_for_sym3(self):
        series = lower_central_series(PermGroup.symmetric(3))
        assert [g.order() for g in series] == [6, 3]


class TestSubgroupAlgebra:
    def test_is_subgroup(self):
        assert is_subgroup(PermGroup.alternating(4), PermGroup.symmetric(4))
        assert not is_subgroup(PermGroup(4, ["(1 2)"]), PermGroup.alternating(4))

    def test_intersect(self):
        meet = intersect(PermGroup(3, ["(1 2)"]), PermGroup(3, ["(1 2 3)"]))
        assert meet.order() == 1

    def test_conjugate(self):
        g = Permutation.parse("(1 4)", 4)
        h = PermGroup(4, ["(1 2 3)"]).conjugate(g)
        assert h.order() == 3
        assert Permutation.parse("(4 2 3)", 4) in h

    def test_generated(self):
        g = generated([PermGroup(4, ["(1 2)"]), PermGroup(4, ["(3 4)"])])
        assert g.order() == 4

    def test_normal_closure(self):
        s4 = PermGroup.symmetric(4)
        closure = normal_closure(s4, [Permutation.parse("(1 2)(3 4)", 4)])
        assert closure.order() == 4
