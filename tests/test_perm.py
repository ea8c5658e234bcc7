"""Permutation and group engine tests.

Orders and stabilisers are checked against brute-force product enumeration,
which never touches the stabiliser chain.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from treescale import balloracle, bmtree, cli, perm
from treescale.errors import ParseError, PreconditionError
from treescale.groupspec import parse_group_spec
from treescale.perm import (Orbitals, PermGroup, Permutation, _orbit_transversal,
                            is_subgroup, nilpotent_residual, normal_closure)
from treescale.supernat import prime_factors
from treescale.sylow import _grow_sylow, _power, corpus, sylow_of_symmetric, sylow_subgroup


def chain_builds(monkeypatch):
    """The list of every ``_Chain`` built from now on, until the test ends."""
    built = []
    original = perm._Chain.__init__

    def counting(chain, *args):
        built.append(chain)
        original(chain, *args)

    monkeypatch.setattr(perm._Chain, "__init__", counting)
    return built


def schreier_generators_formed(monkeypatch):
    """The list of every nontrivial Schreier generator formed from now on,
    until the test ends."""
    formed = []
    original = perm._schreier_generators

    def counting(*args):
        for sg in original(*args):
            formed.append(sg)
            yield sg

    monkeypatch.setattr(perm, "_schreier_generators", counting)
    return formed


S3_S3 = "gens:6:(1 2 3);(1 2);(4 5 6);(4 5)"

# Groups whose order alone proves them soluble (4 does not divide it, or it
# has at most two prime divisors), and groups whose order leaves it open,
# as (degree, generators).
ORDER_DECIDES = {
    "C7:C3": (7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]),
    "S3xC5": (8, ["(1 2 3)", "(1 2)", "(4 5 6 7 8)"]),
}
ORDER_LEAVES_OPEN = {
    "S4xC5": (9, ["(1 2)", "(1 2 3 4)", "(5 6 7 8 9)"]),
    "A5": (5, ["(1 2 3)", "(1 2 3 4 5)"]),
    "S5": (5, ["(1 2)", "(1 2 3 4 5)"]),
    "PSL(2,7)": (7, ["(1 2 3 4 5 6 7)", "(1 2)(3 6)"]),
    "A5xC3": (8, ["(1 2 3)", "(1 2 3 4 5)", "(6 7 8)"]),
    "A6": (6, ["(1 2 3)", "(2 3 4 5 6)"]),
    "S6": (6, ["(1 2)", "(1 2 3 4 5 6)"]),
    "A7": (7, ["(1 2 3)", "(1 2 3 4 5 6 7)"]),
}
NAMED_ORDERS = {"C7:C3": 21, "S3xC5": 30, "S4xC5": 120, "A5": 60, "S5": 120,
                "PSL(2,7)": 168, "A5xC3": 180, "A6": 360, "S6": 720, "A7": 2520}


def full_normal_closure(g, seeds):
    """The normal closure on one chain that never stops early: every
    conjugate of every generator taken is tried, each add completes the
    chain, and the chain is returned."""
    gens = list(PermGroup(g.degree, seeds).generators)
    chain = perm._Chain(g.degree, gens)
    for x in gens:
        for c in g.generators:
            y = c * x * c.inverse()
            if chain.add(y):
                gens.append(y)
    return chain


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
        p = Permutation.parse("(1 2 3)", 3)
        q = Permutation.parse("(1 3 2)", 3)
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

    def test_identity_moves_no_point(self):
        assert Permutation.identity(3).min_moved() is None
        assert Permutation.parse("(2 3)", 3).min_moved() == 2

    def test_repr(self):
        assert repr(Permutation.identity(3)) == "Permutation('()', degree=3)"
        assert repr(Permutation.parse("(3 1)(2 4)", 4)) == "Permutation('(1 3)(2 4)', degree=4)"

    def test_not_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((2, 3))

    @given(perms)
    def test_inverse_law(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(perms)
    def test_cycle_round_trip(self, p):
        assert Permutation.parse(str(p), p.degree) == p

    def test_canonical_form(self):
        assert str(Permutation.parse("(2 3 1)", 3)) == "(1 2 3)"
        assert str(Permutation.parse("(4 5)(1 2 3)", 5)) == "(1 2 3)(4 5)"
        assert str(Permutation.identity(4)) == "()"
        assert str(Permutation.identity(1)) == "()"

    def test_rendering_matches_a_reference_walk(self):
        rng = random.Random(33)
        for _ in range(300):
            images = list(range(1, rng.randint(1, 10) + 1))
            rng.shuffle(images)
            assert str(Permutation(images)) == reference_cycle_string(images)
        for text in ("()", " ( ) ", "()()"):
            assert Permutation.parse(text, 3) == Permutation.identity(3)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Permutation.parse("(1 2)(2 3)", 3)  # duplicate point
        with pytest.raises(ParseError):
            Permutation.parse("(1 2 4)", 3)     # out of range
        with pytest.raises(ParseError):
            Permutation.parse("(1 2) junk", 3)
        with pytest.raises(ParseError):
            Permutation.parse("nonsense", 3)

    @pytest.mark.parametrize("text, message", [
        ("(1 2) x (3 4)", "unexpected text in permutation: '(1 2) x (3 4)'"),
        ("(1 a)", "non-integer point in permutation: '(1 a)'"),
        ("(0 1)", "point 0 out of range 1..4"),
        ("(-1 2)", "point -1 out of range 1..4"),
    ])
    def test_parse_refusals(self, text, message):
        with pytest.raises(ParseError) as info:
            Permutation.parse(text, 4)
        assert str(info.value) == message

    def test_point_zero_is_refused(self):
        with pytest.raises(PreconditionError) as info:
            Permutation.parse("(1 2)", 3)(0)
        assert str(info.value) == "point 0 out of range 1..3"

    def test_order(self):
        assert Permutation.parse("(1 2 3)(4 5)", 5).order() == 6
        assert Permutation.identity(3).order() == 1


def image_tuples(degree, count):
    """count image tuples of one degree, as plain tuples."""
    return st.tuples(*[st.permutations(list(range(1, degree + 1))).map(tuple)] * count)


def kernel_cases(count):
    return st.integers(1, 32).flatmap(lambda n: image_tuples(n, count))


def mismatched_pairs():
    return st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(
        lambda nm: nm[0] != nm[1]).flatmap(
            lambda nm: st.tuples(image_tuples(nm[0], 1), image_tuples(nm[1], 1)))


# Plain-tuple references: images[i - 1] is the image of i, and the right
# factor applies first.
def tuple_product(p, q):
    return tuple(p[i - 1] for i in q)


def tuple_inverse(p):
    return tuple(sorted(range(1, len(p) + 1), key=lambda i: p[i - 1]))


def tuple_conjugate(y, x):
    return tuple_product(tuple_product(x, y), tuple_inverse(x))


def tuple_power(p, n):
    step = p if n >= 0 else tuple_inverse(p)
    out = tuple(range(1, len(p) + 1))
    for _ in range(abs(n)):
        out = tuple_product(out, step)
    return out


def assert_built_as(result, images):
    """result has the expected images, as a tuple, and equals and hashes
    like the same permutation built through the checking constructor."""
    assert type(result.images) is tuple
    assert result.images == images
    checked = Permutation(result.images)
    assert result == checked and hash(result) == hash(checked)


class TestKernel:
    @given(kernel_cases(2))
    def test_product(self, case):
        p, q = case
        assert_built_as(Permutation(p) * Permutation(q), tuple_product(p, q))

    @given(kernel_cases(1))
    def test_inverse(self, case):
        p, = case
        assert_built_as(Permutation(p).inverse(), tuple_inverse(p))

    @given(kernel_cases(2))
    def test_conjugate(self, case):
        # the conjugation kernel and PermGroup.conjugate agree with the
        # product x * y * x^-1 of checked permutations
        y, x = case
        px, py = Permutation(x), Permutation(y)
        expected = px * py * px.inverse()
        assert_built_as(Permutation._of(perm._conjugator(x)(y)), expected.images)
        assert (PermGroup(len(y), [py]).conjugate(px).element_set()
                == PermGroup(len(y), [expected]).element_set())

    @given(kernel_cases(2))
    def test_maps_on_image_tuples(self, case):
        # what the scans apply to bare tuples, each map made once per x
        y, x = case
        assert perm._times(x)(y) == tuple_product(y, x)
        assert perm._conjugator(x)(y) == tuple_conjugate(y, x)
        assert _power(x, 3) == tuple_power(x, 3)

    @given(kernel_cases(1))
    def test_is_identity(self, case):
        p, = case
        ident = tuple(range(1, len(p) + 1))
        assert Permutation(p).is_identity() == (p == ident)
        assert (Permutation(p) * Permutation(p).inverse()).is_identity()
        assert_built_as(Permutation.identity(len(p)), ident)
        assert Permutation.identity(len(p)).is_identity()

    @given(mismatched_pairs())
    def test_degree_mismatch(self, case):
        (p,), (q,) = case
        with pytest.raises(PreconditionError):
            Permutation(p) * Permutation(q)


class TestGenerators:
    def test_duplicates_and_identities_are_dropped_in_order(self):
        g = PermGroup(4, ["(1 2)", "()", "(2 3 4)", "(1 2)", Permutation.identity(4),
                          "(2 3 4)", "(1 3)"])
        assert [str(x) for x in g.generators] == ["(1 2)", "(2 3 4)", "(1 3)"]
        assert PermGroup(3, ["()", "()"]).generators == ()

    def test_degree_zero_is_refused(self):
        with pytest.raises(PreconditionError) as info:
            PermGroup(0)
        assert str(info.value) == "degree must be at least 1"

    @pytest.mark.parametrize("build, k", [
        (PermGroup.symmetric, 0), (PermGroup.alternating, 0), (PermGroup.cyclic, 0),
        (PermGroup.symmetric, -2), (PermGroup.alternating, -1), (PermGroup.cyclic, -1),
    ])
    def test_builtins_refuse_k_below_one(self, build, k):
        with pytest.raises(PreconditionError) as info:
            build(k)
        assert str(info.value) == "degree must be at least 1"

    def test_refused_degrees_leave_no_identity_behind(self, monkeypatch):
        monkeypatch.setattr(perm, "_IDENTITY", perm._IdentityImages())
        for k in (0, -1, -7):
            with pytest.raises(PreconditionError):
                PermGroup.cyclic(k)
        assert [k for k in perm._IDENTITY if k < 1] == []

    def test_builtins_of_degree_one_are_trivial(self):
        for build in (PermGroup.symmetric, PermGroup.alternating, PermGroup.cyclic):
            g = build(1)
            assert g.degree == 1 and g.order() == 1

    def test_builtins_drop_repeated_and_trivial_generators(self):
        # the long cycle of Sym(2) is its transposition, that of C_1 the identity
        assert PermGroup.symmetric(2).generators == (Permutation.parse("(1 2)", 2),)
        c1 = PermGroup.cyclic(1)
        assert c1.generators == () and c1.order() == 1
        assert c1.element_set() == {(1,)}

    def test_generator_of_another_degree_is_refused(self):
        with pytest.raises(PreconditionError) as info:
            PermGroup(3, [Permutation.parse("(1 2)", 4)])
        assert str(info.value) == "generator degree 4 does not match group degree 3"


class TestGroupOrder:
    def test_symmetric(self):
        # the chain's order, not the one the group starts with
        assert PermGroup.symmetric(3).chain().order() == 6
        assert PermGroup.symmetric(4).chain().order() == 24

    def test_trivial(self):
        assert PermGroup(5).order() == 1

    def test_trivial_group_builds_no_chain(self, monkeypatch):
        built = chain_builds(monkeypatch)
        for degree in (1, 2, 5):
            g = PermGroup(degree)
            assert g.order() == 1 and g.element_set() == {tuple(range(1, degree + 1))}
        assert built == []
        # a chain is still built on request, and it can be extended
        chain = PermGroup(3).chain()
        assert chain.order() == 1 and chain.add(Permutation.parse("(1 2)", 3))
        assert len(built) == 1 and chain.order() == 2

    def test_a_group_with_no_generator_left_builds_no_chain(self, monkeypatch):
        # no generators, only the identity, or a point stabiliser of a
        # regular group, whose Schreier generators are all trivial
        stabiliser = PermGroup.cyclic(9).point_stabiliser(1)
        built = chain_builds(monkeypatch)
        for g in (PermGroup(4), PermGroup(4, ["()", "(1)(2 )"]), stabiliser):
            identity = Permutation.identity(g.degree)
            assert g.generators == () and g.order() == 1
            assert identity in g and Permutation.from_cycles(g.degree, [[1, 2]]) not in g
            assert g.elements() == (identity,)
        assert built == []

    def test_block_sylow_spectrum_builds_no_chain(self, monkeypatch):
        built = chain_builds(monkeypatch)
        f = parse_group_spec("sylow:3:sym:27").group
        bmtree.scale_spectrum(f, 15, mode="exponents", prime=3)
        assert f.order() == 3 ** 13 and built == []

    def test_sylow_report_on_a_symmetric_group_builds_no_chain(self, monkeypatch, capsys):
        built = chain_builds(monkeypatch)
        assert cli.main(["sylow", "--group", "sym:32", "--prime", "2", "--json"]) == 0
        assert built == []
        halves = ["(1 2)"] + ["".join(f"({i} {i + h})" for i in range(1, h + 1))
                              for h in (2, 4, 8, 16)]
        assert capsys.readouterr().out == (
            '{"command": "sylow", "group": "sym:32", "prime": 2, "order": 2147483648, '
            '"index": "3^14*5^7*7^4*11^2*13^2*17*19*23*29*31", "generators": ['
            + ", ".join(f'"{c}"' for c in halves)
            + '], "law": "Sylow subgroup order is the p-part of the group order"}\n')

    def test_membership_builds_the_chain_once(self, monkeypatch):
        g = PermGroup.symmetric(6)
        built = chain_builds(monkeypatch)
        assert Permutation.parse("(1 2)", 6) in g and Permutation.parse("(1 6)", 6) in g
        assert len(built) == 1

    @pytest.mark.parametrize("name, g", corpus())
    def test_grown_sylow_answers_as_its_chain_does(self, name, g):
        for p in prime_factors(g.order()):
            grown = sylow_subgroup(g, p)
            chained = PermGroup(grown.degree, grown.generators)
            assert [x in grown for x in g.elements()] == [x in chained for x in g.elements()]
            assert grown.elements() == chained.elements()
            assert Permutation.identity(g.degree + 1) not in grown

    def test_grown_sylow_builds_no_chain(self, monkeypatch):
        g = PermGroup.alternating(5)
        elements = g.elements()
        built = chain_builds(monkeypatch)
        for p in (2, 3, 5):
            grown = sylow_subgroup(g, p)
            members = [x for x in elements if x in grown]
            assert grown.elements() == tuple(members) and len(members) == grown.order()
        assert built == []
        # a full symmetric group takes the block subgroups instead of growing
        s5 = PermGroup.symmetric(5)
        for p in (2, 3, 5):
            assert sylow_subgroup(s5, p).generators == sylow_of_symmetric(5, p).generators

    def test_two_cycles(self):
        g = PermGroup(6, ["(1 2 3)", "(4 5 6)"])
        assert g.order() == 9
        assert g.order() == len(brute_force_elements(6, g.generators))

    def test_large_degree_without_enumeration(self):
        assert PermGroup.symmetric(15).chain().order() == math.factorial(15)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_chain_matches_brute_force(self, k):
        for g in (PermGroup.symmetric(k), PermGroup.alternating(k),
                  PermGroup.cyclic(k), PermGroup.dihedral(k)):
            assert g.chain().order() == len(brute_force_elements(k, g.generators))

    @pytest.mark.parametrize("g", [
        *(build(k) for build in (PermGroup.symmetric, PermGroup.alternating, PermGroup.cyclic)
          for k in range(1, 13)),
        *(PermGroup.dihedral(k) for k in range(3, 13)),
        *(sylow_of_symmetric(k, p) for k in range(1, 17) for p in prime_factors(math.factorial(k))),
    ])
    def test_stated_order_is_the_chain_order(self, g):
        assert g.order() == perm._Chain(g.degree, g.generators).order()

    def test_element_list_matches_brute_force(self):
        g = PermGroup.dihedral(6)
        assert {e.images for e in g.elements()} == brute_force_elements(6, g.generators)

    def test_enumeration_bound_refusal(self):
        with pytest.raises(PreconditionError, match="enumeration bound"):
            PermGroup.symmetric(15).elements()

    def test_membership(self):
        g = PermGroup(6, ["(1 2 3)", "(4 5 6)"])
        assert Permutation.parse("(1 3 2)(4 6 5)", 6) in g
        assert Permutation.parse("(1 2)", 6) not in g

    def test_base_is_increasing(self):
        for g in (PermGroup.symmetric(5), PermGroup(6, ["(3 4)", "(1 2)", "(5 6)"])):
            base = chain_base(g)
            assert base == sorted(base)


def chain_base(g):
    """The points whose basic orbit in g's chain is longer than one."""
    return [i + 1 for i, trans in enumerate(g.chain().orbits) if len(trans) > 1]


def orbit(g, point):
    """The orbit of point under g, read from its transversal."""
    return set(g._transversal(point))


def suborbit_size(g, a, b):
    """|G_a . b|, read from g's orbital table."""
    table = g.orbitals()
    return table.sizes[table.index[a - 1][b - 1]]


class TestOrbits:
    def test_transitive_orbit(self):
        assert orbit(PermGroup.symmetric(4), 1) == {1, 2, 3, 4}

    def test_fixed_point(self):
        assert orbit(PermGroup(5, ["(1 2 3)"]), 4) == {4}

    def test_cycle_orbit(self):
        assert orbit(PermGroup(5, ["(1 2 3)"]), 2) == {1, 2, 3}

    def test_point_out_of_range(self):
        with pytest.raises(PreconditionError):
            orbit(PermGroup.symmetric(3), 4)

    def test_stabiliser_order(self):
        assert PermGroup.symmetric(4).point_stabiliser(1).order() == 6
        assert PermGroup(4).point_stabiliser(2).order() == 1

    def test_stabiliser_two_cycles(self):
        # frozen by filtering the 9 elements for those fixing 1
        g = PermGroup(6, ["(1 2 3)", "(4 5 6)"])
        stab = g.point_stabiliser(1)
        assert stab.order() == 3
        assert orbit(stab, 4) == {4, 5, 6}

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_orbit_stabiliser_identity(self, k):
        for g in (PermGroup.symmetric(k), PermGroup.alternating(k),
                  PermGroup.dihedral(k), PermGroup(k, ["(1 2 3)"])):
            for i in range(1, k + 1):
                assert g.order() == len(orbit(g, i)) * g.point_stabiliser(i).order()

    def test_suborbits(self):
        s4 = PermGroup.symmetric(4)
        assert suborbit_size(s4, 1, 2) == 3
        assert suborbit_size(s4, 1, 1) == 1
        assert suborbit_size(PermGroup(5, ["(1 2 3)"]), 4, 1) == 3

    def test_suborbit_index_identity(self):
        # |G_a . b| = |G_a| / |G_a meet G_b| on everything enumerable here
        for g in (PermGroup.symmetric(4), PermGroup.dihedral(5),
                  PermGroup(6, ["(1 2 3)", "(4 5 6)"])):
            for a in range(1, g.degree + 1):
                for b in range(1, g.degree + 1):
                    ga = g.point_stabiliser(a)
                    gb = g.point_stabiliser(b)
                    meet = ga.element_set() & gb.element_set()
                    assert suborbit_size(g, a, b) * len(meet) == ga.order()


def reference_schreier_generators(trans, gens):
    """The Schreier-generator loop in its plain three-product form, every
    pair multiplied out; ``point_stabiliser`` must give the same
    generators."""
    for pt in sorted(trans):
        u = trans[pt]
        for g in gens:
            sg = trans[g.images[pt - 1]].inverse() * g * u
            if not sg.is_identity():
                yield sg


def assert_stabilisers_pinned(g):
    for point in range(1, g.degree + 1):
        trans = _orbit_transversal(g.degree, point, g.generators)
        reference = PermGroup(g.degree, reference_schreier_generators(trans, g.generators))
        assert ([x.images for x in g.point_stabiliser(point).generators]
                == [x.images for x in reference.generators]), point


@st.composite
def gens_groups(draw):
    """A ``gens:`` group of degree at most 8 with up to three generators."""
    degree = draw(st.integers(1, 8))
    images = draw(st.lists(st.permutations(list(range(1, degree + 1))), max_size=3))
    cycles = ";".join(str(Permutation(im)) for im in images)
    return parse_group_spec(f"gens:{degree}:{cycles}").group


class TestStabiliserPinnedToThreeProductLoop:
    @pytest.mark.parametrize("name", [name for name, _ in corpus()])
    def test_corpus(self, name):
        assert_stabilisers_pinned(dict(corpus())[name])

    @settings(max_examples=80, deadline=None)
    @given(gens_groups())
    def test_random_groups(self, g):
        assert_stabilisers_pinned(g)


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
                  PermGroup(3)):
            table = g.orbitals()
            k = g.degree
            pairs = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1)]
            for a, b in pairs:
                images = {(x(a), x(b)) for x in g.elements()}
                here = table.index[a - 1][b - 1]
                assert images == {pr for pr in pairs
                                  if table.index[pr[0] - 1][pr[1] - 1] == here}
                assert table.labels[here] in images
                assert table.sizes[here] == len({x(b) for x in g.elements() if x(a) == a})
            assert list(table.labels) == sorted(table.labels)

    def test_write_once(self):
        g = PermGroup.symmetric(4)
        assert g.orbitals() is g.orbitals()


def reference_orbitals(g):
    """The orbital table built from the point stabiliser of the least point
    r of each orbit: one orbital (r, m) per suborbit of G_r, labelled by its
    least point m, and the row of each a in the orbit of r read through
    u^-1 for the transversal element u with u(r) = a.  ``orbitals()`` walks
    ordered pairs instead and must give the same table."""
    k = g.degree
    index = [None] * k
    labels, sizes = [], []
    for r in range(1, k + 1):
        if index[r - 1] is not None:
            continue
        stab = g.point_stabiliser(r)
        at_r = [-1] * k  # at_r[x - 1]: the orbital of (r, x)
        for m in range(1, k + 1):
            if at_r[m - 1] >= 0:
                continue
            suborbit = orbit(stab, m)
            for x in suborbit:
                at_r[x - 1] = len(labels)
            labels.append((r, m))
            sizes.append(len(suborbit))
        for a, u in g._transversal(r).items():
            index[a - 1] = tuple(at_r[x - 1] for x in u.inverse().images)
    return Orbitals(tuple(index), tuple(labels), tuple(sizes))


@st.composite
def block_groups(draw):
    """A group of degree at most 9 with up to three generators, each
    preserving the blocks {1..split} and {split+1..degree} or, by draw,
    any permutation; split < degree mostly gives an intransitive group."""
    degree = draw(st.integers(1, 9))
    split = draw(st.integers(1, degree))
    points = list(range(1, degree + 1))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            gens.append(Permutation(draw(st.permutations(points))))
        else:
            gens.append(Permutation(draw(st.permutations(points[:split]))
                                    + draw(st.permutations(points[split:]))))
    return PermGroup(degree, gens)


class TestOrbitalsPinnedToStabiliserConstruction:
    @pytest.mark.parametrize("name", [name for name, _ in corpus()])
    def test_corpus(self, name):
        g = dict(corpus())[name]
        assert g.orbitals() == reference_orbitals(g)

    @settings(max_examples=150, deadline=None)
    @given(block_groups())
    def test_random_groups(self, g):
        assert g.orbitals() == reference_orbitals(g)

    @pytest.mark.parametrize("spec", ["sym:32", "alt:32", "sylow:2:sym:32", "sylow:3:sym:27"])
    def test_large_degree(self, spec):
        g = parse_group_spec(spec).group
        assert g.orbitals() == reference_orbitals(g)


def transporter_images(g, a, b, c):
    """{f(c) : f in G, f(a) = b} for b in the orbit of a, read from the ball
    walk's suborbit table as ``orbit_count`` reads it: u_b applied to the
    G_r-orbit S of u_a^-1(c), with r the least point of the orbit, or the
    G-orbit of c minus u_b applied to its complement there."""
    trans, steps = balloracle._suborbit_table(g)[a]
    side, sign, orbit = steps[trans[a].index(c)]
    images = {trans[b][x] for x in side}
    return images if sign > 0 else set(orbit) - images


class TestTransporters:
    def test_sym4_example(self):
        # frozen from enumerating all 24 elements with f(1) = 2
        assert transporter_images(PermGroup.symmetric(4), 1, 2, 3) == {1, 3, 4}

    def test_trivial(self):
        assert transporter_images(PermGroup(3), 1, 1, 2) == {2}

    def test_transversal_keys_are_the_orbit(self):
        for g in (PermGroup(5, ["(1 2 3)"]), PermGroup(6, ["(1 2)", "(3 4 5 6)"]),
                  PermGroup(3), PermGroup.dihedral(5)):
            table = balloracle._suborbit_table(g)
            for a in range(1, g.degree + 1):
                assert set(table[a][0]) == {f(a) for f in g.elements()}, a

    def test_coset_law(self):
        # |{f(c): f(a)=b}| = |G_a . c| whenever b lies in the orbit of a
        for g in (PermGroup.symmetric(4), PermGroup.alternating(4),
                  PermGroup.dihedral(5)):
            for a in range(1, g.degree + 1):
                for b in orbit(g, a):
                    for c in range(1, g.degree + 1):
                        assert len(transporter_images(g, a, b, c)) == suborbit_size(g, a, c)

    def test_matches_brute_force(self):
        assert_transporters_brute_force(PermGroup.dihedral(4))

    @pytest.mark.parametrize("name", ["two_orbits", "sym3xc3", "c3_with_fixed_points"])
    def test_intransitive_matches_brute_force(self, name):
        # orbits whose least point is above 1: {3..6}, {4, 5, 6}, {2, 4, 5}
        g = {"two_orbits": PermGroup(6, ["(1 2)", "(3 4 5 6)"]),
             "sym3xc3": dict(corpus())["sym3xc3"],
             "c3_with_fixed_points": PermGroup(5, ["(2 4 5)"])}[name]
        assert_transporters_brute_force(g)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_groups_match_brute_force(self, seed):
        assert_transporters_brute_force(seeded_group(seed))


def assert_transporters_brute_force(g):
    """transporter_images(g, a, b, c) = {f(c) : f(a) = b} over the elements,
    for every a, every b in the orbit of a and every c."""
    points = range(1, g.degree + 1)
    for a in points:
        for b in points:
            movers = [f for f in g.elements() if f(a) == b]
            if not movers:
                continue
            for c in points:
                assert transporter_images(g, a, b, c) == {f(c) for f in movers}, (a, b, c)


def seeded_group(seed):
    """A group of degree 3 to 7 with one to three generators, each either
    any permutation or one preserving the blocks {1..split} and
    {split+1..degree}, so many of these groups are intransitive."""
    rng = random.Random(seed)
    degree = rng.randint(3, 7)
    split = rng.randint(1, degree)
    gens = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            gens.append(Permutation(rng.sample(range(1, degree + 1), degree)))
        else:
            gens.append(Permutation(rng.sample(range(1, split + 1), split)
                                    + rng.sample(range(split + 1, degree + 1), degree - split)))
    return PermGroup(degree, gens)


def same_subgroup(h, k):
    """H = K: equal degrees and orders, and H's generators lie in K."""
    return (h.degree == k.degree and h.order() == k.order()
            and all(x in k for x in h.generators))


def is_transitive(g):
    return len(orbit(g, 1)) == g.degree


def normaliser(g, h):
    """{x in G : x H x^-1 = H}, spanned from G's conjugator scan."""
    if h.degree != g.degree:
        raise PreconditionError("degree mismatch")
    if not is_subgroup(h, g):
        raise PreconditionError("normaliser requires H <= G")
    if not h.generators:
        return g
    return PermGroup._spanned(g.degree, frozenset(x.images for x in g.conjugators([(h, h)])))


def commutator_subgroup(g, h):
    """[G, H] for H <= G, which need not be normal: the normal closure in G
    of every commutator a^-1 b^-1 a b of a generator a of G and b of H,
    with no a-before-b shortcut."""
    return normal_closure(g, [a.inverse() * b.inverse() * a * b
                              for a in g.generators for b in h.generators])


def lower_central_series(g):
    """G, [G, G], [G, [G, G]], ... from the reference ``commutator_subgroup``,
    up to the trivial group or the last term before the first repeated
    order, where sympy's ``lower_central_series`` also stops."""
    series = [g]
    while series[-1].order() > 1:
        nxt = commutator_subgroup(g, series[-1])
        if nxt.order() == series[-1].order():
            break
        series.append(nxt)
    return series


def reference_cycle_string(images):
    """Disjoint-cycle notation of an image list, each cycle from its least
    point, ``()`` for the identity, walked on the list itself."""
    seen = set()
    out = []
    for start in range(1, len(images) + 1):
        if start in seen or images[start - 1] == start:
            continue
        cycle = [start]
        while images[cycle[-1] - 1] != start:
            cycle.append(images[cycle[-1] - 1])
        seen.update(cycle)
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) or "()"


class TestNormaliser:
    def test_self_normalising_sylow(self):
        s4 = PermGroup.symmetric(4)
        d8 = PermGroup(4, ["(1 2 3 4)", "(1 3)"])
        n = normaliser(s4, d8)
        assert n.order() == 8
        assert same_subgroup(n, d8)

    def test_normaliser_of_self(self):
        g = PermGroup.alternating(4)
        assert same_subgroup(normaliser(g, g), g)

    def test_three_cycle(self):
        s4 = PermGroup.symmetric(4)
        assert normaliser(s4, PermGroup(4, ["(1 2 3)"])).order() == 6

    def test_bound_refusal(self):
        big = PermGroup.symmetric(15)
        with pytest.raises(PreconditionError, match="enumeration bound"):
            normaliser(big, PermGroup(15, ["(1 2)"]))

    def test_requires_subgroup(self):
        with pytest.raises(PreconditionError):
            normaliser(PermGroup.alternating(4), PermGroup(4, ["(1 2)"]))


class TestPredicates:
    def test_transitivity(self):
        assert is_transitive(PermGroup.symmetric(4))
        assert not is_transitive(PermGroup(5, ["(1 2 3)"]))

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
        assert PermGroup(3).is_nilpotent()

    def test_derived_series_of_sym4(self):
        g = PermGroup.symmetric(4)
        orders = [g.order()]
        while orders[-1] > 1:
            g = commutator_subgroup(g, g)
            orders.append(g.order())
        assert orders == [24, 12, 4, 1]

    def test_commutators_with_a_subgroup_that_is_not_normal(self):
        # [G, H] need not lie in H: [S4, <(1 2 3)>] is A4, and its first
        # commutators already generate a group of order |H|; the closure of
        # the engine's commutators for a general H is the reference [G, H]
        s4 = PermGroup.symmetric(4)
        for h, order in ((PermGroup(4, ["(1 2 3)"]), 12), (PermGroup(4, ["(1 2)"]), 12),
                         (PermGroup(4, ["(1 2)(3 4)"]), 4), (PermGroup(4, ["(1 2 3 4)"]), 12)):
            got = normal_closure(s4, perm._commutators(s4, h))
            assert got.order() == order
            assert got.element_set() == commutator_subgroup(s4, h).element_set()

    def test_lower_central_stalls_for_sym3(self):
        g = PermGroup.symmetric(3)
        assert [h.order() for h in lower_central_series(g)] == [6, 3]
        assert nilpotent_residual(g).order() == 3
        assert nilpotent_residual(g) is g._derived["derived"]

    def test_solubility_and_residual_are_derived_once(self):
        for g, soluble, residual_order in ((PermGroup.symmetric(4), True, 12),
                                           (PermGroup.alternating(5), False, 60)):
            residual = nilpotent_residual(g)
            assert residual.order() == residual_order
            assert nilpotent_residual(g) is residual
            assert g.is_soluble() is soluble and g.is_soluble() is soluble
            derived = g._derived["derived"]
            assert derived.order() == residual_order
            assert g._derived == {"derived": derived, "nilpotent_residual": residual,
                                  "soluble": soluble}

    def test_both_series_share_one_derived_subgroup(self, monkeypatch):
        # [G, G] is the one closure of G up to |G|; a lower central step
        # [G, H] stops at |H| < |G|
        calls = []
        original = perm._closure

        def counting(g, seeds, ceiling):
            calls.append((g, ceiling))
            return original(g, seeds, ceiling)

        monkeypatch.setattr(perm, "_closure", counting)
        g = PermGroup.symmetric(4)
        assert g.is_soluble()
        assert nilpotent_residual(g) is g._derived["derived"]
        assert [(a, c) for a, c in calls if a is g and c == g.order()] == [(g, 24)]


class TestOrderCertificates:
    @pytest.mark.parametrize("name", sorted(ORDER_DECIDES) + sorted(ORDER_LEAVES_OPEN))
    def test_named_orders(self, name):
        degree, gens = {**ORDER_DECIDES, **ORDER_LEAVES_OPEN}[name]
        order = PermGroup(degree, gens).order()
        assert order == NAMED_ORDERS[name]
        assert perm._soluble_order(order) == (name in ORDER_DECIDES)

    def test_soluble_orders(self):
        # 4 does not divide n, or n has at most two prime divisors
        assert [n for n in range(1, 130) if not perm._soluble_order(n)] == [60, 84, 120]
        assert not perm._soluble_order(2 ** 2 * 3 * 5 * 7)
        assert perm._soluble_order(2 * 3 * 5 * 7 * 11) and perm._soluble_order(2 ** 9 * 3 ** 4)

    @pytest.mark.parametrize("g", [g for _, g in corpus()]
                             + [PermGroup(d, gens) for d, gens in ORDER_DECIDES.values()]
                             + [PermGroup.symmetric(4), PermGroup.dihedral(15)])
    def test_a_certified_group_walks_no_series(self, monkeypatch, g):
        calls = []
        monkeypatch.setattr(perm, "_closure", lambda *args: calls.append(args))
        assert g.is_soluble() and calls == [] and "derived" not in g._derived

    @pytest.mark.parametrize("g", [PermGroup.dihedral(4), sylow_of_symmetric(8, 2),
                                   PermGroup.cyclic(9), PermGroup(6, ["(1 2)(3 4)"])])
    def test_a_prime_power_group_is_nilpotent_with_no_series(self, monkeypatch, g):
        calls = []
        monkeypatch.setattr(perm, "_closure", lambda *args: calls.append(args))
        residual = nilpotent_residual(g)
        assert residual.order() == 1 and residual.generators == () and calls == []
        assert g.is_nilpotent() and g.is_soluble()

    def test_the_stall_step_stops_at_its_term(self, monkeypatch):
        # [A7, A7] = A7: the full closure keeps sifting after the chain has
        # reached |A7|, and the series step stops there
        formed = schreier_generators_formed(monkeypatch)
        a7 = PermGroup.alternating(7)
        comms = [a.inverse() * b.inverse() * a * b for a in a7.generators for b in a7.generators]
        assert full_normal_closure(a7, comms).order() == 2520
        full = len(formed)
        formed.clear()
        assert not PermGroup.alternating(7).is_soluble()
        assert 0 < len(formed) < full


class TestMemo:
    def test_make_runs_once(self):
        g = PermGroup.symmetric(3)
        made = []
        for _ in range(3):
            assert g._memo("key", lambda: made.append(1) or len(made)) == 1
        assert made == [1]

    def test_nothing_is_kept_when_make_raises(self):
        g = PermGroup.symmetric(3)

        def refuse():
            raise PreconditionError("refused")

        with pytest.raises(PreconditionError, match="refused"):
            g._memo("key", refuse)
        assert g._derived == {}
        assert g._memo("key", lambda: 7) == 7


class TestSubgroupAlgebra:
    def test_is_subgroup(self):
        assert is_subgroup(PermGroup.alternating(4), PermGroup.symmetric(4))
        assert not is_subgroup(PermGroup(4, ["(1 2)"]), PermGroup.alternating(4))

    def test_conjugate(self):
        g = Permutation.parse("(1 4)", 4)
        h = PermGroup(4, ["(1 2 3)"]).conjugate(g)
        assert h.order() == 3
        assert Permutation.parse("(4 2 3)", 4) in h

    def test_conjugate_by_the_identity_is_the_group(self):
        for g in (PermGroup.symmetric(4), PermGroup(3), PermGroup(5, ["(1 2 3)"]),
                  sylow_of_symmetric(6, 3), sylow_subgroup(parse_group_spec(S3_S3).group, 3)):
            assert g.conjugate(Permutation.identity(g.degree)) is g
        # the degree is checked before the identity shortcut, with or
        # without generators to conjugate
        for g, x in ((PermGroup(4, ["(1 2)"]), Permutation.identity(3)),
                     (PermGroup(3), Permutation.identity(4)),
                     (PermGroup(3), Permutation.parse("(1 2)", 4))):
            with pytest.raises(PreconditionError, match=r"^degree mismatch in conjugation$"):
                g.conjugate(x)

    def test_conjugate_keeps_the_element_set(self, monkeypatch):
        # a grown Sylow subgroup holds its element set, and so does each
        # conjugate: membership and listing on it build no chain
        s = sylow_subgroup(parse_group_spec(S3_S3).group, 3)
        x = Permutation.parse("(1 2 4)(3 6)", 6)
        built = chain_builds(monkeypatch)
        h = s.conjugate(x)
        expected = {(x * y * x.inverse()).images for y in s.elements()}
        assert h._element_set == expected and h.order() == 9
        assert all(Permutation._of(y) in h for y in expected)
        assert Permutation.parse("(1 2 3)", 6) not in h
        assert {y.images for y in h.elements()} == expected
        assert h._chain is None and built == []

    def test_conjugate_keeps_the_order(self, monkeypatch):
        built = chain_builds(monkeypatch)
        h = sylow_of_symmetric(6, 3).conjugate(Permutation.parse("(1 4)(2 6)", 6))
        assert h._order == 9 and h._chain is None and built == []
        assert h.order() == 9 and built == []

    @pytest.mark.parametrize("spec, p", [
        ("sylow:2:sym:8", 2), ("cyclic:9", 3),
        ("gens:8:(1 2);(1 3 5 7)(2 4 6 8)", 2),  # C2 wr C4
        ("sym:4", 2),
    ])
    def test_local_family_is_the_hand_conjugated_family(self, spec, p):
        f = parse_group_spec(spec).group
        root = sylow_subgroup(f, p)
        expected = {}
        for r in range(1, f.degree + 1):
            if r in expected:
                continue
            trans = root._transversal(r)
            start = root.point_stabiliser(r)
            q = _grow_sylow(f.point_stabiliser(r), p, start)
            for c, t in trans.items():
                expected[c] = {(t * y * t.inverse()).images for y in q.elements()}
        family = bmtree._local_sylow_family(f, p)
        assert {c: q.element_set() for c, q in family.items()} == expected

    def test_spanned_group_builds_no_second_chain(self, monkeypatch):
        g = PermGroup.symmetric(5)
        elements = g.elements()
        built = chain_builds(monkeypatch)
        spanned = PermGroup._spanned(5, g.element_set())
        assert spanned.order() == 120 and spanned._element_set is g.element_set()
        assert all(x in spanned for x in elements)
        assert PermGroup._spanned(5, PermGroup(5).element_set()).order() == 1
        # one chain per spanning set, extended in place and kept by the group
        assert len(built) == 2 and spanned._chain is built[0]


    def test_no_conjugator_between_groups_of_unequal_order(self):
        s4 = PermGroup.symmetric(4)
        pairs = [(PermGroup(4, ["(1 2)"]), PermGroup(4, ["(1 2 3)"]))]
        assert list(s4.conjugators(pairs)) == []

    def test_normal_closure(self):
        s4 = PermGroup.symmetric(4)
        closure = normal_closure(s4, [Permutation.parse("(1 2)(3 4)", 4)])
        assert closure.order() == 4
