"""Axis arithmetic: validation, scale, inverse, modular, localisation,
spectra and case prediction.

Scale values marked as derived were computed with the transporter-walk
oracle before being frozen here; the oracle cross-checks run alongside.
"""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treescale import balloracle
from treescale.acceptance import valid_axes
from treescale.bmtree import (AxisData, _local_sylow_family, _local_table,
                              aggregate_scale, inverse_axis, localisation_scale,
                              localized_scale, modular, scale, scale_spectrum,
                              symscale_case)
from treescale.errors import InvalidAxisError, PreconditionError
from treescale.groupspec import parse_axis, parse_group_spec
from treescale.perm import PermGroup, Permutation, _Chain
from treescale.supernat import is_prime, prime_factors, rational_p_part, valuation
from treescale.sylow import sylow_of_symmetric, sylow_subgroup

from test_perm import chain_builds, same_subgroup

S3 = PermGroup.symmetric(3)
S4 = PermGroup.symmetric(4)
S5 = PermGroup.symmetric(5)
C3_ON_5 = PermGroup(5, ["(1 2 3)"])


@st.composite
def small_groups(draw):
    """A random group of degree at most 6.  Its generators preserve the
    blocks {1..split} and {split+1..degree}, so split < degree gives an
    intransitive group."""
    degree = draw(st.integers(1, 6))
    split = draw(st.integers(1, degree))
    low, high = list(range(1, split + 1)), list(range(split + 1, degree + 1))
    gens = draw(st.lists(st.tuples(st.permutations(low), st.permutations(high)),
                         min_size=1, max_size=3))
    return PermGroup(degree, [Permutation(a + b) for a, b in gens])


def axis(group, twist, word):
    if twist == "id":
        tau = Permutation.identity(group.degree)
    else:
        tau = Permutation.parse(twist, group.degree)
    return AxisData(group, tau, tuple(word))


def random_valid_axes(group, count, max_len, seed):
    rng = random.Random(seed)
    elems = group.elements()
    out = []
    while len(out) < count:
        n = rng.randint(1, max_len)
        word = [rng.randint(1, group.degree)]
        while len(word) < n:
            c = rng.randint(1, group.degree)
            if c != word[-1]:
                word.append(c)
        tau = elems[rng.randrange(len(elems))]
        try:
            out.append(AxisData(group, tau, tuple(word)))
        except InvalidAxisError:
            pass
    return out


def violations(group, twist, word):
    """The violations that building the axis raises, [] when it builds."""
    try:
        axis(group, twist, word)
    except InvalidAxisError as e:
        return e.violations
    return []


class TestValidation:
    def test_ok(self):
        assert violations(S4, "id", (1, 2)) == []

    def test_repeated_colour(self):
        assert any("repeated" in p for p in violations(S4, "id", (1, 1)))

    def test_twisted_singleton_ok(self):
        assert violations(C3_ON_5, "(1 2 3)", (3,)) == []

    def test_seam_violation(self):
        assert any("seam" in p for p in violations(S4, "id", (1, 2, 1)))

    def test_twist_membership(self):
        assert any("member" in p for p in violations(C3_ON_5, "(1 2)", (3,)))

    def test_colour_range(self):
        assert any("outside" in p for p in violations(S4, "id", (1, 7)))

    def test_empty_word(self):
        # the seam colour of an empty word does not exist
        assert violations(S4, "id", ()) == ["word is empty"]

    def test_every_violation_in_order(self):
        assert violations(C3_ON_5, "(1 2)", (7, 7, 1)) == [
            "colour 7 at position 1 outside 1..5", "colour 7 at position 2 outside 1..5",
            "repeated colour at positions 1,2",
            "twist is not a member of the local action group"]
        with pytest.raises(InvalidAxisError) as info:
            AxisData(S4, Permutation.identity(5), (1, 2))
        assert info.value.violations == ["twist degree does not match the colour count"]


class TestScale:
    def test_sym4_alternating(self):
        assert scale(axis(S4, "id", (1, 2))) == 9

    def test_trivial_group(self):
        assert scale(axis(PermGroup(4), "id", (1, 2))) == 1

    def test_fixed_point_word(self):
        assert scale(axis(C3_ON_5, "id", (1, 4))) == 3

    def test_rejects_invalid(self):
        with pytest.raises(InvalidAxisError):
            scale(axis(S4, "id", (1, 1)))

    def test_matches_walk_oracle_on_random_axes(self):
        for g in (S3, S4, PermGroup.alternating(4), C3_ON_5):
            for a in random_valid_axes(g, 25, 4, seed=11):
                assert scale(a) == balloracle.orbit_count(a)


class TestInverse:
    def test_identity_twist_reverses(self):
        inv = inverse_axis(axis(S4, "id", (1, 2)))
        assert inv.word == (2, 1)
        assert inv.twist.is_identity()

    def test_twisted_example(self):
        inv = inverse_axis(axis(C3_ON_5, "(1 2 3)", (3,)))
        assert inv.twist == Permutation.parse("(1 3 2)", 5)
        assert inv.word == (1,)
        # the walk oracle confirms the inverse axis carries the inverse scale
        assert balloracle.orbit_count(inv) == scale(inv)

    def test_involution(self):
        for g in (S3, S4, C3_ON_5):
            for a in random_valid_axes(g, 25, 4, seed=7):
                assert inverse_axis(inverse_axis(a)) == a

    @pytest.mark.parametrize("spec", ["sym:3", "sym:4", "alt:3", "alt:4", "cyclic:3",
                                      "cyclic:4", "gens:5:(1 2 3)"])
    def test_the_unchecked_inverse_passes_every_check(self, spec):
        # inverse_axis builds its result unchecked; building the same axis
        # through AxisData runs every check on it
        f = parse_group_spec(spec).group
        checked = 0
        for a in valid_axes(f, 3):
            inv = inverse_axis(a)
            assert AxisData(inv.group, inv.twist, inv.word) == inv
            assert inverse_axis(inv) == a
            checked += 1
        assert checked > 20

    def test_inverse_and_modular_sift_nothing(self, monkeypatch):
        axes = [a for g in (S4, PermGroup.alternating(4), C3_ON_5)
                for a in random_valid_axes(g, 20, 4, seed=29)]
        assert not all(a.twist.is_identity() for a in axes)
        sifts = []
        sift_from = _Chain._sift_from

        def spying(chain, start, g):
            sifts.append(g)
            return sift_from(chain, start, g)

        monkeypatch.setattr(_Chain, "_sift_from", spying)
        for a in axes:
            inverse_axis(a)
            modular(a)
        assert sifts == []
        # building an axis with a twist other than the identity does sift it
        f = PermGroup.symmetric(4)
        f.chain()
        sifts.clear()
        AxisData(f, Permutation.parse("(1 2)", 4), (3, 2))
        assert len(sifts) == 1


class TestModular:
    def test_examples(self):
        assert modular(axis(S4, "id", (1, 2))) == 1
        assert modular(axis(PermGroup(4), "id", (1, 2))) == 1
        assert modular(axis(C3_ON_5, "id", (1, 4))) == Fraction(3, 3)

    def test_unimodular_on_axis_families(self):
        for g in (S3, S4, PermGroup.alternating(4), PermGroup.dihedral(4), C3_ON_5):
            for a in random_valid_axes(g, 30, 4, seed=3):
                assert modular(a) == 1

    def test_p_part_reconstruction(self):
        for a in random_valid_axes(S4, 20, 4, seed=5):
            delta = modular(a)
            product = Fraction(1)
            for p in prime_factors(S4.order()):
                product *= rational_p_part(delta, p)
            assert product == delta


class TestLocalisation:
    def test_sym5_example(self):
        a = axis(S5, "id", (1, 4))
        assert scale(a) == 16
        assert localized_scale(a, 3) == 3

    def test_prime_above_degree(self):
        assert localized_scale(axis(S4, "id", (1, 2)), 5) == 1

    def test_sym6_example(self):
        # over the two-block Sylow restriction both factors have length 3;
        # the walk oracle agrees (exponent parity also forces an even power)
        a = axis(PermGroup.symmetric(6), "id", (1, 4))
        assert localized_scale(a, 3) == 9
        f = sylow_subgroup(PermGroup.symmetric(6), 3)
        assert balloracle.orbit_count(AxisData(f, a.twist, a.word)) == 9

    def test_twist_outside_restriction(self):
        a = axis(S5, "(4 5)", (1, 2))
        with pytest.raises(InvalidAxisError):
            localized_scale(a, 3)

    def test_sylow_subgroup_of_non_symmetric(self):
        f = sylow_subgroup(PermGroup.alternating(4), 2)
        assert f.order() == 4


# groups on which the local table is checked against its definition:
# sym:3-7, alt:4-6, dihedral:6, S3 wr S2 and AGL(1,7)
LOCAL_SPECS = ["sym:3", "sym:4", "sym:5", "sym:6", "sym:7", "alt:4", "alt:5",
               "alt:6", "dihedral:6", "gens:6:(1 2);(1 2 3);(1 4)(2 5)(3 6)",
               "gens:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)"]


def reference_localisation_scale(a, family):
    """The product of |Q_{c_{i-1}} : Q_{c_{i-1}} meet Q_{c_i}| along the
    word, seam colour first, each factor intersected afresh from the local
    Sylow family Q; ``localisation_scale`` reads the factors from the local
    orbital table instead and must give the same value."""
    prev, value = a.seam_colour, 1
    for c in a.word:
        here = family[prev].element_set()
        value *= len(here) // len(here & family[c].element_set())
        prev = c
    return value


class TestLocalisationScale:
    def test_open_local_sylow_gives_the_ambient_scale(self):
        # over sym:3 every F_c has order 2, so S has index |F : F(2)| = 3 in
        # U(F)_v and is open: both scales agree wherever the local one exists
        fp = sylow_subgroup(S3, 2)
        checked = 0
        for a in valid_axes(fp, 4):
            amb = AxisData(S3, a.twist, a.word)
            assert localisation_scale(amb, 2) == scale(amb)
            checked += 1
        assert checked > 40

    def test_p_group_gives_the_scale(self):
        for f, p in ((sylow_subgroup(S4, 2), 2), (C3_ON_5, 3),
                     (sylow_subgroup(PermGroup.symmetric(6), 3), 3)):
            for a in random_valid_axes(f, 20, 4, seed=19):
                assert localisation_scale(a, p) == scale(a)

    def test_twist_outside_the_sylow_subgroup(self):
        with pytest.raises(InvalidAxisError):
            localisation_scale(axis(S5, "(4 5)", (1, 2)), 3)

    def test_values(self):
        # F(3)_c is trivial for three colours of sym:4, but every F_c has a
        # Sylow 3-subgroup of order 3: each factor is 3 in the localisation,
        # while over the restriction only the factor at colour 4 is
        a = axis(S4, "id", (4, 1, 2))
        assert scale(a) == 27
        assert localisation_scale(a, 3) == 27
        assert localized_scale(a, 3) == 3
        # the local scale may exceed the ambient one
        b = axis(S5, "(1 4 2 3)", (4,))
        assert scale(b) == 4
        assert localisation_scale(b, 2) == 8

    def test_local_sylow_family(self):
        f = PermGroup.symmetric(5)
        for p in (2, 3, 5):
            root, family = sylow_subgroup(f, p), _local_sylow_family(f, p)
            assert sylow_subgroup(f, p) is root
            for c in range(1, 6):
                fc, q = f.point_stabiliser(c), family[c]
                assert all(x in fc for x in q.generators)
                assert q.order() == p ** valuation(fc.order(), p)
                assert all(x in q for x in root.point_stabiliser(c).generators)
                for pi in root.generators:
                    assert same_subgroup(q.conjugate(pi), family[pi(c)])

    def test_twist_is_checked_before_the_family_is_grown(self):
        # sym:10's point stabilisers are above the enumeration bound, so
        # growing the family would refuse; the twist check comes first
        f = PermGroup.symmetric(10)
        with pytest.raises(InvalidAxisError, match="local action group"):
            localisation_scale(axis(f, "(1 2 3)", (1, 2)), 2)
        assert ("local_table", 2) not in f._derived

    def test_local_table_is_write_once(self):
        f = PermGroup.symmetric(4)
        assert _local_table(f, 2) is _local_table(f, 2)

    @pytest.mark.parametrize("spec", LOCAL_SPECS)
    def test_local_weights_are_the_family_indices(self, spec):
        f = parse_group_spec(spec).group
        for p in prime_factors(f.order()):
            family, table = _local_sylow_family(f, p), _local_table(f, p)
            for a in range(1, f.degree + 1):
                for b in range(1, f.degree + 1):
                    qa, qb = family[a].element_set(), family[b].element_set()
                    weight = table.sizes[table.index[a - 1][b - 1]]
                    assert weight == len(qa) // len(qa & qb), (p, a, b)

    @pytest.mark.parametrize("spec", LOCAL_SPECS)
    def test_matches_the_per_factor_intersection(self, spec):
        f = parse_group_spec(spec).group
        for p in prime_factors(f.order()):
            family = _local_sylow_family(f, p)
            for a in valid_axes(sylow_subgroup(f, p), 3):
                amb = AxisData(f, a.twist, a.word)
                assert localisation_scale(amb, p) == reference_localisation_scale(amb, family)

    def test_p_powers_bounded_below_by_ambient_p_parts(self):
        for f in (S4, S5, PermGroup.alternating(5)):
            for p in prime_factors(f.order()):
                fp = sylow_subgroup(f, p)
                for a in random_valid_axes(fp, 15, 5, seed=23):
                    amb = AxisData(f, a.twist, a.word)
                    local = localisation_scale(amb, p)
                    assert local == p ** valuation(local, p)
                    assert valuation(scale(amb), p) <= valuation(local, p)


class TestIdentityTwist:
    """The identity lies in every group, so an axis of identity twist is
    checked without a membership test and builds no chain."""

    def test_parsing_builds_no_chain(self):
        g = PermGroup.symmetric(9)
        assert parse_axis(g, "twist=id; word=1,2").word == (1, 2)
        assert g._chain is None

    def test_aggregate_builds_no_local_chain(self, monkeypatch):
        f = PermGroup.symmetric(6)
        built = chain_builds(monkeypatch)
        assert aggregate_scale(axis(f, "id", (1, 4))) == 36
        # neither F nor any of F(2), F(3) and F(5)
        assert built == []

    def test_a_twist_outside_the_group_is_still_refused(self):
        member = "twist is not a member of the local action group"
        with pytest.raises(InvalidAxisError, match=member):
            axis(C3_ON_5, "(1 2)", (3,))
        for local in (localized_scale, localisation_scale):
            with pytest.raises(InvalidAxisError, match=member):
                local(axis(S5, "(4 5)", (1, 2)), 3)


@pytest.mark.parametrize("spec, p, chains", [
    ("cyclic:9", 3, 0), ("sylow:2:sym:8", 2, 1),
    ("gens:8:(1 2);(1 3 5 7)(2 4 6 8)", 2, 1),  # C2 wr C4
    ("sym:5", 2, 4),
])
def test_local_table_builds_one_chain_per_stabiliser(spec, p, chains, monkeypatch):
    # per F(p)-orbit, with r its least point, F_r's chain, and F(p)_r's
    # when F(p) is not F, unless that stabiliser is trivial (cyclic:9's
    # are); the family's conjugates carry their element sets, so the meets
    # build none
    f = parse_group_spec(spec).group
    f.chain()
    f.elements()
    built = chain_builds(monkeypatch)
    _local_table(f, p)
    fp = sylow_subgroup(f, p)
    roots = [r for r, m in fp.orbitals().labels if r == m]
    stabilisers = [g.point_stabiliser(r) for r in roots for g in {f, fp}]
    assert len(built) == chains == sum(1 for s in stabilisers if s.generators)


@pytest.mark.parametrize("spec, p", [
    ("sylow:2:sym:8", 2), ("cyclic:9", 3),
    ("gens:8:(1 2);(1 3 5 7)(2 4 6 8)", 2),  # C2 wr C4
    ("sym:4", 2),  # F(2) is not F
])
def test_local_family_builds_each_transversal_once(spec, p, monkeypatch):
    # one transversal of F(p) per F(p)-orbit gives both the stabiliser the
    # Sylow subgroup grows from and the conjugators along the orbit
    f = parse_group_spec(spec).group
    built = []
    original = PermGroup._transversal

    def counting(g, point):
        built.append((g, point))
        return original(g, point)

    monkeypatch.setattr(PermGroup, "_transversal", counting)
    _local_sylow_family(f, p)
    counts = Counter((id(g), point) for g, point in built)
    assert counts and set(counts.values()) == {1}


class TestAggregate:
    def test_trivial_ambient(self):
        assert aggregate_scale(axis(PermGroup(4), "id", (1, 2))) == 1

    def test_sym5_value(self):
        # 2-, 3- and 5-local scales are 4, 3 and 1
        assert aggregate_scale(axis(S5, "id", (1, 4))) == 12

    def test_rejects_nontrivial_twist(self):
        with pytest.raises(PreconditionError):
            aggregate_scale(axis(S3, "(1 2 3)", (1,)))


@pytest.mark.parametrize("spec, p", [
    ("sylow:2:sym:8", 2), ("cyclic:9", 3), ("dihedral:4", 2),
    ("gens:8:(1 2);(1 3 5 7)(2 4 6 8)", 2),  # C2 wr C4
])
class TestPGroupIsItsOwnDesignatedSylow:
    def test_sylow_subgroup_is_the_group(self, spec, p):
        f = parse_group_spec(spec).group
        assert sylow_subgroup(f, p) is f

    def test_local_and_aggregate_scales_are_the_scale(self, spec, p):
        f = parse_group_spec(spec).group
        for a in valid_axes(f, 3):
            assert localized_scale(a, p) == scale(a)
            if a.twist.is_identity():
                assert aggregate_scale(a) == scale(a)


class TestSpectrum:
    def test_sym3_values(self):
        sp = scale_spectrum(S3, 4)
        assert sp.entries == (1, 2, 4, 8, 16)
        assert not sp.truncated

    def test_trivial_group(self):
        assert scale_spectrum(PermGroup(4), 5).entries == (1,)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_len": 0}, "max_len must be at least 1"),
        ({"max_len": 3, "mode": "other"}, "unknown spectrum mode 'other'"),
        ({"max_len": 3, "prime": 3}, "values mode takes no prime, got 3"),
    ])
    def test_refusals(self, kwargs, message):
        with pytest.raises(PreconditionError) as info:
            scale_spectrum(S4, **kwargs)
        assert str(info.value) == message

    def test_two_block_exponents(self):
        f = sylow_subgroup(PermGroup.symmetric(6), 3)
        sp = scale_spectrum(f, 6, mode="exponents", prime=3)
        assert sp.entries == (0, 2, 4, 6)

    def test_monotone_in_length(self):
        for n in range(1, 5):
            small = set(scale_spectrum(S4, n).entries)
            large = set(scale_spectrum(S4, n + 1).entries)
            assert small <= large

    def test_truncation_flag(self):
        sp = scale_spectrum(S3, 4, cap=10)
        assert sp.entries == (1, 2, 4, 8)
        assert sp.truncated

    def test_deterministic(self):
        a = scale_spectrum(S4, 5)
        b = scale_spectrum(S4, 5)
        assert a == b

    def test_exponent_mode_needs_prime(self):
        for prime in (None, 4, 1):
            with pytest.raises(PreconditionError):
                scale_spectrum(S4, 4, mode="exponents", prime=prime)

    def test_values_contain_every_axis_scale(self):
        sp = set(scale_spectrum(S4, 3).entries)
        for a in random_valid_axes(S4, 40, 3, seed=13):
            assert scale(a) in sp

    def test_small_exponent_inclusion(self):
        # p-exponents of ambient values sit inside the local exponent spectrum
        ambient = scale_spectrum(S4, 3)
        local = scale_spectrum(sylow_subgroup(S4, 3), 9, mode="exponents",
                               prime=3, cap=8)
        for v in ambient.entries:
            assert valuation(v, 3) in local.entries

    def test_cap_below_the_unit_is_refused(self):
        for kwargs in ({"cap": 0}, {"cap": -1},
                       {"mode": "exponents", "prime": 3, "cap": -1}):
            with pytest.raises(PreconditionError, match="cap"):
                scale_spectrum(S4, 4, **kwargs)
        at_unit = scale_spectrum(S4, 4, cap=1)
        assert at_unit.entries == (1,) and at_unit.truncated
        at_zero = scale_spectrum(S4, 4, mode="exponents", prime=3, cap=0)
        assert at_zero.entries == (0,) and at_zero.truncated

    def test_relabelled_group_has_the_same_spectrum(self):
        rng = random.Random(5)
        for f, p in ((sylow_subgroup(PermGroup.symmetric(9), 3), 3),
                     (PermGroup(7, ["(1 2)(3 4)", "(5 6 7)"]), 2),
                     (PermGroup.dihedral(6), 2)):
            images = list(range(1, f.degree + 1))
            rng.shuffle(images)
            g = f.conjugate(Permutation(images))
            for kwargs in ({}, {"mode": "exponents", "prime": p, "cap": 20}):
                assert scale_spectrum(g, 7, **kwargs) == scale_spectrum(f, 7, **kwargs)

    @settings(max_examples=60, deadline=None)
    @given(small_groups(), st.integers(1, 4), st.sampled_from([2, 3, 5]))
    def test_equals_brute_force_over_valid_axes(self, f, n, p):
        # valid_axes visits every twist for every word, so the length is
        # cut until the brute force stays small
        while n > 1 and f.order() * f.degree * (f.degree - 1) ** (n - 1) > 5000:
            n -= 1
        scales = [scale(a) for a in valid_axes(f, n)]
        values = scale_spectrum(f, n, cap=10 ** 9)
        assert values.entries == tuple(sorted({1, *scales}))
        assert not values.truncated
        exponents = scale_spectrum(f, n, mode="exponents", prime=p, cap=10 ** 6)
        assert exponents.entries == tuple(sorted({0, *(valuation(v, p) for v in scales)}))
        assert not exponents.truncated


def reference_spectrum(f, max_len, mode="values", prime=None, cap=None):
    """(truncated, entries) from the spectrum DP run over the words of each
    exact length up to max_len in turn, stopping only when that frontier
    empties; ``scale_spectrum`` grows the set of words of length at most n
    instead, stops when a round reaches nothing new, and must give the same
    pair."""
    table = f.orbitals()
    index = table.index
    if mode == "values":
        cap = 10 ** 6 if cap is None else cap
        weights = table.sizes
        start = {1}

        def advance(accs, w):
            kept = {acc * w for acc in accs if acc * w <= cap}
            return kept, len(kept) < len(accs)
    else:
        cap = 12 if cap is None else cap
        weights = [valuation(size, prime) for size in table.sizes]
        start = 1
        full = (1 << (cap + 1)) - 1

        def advance(mask, w):
            moved = mask << w
            return moved & full, moved > full

    k = f.degree
    diagonal = [index[c][c] for c in range(k)]
    steps = [{(index[s - 1][c], weights[index[c][n - 1]])
              for c in range(k) if c != n - 1}
             for s, n in table.labels]
    seams = [{weights[index[x][s - 1]] for x in range(k)
              if x != s - 1 and diagonal[x] == diagonal[c - 1]}
             for s, c in table.labels]
    found = start
    truncated = False
    frontier = {o: start for o in set(diagonal)}
    for length in range(1, max_len + 1):
        if length > 1:
            new = {}
            for t, sources in enumerate(steps):
                for o, w in sources:
                    if o in frontier:
                        kept, over = advance(frontier[o], w)
                        truncated = truncated or over
                        if kept:
                            new[t] = new[t] | kept if t in new else kept
            frontier = new
            if not frontier:
                break
        for o, accs in frontier.items():
            for w in seams[o]:
                kept, over = advance(accs, w)
                truncated = truncated or over
                found = found | kept
    if mode == "values":
        return truncated, tuple(sorted(found))
    return truncated, tuple(e for e in range(found.bit_length()) if found >> e & 1)


C2_C3_C5 = "gens:10:(1 2);(3 4 5);(6 7 8 9 10)"
C2_C3_C5_C7 = "gens:17:(1 2);(3 4 5);(6 7 8 9 10);(11 12 13 14 15 16 17)"

SPECTRUM_SPECS = (["trivial:2", "sym:2", "alt:2", "cyclic:2"]
                  + [f"{kind}:{k}" for k in range(3, 8)
                     for kind in ("sym", "alt", "cyclic", "dihedral")]
                  + [f"sylow:{p}:sym:{k}" for k, p in
                     ((4, 2), (5, 3), (6, 2), (6, 3), (8, 2), (9, 3), (10, 5))]
                  # tables where many targets share a move
                  + ["dihedral:20", "cyclic:16", "sylow:5:sym:15", "sylow:7:sym:14"]
                  # suborbit sizes 1, 2, 3 and 5: a values lattice of three fields
                  + [C2_C3_C5])


def spectrum_options():
    yield {}
    # caps that cut the values lattice's fields: 1 keeps no weight but 1,
    # 12 and 36 cut the powers of 2 and 3 short of their reach
    for cap in (1, 12, 36, 50):
        yield {"cap": cap}
    for p in (2, 3):
        yield {"mode": "exponents", "prime": p}
        yield {"mode": "exponents", "prime": p, "cap": 3}


class TestSpectrumMatchesThePerLengthLoop:
    @pytest.mark.parametrize("spec", SPECTRUM_SPECS)
    def test_pinned_to_the_full_length_loop(self, spec):
        f = parse_group_spec(spec).group
        for kwargs in spectrum_options():
            for n in (1, 2, 3, 5, 8, 13, 21, 30):
                sp = scale_spectrum(f, n, **kwargs)
                assert (sp.truncated, sp.entries) == reference_spectrum(f, n, **kwargs)

    @settings(max_examples=40, deadline=None)
    @given(small_groups(), st.integers(1, 12))
    def test_pinned_on_random_groups(self, f, n):
        for kwargs in spectrum_options():
            sp = scale_spectrum(f, n, **kwargs)
            assert (sp.truncated, sp.entries) == reference_spectrum(f, n, **kwargs)

    @pytest.mark.parametrize("spec", ["cyclic:5", "trivial:2", "dihedral:4", "sylow:3:sym:5"])
    def test_huge_length_ends_with_the_length_40_result(self, spec):
        f = parse_group_spec(spec).group
        for kwargs in spectrum_options():
            huge = scale_spectrum(f, 10 ** 9, **kwargs)
            assert huge.max_len == 10 ** 9
            assert (huge.truncated, huge.entries) == reference_spectrum(f, 40, **kwargs)


def test_truncation_in_the_seam_pass_alone_is_flagged():
    # words of length <= 3 over sym:3 carry 1, 2 and 4, all within the cap;
    # only the seam factor 2 takes 4 to 8
    sp = scale_spectrum(S3, 3, cap=4)
    assert sp.truncated and sp.entries == (1, 2, 4)
    assert (sp.truncated, sp.entries) == reference_spectrum(S3, 3, cap=4)


def test_a_weight_above_the_cap_is_dropped_and_flagged():
    # sym:7's suborbit sizes are 1 and 6: every word has a seam factor 6
    f = parse_group_spec("sym:7").group
    for n in (1, 2, 3, 5, 8):
        sp = scale_spectrum(f, n, cap=5)
        assert sp.truncated and sp.entries == (1,)
        assert (sp.truncated, sp.entries) == reference_spectrum(f, n, cap=5)


def test_one_plan_per_weight_kind_whatever_the_cap():
    f = parse_group_spec("sylow:2:sym:6").group
    calls = [(9, {}), (9, {"mode": "exponents", "prime": 2}),
             (9, {"mode": "exponents", "prime": 3, "cap": 5}), (5, {"cap": 50})]
    for n, kwargs in calls:
        fresh = parse_group_spec("sylow:2:sym:6").group
        assert scale_spectrum(f, n, **kwargs) == scale_spectrum(fresh, n, **kwargs)
    plans = {key: value for key, value in f._derived.items() if key[0] == "spectrum_plan"}
    assert set(plans) == {("spectrum_plan", None), ("spectrum_plan", 2), ("spectrum_plan", 3)}
    lattices = {key: value for key, value in f._derived.items() if key[0] == "value_lattice"}
    assert set(lattices) == {("value_lattice", 10 ** 6, 9), ("value_lattice", 50, 5)}
    for n, kwargs in calls:
        scale_spectrum(f, n, **kwargs)
    assert all(f._derived[key] is plan for key, plan in plans.items())
    assert all(f._derived[key] is lattice for key, lattice in lattices.items())
    # every length from the cap's bit length on shares one lattice
    for n in (20, 21, 10 ** 9):
        scale_spectrum(f, n)
    assert [key for key in f._derived if key[0] == "value_lattice"] == [
        *lattices, ("value_lattice", 10 ** 6, 20)]


def test_exponent_memory_follows_the_answer_not_the_cap():
    f = parse_group_spec("sylow:2:sym:4").group
    f.orbitals()
    tracemalloc.start()
    try:
        huge = scale_spectrum(f, 3, mode="exponents", prime=2, cap=10 ** 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert huge.entries == scale_spectrum(f, 3, mode="exponents", prime=2, cap=40).entries


def test_value_memory_follows_the_reach_not_the_cap():
    f = parse_group_spec(C2_C3_C5_C7).group
    f.orbitals()
    tracemalloc.start()
    try:
        huge = scale_spectrum(f, 6, cap=10 ** 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert huge.entries == scale_spectrum(f, 6, cap=10 ** 12).entries


def local_contains(pred, e):
    """Whether the exponent e lies in the predicted local exponent set."""
    if pred.local_exponents == "zero-only":
        return e == 0
    if pred.local_exponents == "even-naturals":
        return e % 2 == 0
    if pred.local_exponents == "naturals-minus-one":
        return e != 1
    return True


class TestCasePrediction:
    @pytest.mark.parametrize("k,p,kind", [
        (4, 5, "zero-only"),
        (5, 5, "zero-only"),
        (6, 3, "even-naturals"),
        (15, 5, "naturals-minus-one"),
        (4, 3, "all-naturals"),
        (9, 3, "all-naturals"),
        (4, 2, "all-naturals"),
        (7, 3, "all-naturals"),
    ])
    def test_local_kinds(self, k, p, kind):
        assert symscale_case(k, p).local_exponents == kind

    def test_ambient_steps(self):
        assert symscale_case(7, 3).ambient_step == 1
        assert symscale_case(15, 5).ambient_step == 0
        assert symscale_case(9, 2).ambient_step == 3

    def test_rendering(self):
        pred = symscale_case(15, 5)
        assert pred.local_text() == "N0 \\ {1}"
        assert pred.ambient_text() == "{0}"

    def test_rejects_small_k(self):
        with pytest.raises(PreconditionError):
            symscale_case(2, 2)

    def test_prediction_matches_spectrum(self):
        # over all word lengths the computed local exponents up to the cap
        # are exactly the predicted set
        for k in range(3, 31):
            for p in filter(is_prime, range(2, k + 1)):
                pred = symscale_case(k, p)
                sp = scale_spectrum(sylow_of_symmetric(k, p), 10 ** 9,
                                    mode="exponents", prime=p, cap=40)
                expected = tuple(e for e in range(41) if local_contains(pred, e))
                assert sp.entries == expected, (k, p)


def test_power_law_against_oracle():
    for g in (S3, S4):
        for a in random_valid_axes(g, 10, 3, seed=17):
            s = scale(a)
            for m in (2, 3):
                if len(a.word) * m <= balloracle.DEPTH_CAP:
                    assert balloracle.orbit_count(a, m) == s ** m
