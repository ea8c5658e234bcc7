"""Axis arithmetic: validation, scale, inverse, modular, localisation,
spectra and case prediction.

Scale values marked as derived were computed with the transporter-walk
oracle before being frozen here; the oracle cross-checks run alongside.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treescale import balloracle
from treescale.acceptance import valid_axes
from treescale.bmtree import (AxisData, _local_sylow_family, aggregate_scale,
                              build_alternating, build_tau_cycle,
                              designated_sylow, inverse_axis,
                              localisation_scale, localized_scale, modular,
                              scale, scale_spectrum, symscale_case,
                              validate_axis)
from treescale.errors import InvalidAxisError, PreconditionError
from treescale.perm import PermGroup, Permutation
from treescale.supernat import prime_factors, rational_p_part, valuation

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
        a = AxisData(group, tau, tuple(word))
        if not validate_axis(a):
            out.append(a)
    return out


class TestValidation:
    def test_ok(self):
        assert validate_axis(axis(S4, "id", (1, 2))) == []

    def test_repeated_colour(self):
        problems = validate_axis(axis(S4, "id", (1, 1)))
        assert any("repeated" in p for p in problems)

    def test_twisted_singleton_ok(self):
        assert validate_axis(axis(C3_ON_5, "(1 2 3)", (3,))) == []

    def test_seam_violation(self):
        problems = validate_axis(axis(S4, "id", (1, 2, 1)))
        assert any("seam" in p for p in problems)

    def test_twist_membership(self):
        problems = validate_axis(axis(C3_ON_5, "(1 2)", (3,)))
        assert any("member" in p for p in problems)

    def test_colour_range(self):
        problems = validate_axis(axis(S4, "id", (1, 7)))
        assert any("outside" in p for p in problems)

    def test_empty_word(self):
        assert validate_axis(AxisData(S4, Permutation.identity(4), ())) == ["word is empty"]


class TestScale:
    def test_sym4_alternating(self):
        assert scale(axis(S4, "id", (1, 2))) == 9

    def test_trivial_group(self):
        assert scale(axis(PermGroup.trivial(4), "id", (1, 2))) == 1

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
                assert validate_axis(inverse_axis(a)) == []


class TestModular:
    def test_examples(self):
        assert modular(axis(S4, "id", (1, 2))) == 1
        assert modular(axis(PermGroup.trivial(4), "id", (1, 2))) == 1
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
        f = designated_sylow(PermGroup.symmetric(6), 3)
        assert balloracle.orbit_count(AxisData(f, a.twist, a.word)) == 9

    def test_twist_outside_restriction(self):
        a = axis(S5, "(4 5)", (1, 2))
        with pytest.raises(InvalidAxisError):
            localized_scale(a, 3)

    def test_designated_sylow_of_non_symmetric(self):
        f = designated_sylow(PermGroup.alternating(4), 2)
        assert f.order() == 4


class TestLocalisationScale:
    def test_open_local_sylow_gives_the_ambient_scale(self):
        # over sym:3 every F_c has order 2, so S has index |F : F(2)| = 3 in
        # U(F)_v and is open: both scales agree wherever the local one exists
        fp = designated_sylow(S3, 2)
        checked = 0
        for a in valid_axes(fp, 4):
            amb = AxisData(S3, a.twist, a.word)
            assert localisation_scale(amb, 2) == scale(amb)
            checked += 1
        assert checked > 40

    def test_p_group_gives_the_scale(self):
        for f, p in ((designated_sylow(S4, 2), 2), (C3_ON_5, 3),
                     (designated_sylow(PermGroup.symmetric(6), 3), 3)):
            for a in random_valid_axes(f, 20, 4, seed=19):
                assert localisation_scale(a, p) == scale(a)

    def test_twist_outside_designated_sylow(self):
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
            root, family = designated_sylow(f, p), _local_sylow_family(f, p)
            assert designated_sylow(f, p) is root
            assert _local_sylow_family(f, p) is family
            for c in range(1, 6):
                fc, q = f.point_stabiliser(c), family[c]
                assert all(x in fc for x in q.generators)
                assert q.order() == p ** valuation(fc.order(), p)
                assert all(x in q for x in root.point_stabiliser(c).generators)
                for pi in root.generators:
                    assert q.conjugate(pi).same_subgroup(family[pi(c)])

    def test_p_powers_bounded_below_by_ambient_p_parts(self):
        for f in (S4, S5, PermGroup.alternating(5)):
            for p in prime_factors(f.order()):
                fp = designated_sylow(f, p)
                for a in random_valid_axes(fp, 15, 5, seed=23):
                    amb = AxisData(f, a.twist, a.word)
                    local = localisation_scale(amb, p)
                    assert local == p ** valuation(local, p)
                    assert valuation(scale(amb), p) <= valuation(local, p)


class TestAggregate:
    def test_trivial_ambient(self):
        assert aggregate_scale(axis(PermGroup.trivial(4), "id", (1, 2))) == 1

    def test_sym5_value(self):
        # 2-, 3- and 5-local scales are 4, 3 and 1
        assert aggregate_scale(axis(S5, "id", (1, 4))) == 12

    def test_rejects_nontrivial_twist(self):
        with pytest.raises(PreconditionError):
            aggregate_scale(axis(S3, "(1 2 3)", (1,)))


class TestSpectrum:
    def test_sym3_values(self):
        sp = scale_spectrum(S3, 4)
        assert sp.entries == (1, 2, 4, 8, 16)
        assert not sp.truncated

    def test_trivial_group(self):
        assert scale_spectrum(PermGroup.trivial(4), 5).entries == (1,)

    def test_two_block_exponents(self):
        f = designated_sylow(PermGroup.symmetric(6), 3)
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
        local = scale_spectrum(designated_sylow(S4, 3), 9, mode="exponents",
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
        for f, p in ((designated_sylow(PermGroup.symmetric(9), 3), 3),
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
        # every computed local exponent lies in the predicted set
        for k, p in ((4, 3), (5, 3), (6, 3), (5, 2), (9, 3)):
            pred = symscale_case(k, p)
            f = designated_sylow(PermGroup.symmetric(k), p)
            sp = scale_spectrum(f, 6, mode="exponents", prime=p)
            for e in sp.entries:
                assert pred.local_contains(e), (k, p, e)


class TestBuilders:
    def test_alternating(self):
        a = build_alternating(S4, 1, 2)
        assert scale(a) == 9
        assert a.word == (2, 1)

    def test_alternating_rejects_equal(self):
        with pytest.raises(PreconditionError):
            build_alternating(S4, 2, 2)

    def test_tau_cycle(self):
        a = build_tau_cycle(S3, Permutation.parse("(1 2 3)", 3), 1)
        assert a.word == (1,)
        assert scale(a) == 2

    def test_tau_cycle_needs_moved_colour(self):
        with pytest.raises(PreconditionError):
            build_tau_cycle(C3_ON_5, Permutation.parse("(1 2 3)", 5), 4)

    def test_tau_cycle_needs_membership(self):
        with pytest.raises(PreconditionError):
            build_tau_cycle(C3_ON_5, Permutation.parse("(1 2)", 5), 1)


def test_power_law_against_oracle():
    for g in (S3, S4):
        for a in random_valid_axes(g, 10, 3, seed=17):
            s = scale(a)
            for m in (2, 3):
                if len(a.word) * m <= balloracle.DEPTH_CAP:
                    assert balloracle.orbit_count(a, m) == s ** m
