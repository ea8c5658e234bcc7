"""Transporter-walk and explicit-tuple oracle tests."""

import pytest

from treescale import balloracle
from treescale.acceptance import valid_axes
from treescale.balloracle import (DEPTH_CAP, GROUP_CAP, exhaustive_orbit_count,
                                  explicit_sequences, extended_word, orbit_count)
from treescale.bmtree import AxisData
from treescale.errors import PreconditionError
from treescale.groupspec import parse_group_spec
from treescale.perm import PermGroup, Permutation

S3 = PermGroup.symmetric(3)
S4 = PermGroup.symmetric(4)
C3_ON_5 = PermGroup(5, ["(1 2 3)"])


def axis(group, twist, word):
    tau = Permutation.identity(group.degree) if twist == "id" \
        else Permutation.parse(twist, group.degree)
    return AxisData(group, tau, tuple(word))


def reachable_sequences(a, power=1):
    """The full set of image colour sequences behind orbit_count, by brute
    force over the elements of F: a step from colour prev to colour c
    extends a sequence ending at b by every f(c) with f(prev) = b, starting
    from the seam colour, which is then dropped."""
    elems = a.group.elements()
    prev = a.seam_colour
    seqs = {(prev,)}
    for c in extended_word(a, power):
        seqs = {seq + (f(c),) for seq in seqs for f in elems if f(prev) == seq[-1]}
        prev = c
    return {seq[1:] for seq in seqs}


def test_extended_word_applies_inverse_twist():
    a = axis(C3_ON_5, "(1 2 3)", (3,))
    assert extended_word(a, 3) == [3, 2, 1]


def test_sym4_count():
    assert orbit_count(axis(S4, "id", (1, 2))) == 9


def test_trivial_group_counts_one():
    a = axis(PermGroup.trivial(4), "id", (1, 2))
    for m in (1, 2, 3):
        assert orbit_count(a, m) == 1


def test_power_two():
    assert orbit_count(axis(S4, "id", (1, 2)), 2) == 81


def test_power_zero_is_refused():
    with pytest.raises(PreconditionError, match=r"^power must be at least 1$"):
        orbit_count(axis(S4, "id", (1, 2)), 0)


def test_depth_cap():
    with pytest.raises(PreconditionError):
        orbit_count(axis(S4, "id", (1, 2, 3, 4)), 4)


def test_depth_cap_is_checked_before_the_word_is_built(monkeypatch):
    def refuse(a, power):
        raise AssertionError("the extended word was built")

    monkeypatch.setattr(balloracle, "extended_word", refuse)
    with pytest.raises(PreconditionError,
                       match=r"^walk depth 2000000000000 exceeds the cap 12$"):
        orbit_count(axis(S4, "id", (1, 2)), 10 ** 12)


def test_exhaustive_examples():
    assert exhaustive_orbit_count(axis(PermGroup.trivial(4), "id", (1, 2))) == 1
    assert exhaustive_orbit_count(axis(C3_ON_5, "id", (1, 4))) == 3
    assert exhaustive_orbit_count(axis(S3, "id", (1, 2))) == 4


def test_exhaustive_caps():
    with pytest.raises(PreconditionError):
        exhaustive_orbit_count(axis(PermGroup.symmetric(5), "id", (1, 2)))
    with pytest.raises(PreconditionError):
        exhaustive_orbit_count(axis(S3, "id", (1, 2, 3, 1)))


def test_walk_equals_explicit_tuples_everywhere_defined():
    for g in (S3, S4, PermGroup.alternating(4), C3_ON_5, PermGroup.dihedral(4)):
        elems = g.elements()
        words = [(1, 2), (2, 1, 2), (1, 2, 3), (3, 1)]
        for word in words:
            for tau in elems:
                if tau(word[-1]) == word[0]:
                    continue
                a = AxisData(g, tau, word)
                assert orbit_count(a) == exhaustive_orbit_count(a)


def test_counted_sequences_are_realised():
    # set equality: the walk neither misses nor invents image sequences
    for g in (S3, PermGroup.dihedral(4), C3_ON_5):
        for word in ((1, 2), (2, 3, 2)):
            for tau in g.elements():
                if tau(word[-1]) == word[0]:
                    continue
                a = AxisData(g, tau, word)
                assert reachable_sequences(a) == explicit_sequences(a)


def test_sequence_count_matches_orbit_count():
    a = axis(S4, "id", (1, 2))
    assert len(reachable_sequences(a, 2)) == orbit_count(a, 2)


def test_group_cap_constant_is_honoured():
    assert PermGroup.symmetric(5).order() > GROUP_CAP
    assert DEPTH_CAP == 12


@pytest.mark.parametrize("spec, least_points", [
    ("sym:6", [1]),
    ("gens:7:(1 2);(3 4 5 6)", [1, 3, 7]),
    ("gens:6:(1 2);(1 2 3);(4 5 6)", [1, 4]),
])
def test_walk_builds_one_stabiliser_per_orbit(spec, least_points, monkeypatch):
    # one stabiliser per orbit of F, at the orbit's least point, however
    # many walks read the table
    calls = []
    original = PermGroup.point_stabiliser

    def counting(g, point):
        calls.append((g, point))
        return original(g, point)

    monkeypatch.setattr(PermGroup, "point_stabiliser", counting)
    f = parse_group_spec(spec).group
    for a in valid_axes(f, 3):
        orbit_count(a)
    assert calls == [(f, r) for r in least_points]
