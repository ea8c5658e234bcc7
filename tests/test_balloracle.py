"""Transporter-walk and explicit-tuple oracle tests."""

from collections import defaultdict

import pytest

from treescale import balloracle, perm
from treescale.acceptance import valid_axes
from treescale.balloracle import (DEPTH_CAP, GROUP_CAP, exhaustive_orbit_count,
                                  explicit_sequences, extended_word, orbit_count)
from treescale.bmtree import AxisData
from treescale.errors import PreconditionError
from treescale.groupspec import parse_group_spec
from treescale.perm import PermGroup, Permutation, _orbit_transversal

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
    a = axis(PermGroup(4), "id", (1, 2))
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
    assert exhaustive_orbit_count(axis(PermGroup(4), "id", (1, 2))) == 1
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
def test_walk_builds_one_transversal_and_schreier_set_per_orbit(spec, least_points,
                                                                monkeypatch):
    # per orbit of F, one transversal and one set of Schreier generators
    # formed from it, both at the orbit's least point, however many walks
    # read the table
    f = parse_group_spec(spec).group
    axes = list(valid_axes(f, 3))
    transversals, schreier_sets = [], []
    transversal = PermGroup._transversal
    schreier_generators = perm._schreier_generators

    def counting_transversal(g, point):
        transversals.append((g, point))
        return transversal(g, point)

    def counting_schreier_generators(trans, *args):
        schreier_sets.append(min(trans))
        return schreier_generators(trans, *args)

    monkeypatch.setattr(PermGroup, "_transversal", counting_transversal)
    monkeypatch.setattr(perm, "_schreier_generators", counting_schreier_generators)
    for a in axes:
        orbit_count(a)
    assert transversals == [(f, r) for r in least_points]
    assert schreier_sets == least_points


def reference_table(f):
    """The walk's table as it was before the smaller-side step: per orbit of
    F, with r its least point, F's transversal at r and the map from each
    point to its orbit under the generators of ``f.point_stabiliser(r)``."""
    table = {}
    for r in range(1, f.degree + 1):
        if r in table:
            continue
        trans = f._transversal(r)
        gens = f.point_stabiliser(r).generators
        orbits = {}
        for x in range(1, f.degree + 1):
            if x not in orbits:
                suborbit = list(_orbit_transversal(f.degree, x, gens))
                orbits.update(dict.fromkeys(suborbit, suborbit))
        table.update(dict.fromkeys(trans, (trans, orbits)))
    return table


def reference_orbit_count(a, table, power):
    """orbit_count with the step it had before the smaller side: every state
    b adds its count at each point of u_b(S), S the F_r-orbit of
    u_d^-1(c), over the table of ``reference_table``."""
    prev = a.seam_colour
    counts = {prev: 1}
    for c in extended_word(a, power):
        trans, orbits = table[prev]
        suborbit = orbits[trans[prev].images.index(c) + 1]
        nxt = defaultdict(int)
        for b, n in counts.items():
            u_b = trans[b].images
            for x in suborbit:
                nxt[u_b[x - 1]] += n
        counts, prev = nxt, c
    return sum(counts.values())


@pytest.mark.parametrize("spec", [
    "sym:3", "sym:4", "sym:5", "alt:4", "alt:5", "cyclic:6", "dihedral:5",
    "gens:6:(1 2);(1 2 3);(1 4)(2 5)(3 6)",  # S3 wr S2
    "gens:8:(1 2);(1 3 5 7)(2 4 6 8)",  # C2 wr C4
    "sylow:2:sym:8", "gens:7:(1 2);(3 4 5 6)",
])
def test_walk_equals_the_adding_walk(spec):
    """Subtracting over O' - S counts what adding over S counts, on every
    axis of length at most 3 at powers 1 to 3: 2-transitive groups, whose
    steps subtract, regular ones, whose steps add, and intransitive ones."""
    f = parse_group_spec(spec).group
    table = reference_table(f)
    for a in valid_axes(f, 3):
        for power in (1, 2, 3):
            assert orbit_count(a, power) == reference_orbit_count(a, table, power), \
                (a.describe(), power)


@pytest.mark.parametrize("spec, subtracting", [
    ("sym:5", 4), ("alt:5", 4), ("cyclic:6", 0),
    # with r = 1, 3, 7: the points 3..7, 1 2 7 and 1..7, whose S is O'
    ("gens:7:(1 2);(3 4 5 6)", 15),
])
def test_the_table_takes_the_smaller_side(spec, subtracting):
    """side is the smaller of S and O' - S, O' - S only when strictly
    smaller; O' is the F-orbit of x.  On a 2-transitive group every point
    but r subtracts, and on a regular one none does."""
    f = parse_group_spec(spec).group
    found = 0
    for r in {min(trans) for trans, _ in balloracle._suborbit_table(f).values()}:
        trans, steps = balloracle._suborbit_table(f)[r]
        stabiliser = [g for g in f.elements() if g(r) == r]
        for x in range(1, f.degree + 1):
            side, sign, orbit = steps[x - 1]
            suborbit = {g(x) for g in stabiliser}
            rest = set(orbit) - suborbit
            assert set(orbit) == {g(x) for g in f.elements()}
            assert {y + 1 for y in side} == (suborbit if sign > 0 else rest)
            assert (sign < 0) == (len(rest) < len(suborbit))
            found += sign < 0
    assert found == subtracting
