"""Brute-force orbit oracle on a finite ball of the coloured tree.

Counts the images of x^-m v under the pointwise stabiliser of [v, xv] by
walking transporter sets step by step along the extended colour word.  It
never uses the suborbit product formula, so it is an independent check of
the closed form.
"""

from __future__ import annotations

from collections import defaultdict

from .bmtree import AxisData
from .errors import PreconditionError
from .perm import PermGroup, Permutation, _orbit_transversal

DEPTH_CAP = 12
GROUP_CAP = 100


def extended_word(a: AxisData, power: int) -> list[int]:
    """Colour word of [v, x^-power v]: m copies of the word, each twisted
    one step further by tau^-1."""
    seg = list(a.word)
    tw_inv = a.twist.inverse()
    out: list[int] = []
    for _ in range(power):
        out.extend(seg)
        seg = [tw_inv(c) for c in seg]
    return out


def _suborbit_table(f: PermGroup) -> dict[int, tuple[dict[int, Permutation], dict]]:
    """For each point a of F, the pair (transversal, suborbits) of its orbit:
    with r the least point of the orbit, ``f._transversal(r)``, and the map
    from each point to its F_r-orbit, found by orbit walks under the
    generators of ``f.point_stabiliser(r)``.  So each orbit builds one
    stabiliser, and keeps no transversal of it.  Cached on f."""
    def make():
        table = {}
        for r in range(1, f.degree + 1):
            if r in table:
                continue
            trans = f._transversal(r)
            gens = f.point_stabiliser(r).generators
            orbits: dict[int, list[int]] = {}
            for x in range(1, f.degree + 1):
                if x not in orbits:
                    suborbit = list(_orbit_transversal(f.degree, x, gens))
                    orbits.update(dict.fromkeys(suborbit, suborbit))
            table.update(dict.fromkeys(trans, (trans, orbits)))
        return table
    return f._memo("suborbits", make)


def orbit_count(a: AxisData, power: int = 1) -> int:
    """|U . x^-power v| by transporter-set dynamic programming.

    The walk state is only (position, current image colour); the number of
    continuations from a state does not depend on how it was reached, which
    the exhaustive oracle verifies on small instances.  A step from colour
    prev to colour c takes state b to {f(c) : f in F, f(prev) = b}; with r
    the least point of the orbit of prev and u_q the transversal element
    taking r to q, that set is u_b applied to the F_r-orbit of
    u_prev^-1(c).  The seam is the step from c_0 to the first colour, from
    the one state c_0.  The walk depth len(word) * power is checked before
    the extended word is built.
    """
    if power < 1:
        raise PreconditionError("power must be at least 1")
    depth = len(a.word) * power
    if depth > DEPTH_CAP:
        raise PreconditionError(f"walk depth {depth} exceeds the cap {DEPTH_CAP}")
    table = _suborbit_table(a.group)
    prev = a.seam_colour
    counts: dict[int, int] = {prev: 1}
    for c in extended_word(a, power):
        trans, orbits = table[prev]
        # the index of c in u_prev's images is u_prev^-1(c) - 1
        suborbit = orbits[trans[prev].images.index(c) + 1]
        nxt: dict[int, int] = defaultdict(int)
        # every state b is an image of prev under F (the seam state is prev
        # itself, and a later one an image of the colour before), so b lies
        # in the orbit of prev and trans[b] exists
        for b, n in counts.items():
            u_b = trans[b].images
            for x in suborbit:
                nxt[u_b[x - 1]] += n
        counts, prev = nxt, c
    return sum(counts.values())


def exhaustive_applies(a: AxisData) -> bool:
    """Whether the explicit-tuple oracle takes the axis: group order at
    most GROUP_CAP and word length at most 3."""
    return a.group.order() <= GROUP_CAP and len(a.word) <= 3


def explicit_sequences(a: AxisData) -> set[tuple[int, ...]]:
    """Image sequences from explicit tuples of local actions (f_0..f_{n-1})
    with f_0 fixing the seam colour and each f_i matching the previous image."""
    if not exhaustive_applies(a):
        raise PreconditionError(f"exhaustive oracle refuses group order {a.group.order()} "
                                f"with word length {len(a.word)}")
    elems = [g.images for g in a.group.elements()]
    word = list(a.word)
    c0 = a.seam_colour
    n = len(word)
    seqs: set[tuple[int, ...]] = set()

    def rec(i: int, src: int, img: int, prefix: tuple[int, ...]) -> None:
        if i == n:
            seqs.add(prefix)
            return
        s, t = src - 1, word[i] - 1
        for g in elems:
            if g[s] == img:
                rec(i + 1, word[i], g[t], prefix + (g[t],))

    rec(0, c0, c0, ())
    return seqs


def exhaustive_orbit_count(a: AxisData) -> int:
    """Fully explicit second oracle; must agree with orbit_count."""
    return len(explicit_sequences(a))
