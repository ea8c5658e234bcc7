"""Brute-force orbit oracle on a finite ball of the coloured tree.

Counts the images of x^-m v under the pointwise stabiliser of [v, xv] by
walking transporter sets step by step along the extended colour word.  It
never uses the suborbit product formula, so it is an independent check of
the closed form.
"""

from __future__ import annotations

from .bmtree import AxisData
from .errors import PreconditionError
from .perm import PermGroup, _orbit_transversal

DEPTH_CAP = 12
GROUP_CAP = 100


def extended_word(a: AxisData, power: int) -> list[int]:
    """Colour word of [v, x^-power v]: m copies of the word, each twisted
    one step further by tau^-1."""
    seg = list(a.word)
    tw_inv = a.twist.inverse().images
    out: list[int] = []
    for _ in range(power):
        out.extend(seg)
        seg = [tw_inv[c - 1] for c in seg]
    return out


def _suborbit_table(f: PermGroup) -> dict[int, tuple[dict[int, tuple[int, ...]], list]]:
    """For each point a of F, the pair (transversal, steps) of its orbit,
    with r the orbit's least point.  The transversal maps each orbit point
    q to the image tuple of some u_q in F with u_q(r) = q.  It is built
    once per orbit, and F_r's generators are the Schreier generators formed
    from it, kept as a tuple, since every suborbit walk reads them.
    ``steps[x - 1]`` is (side, sign, O') for the F_r-orbit S of x and the
    F-orbit O' of x: side is S with sign 1, or O' - S with sign -1 when
    that is smaller, as 0-based points.  Cached on f."""
    def make():
        k = f.degree
        transversals = {}
        for r in range(1, k + 1):
            if r not in transversals:
                trans = f._transversal(r)
                transversals.update(dict.fromkeys(trans, trans))
        table = {}
        for r in range(1, k + 1):
            if r in table:
                continue
            trans = transversals[r]
            gens = f._point_stabiliser(trans).generators
            steps: list = [None] * k
            for x in range(1, k + 1):
                if steps[x - 1] is None:
                    suborbit = _orbit_transversal(k, x, gens)
                    orbit = tuple(transversals[x])
                    rest = [y for y in orbit if y not in suborbit]
                    side, sign = (rest, -1) if len(rest) < len(suborbit) else (suborbit, 1)
                    step = ([y - 1 for y in side], sign, orbit)
                    for y in suborbit:
                        steps[y - 1] = step
            images = {q: u.images for q, u in trans.items()}
            table.update(dict.fromkeys(trans, (images, steps)))
        return table
    return f._memo("suborbits", make)


def orbit_count(a: AxisData, power: int = 1) -> int:
    """|U . x^-power v| by transporter-set dynamic programming.

    The walk state is only (position, current image colour); the number of
    continuations from a state does not depend on how it was reached, which
    the exhaustive oracle verifies on small instances.  A step from colour
    d to colour c takes state b to {f(c) : f in F, f(d) = b}; with r the
    least point of the orbit of d and u_q the transversal element taking r
    to q, that set is u_b(S), S the F_r-orbit of u_d^-1(c).  Every u_b maps
    the F-orbit O' of c onto itself, so it is also O' - u_b(O' - S).  A
    step reads whichever of S and O' - S is smaller, as the table chose it:
    over S it adds each state's count at the points of u_b(S); over O' - S
    it starts every point of O' at the total count and subtracts each
    state's count at the points of u_b(O' - S).  For a 2-transitive F,
    O' - S is one point, so a step costs one update per state, not k - 1.
    The seam is the step from c_0 to the first colour, from the one state
    c_0.  The walk depth len(word) * power is checked before the extended
    word is built.
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
        trans, steps = table[prev]
        # the index of c in u_prev's images is u_prev^-1(c) - 1
        side, sign, orbit = steps[trans[prev].index(c)]
        # only the points of O' are written and read
        nxt = [0 if sign > 0 else sum(counts.values())] * (a.group.degree + 1)
        # every state b is an image of prev under F (the seam state is prev
        # itself, and a later one an image of the colour before), so b lies
        # in the orbit of prev and trans[b] exists
        for b, n in counts.items():
            u_b = trans[b]
            n *= sign
            for x in side:
                nxt[u_b[x]] += n
        counts, prev = {y: nxt[y] for y in orbit if nxt[y]}, c
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
