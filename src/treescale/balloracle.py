"""Brute-force orbit oracle on a finite ball of the coloured tree.

Counts the images of x^-m v under the pointwise stabiliser of [v, xv] by
walking transporter sets step by step along the extended colour word.  It
never uses the suborbit product formula, so it is an independent check of
the closed form.
"""

from __future__ import annotations

from collections import defaultdict

from .bmtree import AxisData, require_valid
from .errors import PreconditionError

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


def orbit_count(a: AxisData, power: int = 1) -> int:
    """|U . x^-power v| by transporter-set dynamic programming.

    The walk state is only (position, current image colour); the number of
    continuations from a state does not depend on how it was reached, which
    the exhaustive oracle verifies on small instances.  The walk depth
    len(word) * power is checked before the extended word is built.
    """
    require_valid(a)
    if power < 1:
        raise PreconditionError("power must be at least 1")
    depth = len(a.word) * power
    if depth > DEPTH_CAP:
        raise PreconditionError(f"walk depth {depth} exceeds the cap {DEPTH_CAP}")
    word = extended_word(a, power)
    f = a.group
    c0 = a.seam_colour
    counts: dict[int, int] = {b: 1 for b in f.transporter_images(c0, c0, word[0])}
    for i in range(1, len(word)):
        nxt: dict[int, int] = defaultdict(int)
        for b, n in counts.items():
            for b2 in f.transporter_images(word[i - 1], b, word[i]):
                nxt[b2] += n
        counts = dict(nxt)
    return sum(counts.values())


def exhaustive_applies(a: AxisData) -> bool:
    """Whether the explicit-tuple oracle takes the axis: group order at
    most GROUP_CAP and word length at most 3."""
    return a.group.order() <= GROUP_CAP and len(a.word) <= 3


def explicit_sequences(a: AxisData) -> set[tuple[int, ...]]:
    """Image sequences from explicit tuples of local actions (f_0..f_{n-1})
    with f_0 fixing the seam colour and each f_i matching the previous image."""
    require_valid(a)
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
