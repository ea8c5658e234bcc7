"""Finite permutations of {1..k} and permutation groups.

Groups are given by generators.  A deterministic stabiliser chain (base
points 1, 2, ..., k in order; points fixed by the relevant stabiliser
contribute trivial levels) answers membership and lists elements, and gives
the order where the group's construction does not already prove it.  It is
built on first need, so a group asked only for its order may build none.

Composition convention: the right factor applies first, (p * q)(i) = p(q(i)).
Points are 1-based throughout.
"""

from __future__ import annotations

import itertools
import math
import re
from operator import itemgetter
from typing import NamedTuple

from .errors import ParseError, PreconditionError
from .supernat import prime_factors

# PermGroup._bounded_order(), and so every operation that lists elements,
# refuses above this order.
ENUMERATION_BOUND = 200_000

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class _IdentityImages(dict):
    """The image tuple (1, ..., k) of the identity, one per degree k."""

    def __missing__(self, k: int) -> tuple[int, ...]:
        images = self[k] = tuple(range(1, k + 1))
        return images


_IDENTITY = _IdentityImages()


class Permutation:
    """A permutation of {1..degree}; images[i-1] is the image of i."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if set(images) != set(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images!r}")
        self.images = images

    @classmethod
    def _of(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap a tuple already known to be a bijection of 1..len, unchecked."""
        perm = object.__new__(cls)
        perm.images = images
        return perm

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._of(_IDENTITY[degree])

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build a permutation from disjoint cycles given as point sequences."""
        images = list(range(1, degree + 1))
        seen = set()
        for cycle in cycles:
            cycle = list(cycle)
            for pt in cycle:
                if not 1 <= pt <= degree:
                    raise ParseError(f"point {pt} out of range 1..{degree}")
                if pt in seen:
                    raise ParseError(f"duplicate point {pt} in cycle notation")
                seen.add(pt)
            for a, b in zip(cycle, cycle[1:]):
                images[a - 1] = b
            if cycle:
                images[cycle[-1] - 1] = cycle[0]
        return cls._of(tuple(images))

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse disjoint-cycle notation, e.g. ``(1 2 3)(4 5)``; ``()`` is the
        identity."""
        stripped = text.strip()
        cycles = []
        consumed = 0
        for m in _CYCLE_RE.finditer(stripped):
            if stripped[consumed:m.start()].strip():
                raise ParseError(f"unexpected text in permutation: {text!r}")
            consumed = m.end()
            body = m.group(1).replace(",", " ").split()
            if not body:
                continue
            try:
                cycles.append([int(tok) for tok in body])
            except ValueError:
                raise ParseError(f"non-integer point in permutation: {text!r}") from None
        if stripped[consumed:].strip() or not consumed:
            raise ParseError(f"malformed permutation: {text!r}")
        return cls.from_cycles(degree, cycles)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= len(self.images):
            raise PreconditionError(f"point {point} out of range 1..{len(self.images)}")
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # Right factor first: (p * q)(i) = p(q(i)), q indexing p padded with 0
        if len(self.images) != len(other.images):
            raise PreconditionError("degree mismatch in composition")
        if len(self.images) == 1:
            return self
        return Permutation._of(itemgetter(*other.images)((0,) + self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images, 1):
            inv[img - 1] = i
        return Permutation._of(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == _IDENTITY[len(self.images)]

    def min_moved(self) -> int | None:
        for i, img in enumerate(self.images):
            if img != i + 1:
                return i + 1
        return None

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, least point first, sorted by least point."""
        seen = set()
        out = []
        for start in range(1, len(self.images) + 1):
            if start in seen or self.images[start - 1] == start:
                continue
            cyc = [start]
            pt = self.images[start - 1]
            while pt != start:
                seen.add(pt)
                cyc.append(pt)
                pt = self.images[pt - 1]
            out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        """Disjoint-cycle notation, ``()`` for the identity."""
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles()) or "()"

    def __repr__(self) -> str:
        return f"Permutation({str(self)!r}, degree={self.degree})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        # Canonical element ordering: lexicographic on image tuples.
        return self.images < other.images


# itemgetter of one index returns the bare item, not a 1-tuple, so the
# kernels answer degree 1, where the identity is all there is, apart.
def _times(xs: tuple[int, ...]):
    """The map h -> h x on image tuples, xs that of x: one getter call."""
    if len(xs) == 1:
        return lambda h: h
    return itemgetter(*[q - 1 for q in xs])


def _conjugator(xs: tuple[int, ...]):
    """The map y -> x y x^-1 on image tuples, xs that of x: y's images
    index x's 0-padded tuple (x y), and x^-1's images, 0-based, index that."""
    if len(xs) == 1:
        return lambda y: y
    back = [0] * len(xs)
    for i, img in enumerate(xs):
        back[img - 1] = i
    padded, right = (0,) + xs, itemgetter(*back)
    return lambda y: right(itemgetter(*y)(padded))


def _orbit_transversal(degree: int, point: int, gens, trans=None) -> dict[int, Permutation]:
    """Breadth-first orbit of point under gens: maps each q in the orbit to
    a product u of generators with u(point) = q.  Given trans, the orbit
    under all but the last generator, extends it in place: the old points
    meet only the last generator, the new ones all of them."""
    if trans is None:
        trans = {point: Permutation.identity(degree)}
        frontier, walk = [point], gens
    else:
        frontier, walk = list(trans), gens[-1:]
    while frontier:
        nxt = []
        for pt in frontier:
            u = trans[pt]
            for g in walk:
                q = g.images[pt - 1]
                if q not in trans:
                    trans[q] = g * u
                    nxt.append(q)
        frontier, walk = nxt, gens
    return trans


class _InverseImages(dict):
    """0-padded image tuples of the inverses of a transversal's elements,
    each made on first use and never changed after."""

    __slots__ = ("trans",)

    def __init__(self, trans: dict[int, Permutation]):
        super().__init__()
        self.trans = trans

    def __missing__(self, q: int) -> tuple[int, ...]:
        images = self[q] = (0,) + self.trans[q].inverse().images
        return images


def _schreier_generators(trans: dict[int, Permutation], gens, inverses: _InverseImages,
                         done: dict[int, int]):
    """The nontrivial Schreier generators t_{g(pt)}^-1 g t_pt of the point
    stabiliser, in (sorted point, generator) order, each two getter calls
    (degree 1 has no generators), the inverse from the memo ``inverses`` of
    trans.  ``done`` maps a point to the number of leading generators whose
    pairs with it are formed already; only later pairs are formed, each
    counted there before its generator is yielded."""
    gen_images = [(0,) + g.images for g in gens]
    for pt in sorted(trans):
        u = trans[pt].images
        identity, u = _IDENTITY[len(u)], itemgetter(*u)
        for n in range(done.get(pt, 0), len(gen_images)):
            g = gen_images[n]
            sg = itemgetter(*u(g))(inverses[g[pt]])
            if sg != identity:
                done[pt] = n + 1
                yield Permutation._of(sg)
        done[pt] = len(gen_images)


class _Chain:
    """Deterministic stabiliser chain with full ordered base (1, 2, ..., k),
    built by incremental Schreier-Sims.

    Level i has base point i+1 and an append-only list of the strong
    generators that fix 1..i, with the basic orbit of i+1 under them: a
    transversal extended in place whenever the list grows, so the memo of
    its inverses stays valid, 0-padded image tuples that a sift step and a
    Schreier generator index with one getter call.  A level whose orbit
    has grown past one point also keeps, per orbit point, how many of its
    generators have had their Schreier generator sifted, so no (point,
    generator) pair is sifted twice.

    Each orbit lies in the true basic orbit, so the orbit lengths of levels
    j.. multiply to at most the order of the group H_j those levels
    generate, a group on the k-j points j+1..k.  When they reach (k-j)!,
    H_j is Sym(j+1..k); when they reach (k-j)!/2 and the generators of
    level j-1 are all even, H_j is Alt(j+1..k) and the group of level j-1
    is even too.  Either way the orbits of levels j.. are the true ones and
    H_j holds every Schreier generator of level j-1, so that level needs no
    check (``_full_from``).  As level m's orbit has at most k-m points, the
    first case means that every level from j on is full, and the second,
    where the orbits are those of Alt(j+1..k), that levels j..k-3 are full
    and level k-2 is one point.  ``low`` is the least j from which levels
    j..k-3 are all full, and ``odd`` the deepest level known to hold an
    odd strong generator, -1 if none: it covers the first ``parities``
    generators of level 0, whose parities are found on first need.
    A build or an ``add`` may be given a ceiling, the order of a group known
    to hold the chain's group (``_complete``); the chain does not keep it.
    """

    __slots__ = ("degree", "gens", "orbits", "inverses", "done", "low", "odd", "parities")

    def __init__(self, degree: int, generators, ceiling: int | None = None):
        self.degree = degree
        identity = Permutation.identity(degree)
        self.gens: list[list[Permutation]] = [[] for _ in range(degree)]
        self.orbits: list[dict[int, Permutation]] = [{i + 1: identity} for i in range(degree)]
        self.inverses: list[_InverseImages | None] = [None] * degree
        self.done: list[dict[int, int] | None] = [None] * degree
        self.low = max(degree - 2, 0)
        self.odd = -1
        self.parities = 0
        for g in generators:  # distinct and nontrivial, as PermGroup keeps them
            self._place(g)
        self._complete(degree - 1, ceiling)

    def add(self, g: Permutation, ceiling: int | None = None) -> bool:
        """Extend the group by g, of the chain's degree, in place: sift g,
        place the residue and complete the chain from its level, up to the
        ceiling when one is given for the group that g extends.  False, with
        nothing changed, when g is already a member."""
        residue = self._sift_from(0, g.images)
        if residue is None:
            return False
        self._complete(self._place(Permutation._of(residue)), ceiling)
        return True

    def _place(self, g: Permutation) -> int:
        """Append the strong generator g to levels 0..j, j+1 its least moved
        point, extend their orbits and ``low`` and return j."""
        j = g.min_moved() - 1
        for i in range(j + 1):
            self.gens[i].append(g)
            trans = _orbit_transversal(self.degree, i + 1, self.gens[i], self.orbits[i])
            if self.done[i] is None and len(trans) > 1:
                self.inverses[i] = _InverseImages(trans)
                self.done[i] = {}
        while self.low and len(self.orbits[self.low - 1]) == self.degree - self.low + 1:
            self.low -= 1
        return j

    def _full_from(self, j: int) -> bool:
        """Whether the orbit lengths of levels j.. multiply to (k-j)!, or to
        (k-j)!/2 while every strong generator of level j-1 is even; read
        from ``low``, the orbit at level k-2 and ``odd``, as the class
        docstring says."""
        if j < self.low:
            return False
        if j >= self.degree - 1 or len(self.orbits[self.degree - 2]) == 2:
            return True
        for g in self.gens[0][self.parities:]:
            if sum(len(c) - 1 for c in g.cycles()) % 2:
                self.odd = max(self.odd, g.min_moved() - 1)
        self.parities = len(self.gens[0])
        return self.odd < j - 1

    def _complete(self, i: int, ceiling: int | None) -> None:
        """Sift the unsifted pairs of levels i, i-1, ..., 0, climbing back to
        the level of each new strong generator, until none is left.  A level
        whose next levels are full is passed over and its pairs stay
        unmarked: their Schreier generators lie in those levels already, and
        they are formed only if an odd generator added later voids the
        alternating case.  Given a ceiling, it returns as soon as the orbit
        lengths multiply to it, before the loop or after a new strong
        generator: each orbit lies in the true basic orbit, so every orbit
        is then the true one and every level complete."""
        if ceiling and ceiling == self.order():
            return
        while i >= 0:
            j = self._verify_level(i)
            if j is None:
                i -= 1
            elif ceiling and ceiling == self.order():
                return
            else:
                i = j

    def _verify_level(self, i: int) -> int | None:
        """Sift the unsifted Schreier generators of level i through the
        chain below; the level of a new strong generator, or None.  None at
        once when levels i+1.. are full, since they hold every Schreier
        generator of level i.  A Schreier generator that is a deeper strong
        generator is not sifted, and a level whose orbit is one point has
        no others."""
        if self.done[i] is None or self._full_from(i + 1):
            return None
        deeper = {g.images for g in self.gens[i + 1]}
        for sg in _schreier_generators(self.orbits[i], self.gens[i], self.inverses[i],
                                       self.done[i]):
            if sg.images not in deeper:
                residue = self._sift_from(i + 1, sg.images)
                if residue is not None:
                    return self._place(Permutation._of(residue))
        return None

    def _sift_from(self, start: int, h: tuple[int, ...]) -> tuple[int, ...] | None:
        """Divide the image tuple h, which fixes 1..start, by transversal
        elements, one getter call each (none at degree 1); None means membership."""
        identity = _IDENTITY[self.degree]
        for lvl in range(start, self.degree):
            if h == identity:
                return None
            t = h[lvl]
            if t == lvl + 1:
                continue
            if t not in self.orbits[lvl]:
                return h
            h = itemgetter(*h)(self.inverses[lvl][t])
        return None

    def contains(self, g: Permutation) -> bool:
        return self._sift_from(0, g.images) is None

    def order(self) -> int:
        n = 1
        for trans in self.orbits:
            n *= len(trans)
        return n

    def cosets(self):
        """(compose, count): the elements t_1 t_2 ... t_k, t_i from level
        i's transversal, as count cosets t H, one per t of the transversal
        of the first level whose orbit is not one point, in increasing point
        order, H the group of the levels below (one coset, the identity, if
        there is no such level).  compose(i) gives the image tuples of the
        i-th coset, unsorted: H is composed once, from the deepest level up,
        one getter per partial product applied to each 0-padded t_i (none at
        degree 1), and each coset is one getter per element of H."""
        levels = [[(0,) + trans[pt].images for pt in sorted(trans)]
                  for trans in self.orbits if len(trans) > 1]
        result = [_IDENTITY[self.degree]]
        for ts in levels[:0:-1]:
            getters = [itemgetter(*h) for h in result]
            result = [get(t) for t in ts for get in getters]
        if not levels:
            return lambda i: result, 1
        top, getters = levels[0], [itemgetter(*h) for h in result]
        return lambda i: [get(top[i]) for get in getters], len(top)


class Orbitals(NamedTuple):
    """The orbitals of G: its orbits on ordered pairs of points.

    ``index[a - 1][b - 1]`` numbers the orbital of (a, b).  Orbital o has
    label ``labels[o]`` = (r, m), its least pair: r is the least point of
    the orbit of a, and m the least point of the G_r-orbit of u^-1(b) for
    any u in G with u(r) = a.  Orbitals are numbered in label order, and
    ``sizes[o]`` is |G_a . b| for every (a, b) in orbital o: the number of
    pairs in o over the number of distinct first points among them.
    """

    index: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, int], ...]
    sizes: tuple[int, ...]


class PermGroup:
    """A permutation group on {1..degree} given by generators.

    Values are immutable; the stabiliser chain, order, sorted cosets of
    image tuples (``_scan``, the canonical listing, each filled on first
    reach), element list (the listing wrapped), element set (of image
    tuples, made unsorted) and orbital table are write-once caches.  So
    are, through ``_memo``, the values derived from the group as a whole:
    the least moved point b and |G_b| (key ``stabiliser``),
    ``is_soluble()``, the derived subgroup [G, G] (key ``derived``, shared
    by the derived and lower central series), ``nilpotent_residual``, per
    prime p ``sylow.sylow_subgroup`` (key ``("sylow", p)``, the designated
    Sylow subgroup F(p)), ``sylow.p_core`` and the
    local orbital table of ``bmtree``, the spectrum DP's plan of ``bmtree``
    (key ``("spectrum_plan", p)``, p None for values) and its values
    lattice (key ``("value_lattice", cap, reach)``, reach the word length
    bounded by the cap's bit length), and the suborbit table of the ball
    walk in ``balloracle``.  Transversals and point stabilisers are made
    afresh on every call.

    The chain is built on first need: by membership, by listing elements
    or by ``chain()`` itself, and by ``order()`` only when the order is not
    known.  ``symmetric``, ``alternating``, ``cyclic``, ``dihedral`` and
    ``sylow.sylow_of_symmetric`` start with their order (k!, k!/2, k, 2k
    and the p-part of k!), and a chain built for a group of known order
    stops once its orbit lengths multiply to that order.  A group with no
    generator left, and every Sylow subgroup that ``sylow`` grows, starts
    with its element set (the identity alone for the former), and tests
    membership and lists its elements from that set, with no chain; so
    does a group spanned from a subgroup's full element set (``_spanned``,
    for p-cores and basis normalisers).  A conjugate starts with what its
    group knows: the order and, when the group holds one, the conjugated
    element set.  Every scan reads the canonical listing one sorted coset
    at a time (``_scan``), so one that stops at a first witness lists no
    more of G, and wraps only the elements it returns.
    """

    __slots__ = ("degree", "generators", "_chain", "_order", "_cosets", "_elements",
                 "_element_set", "_orbitals", "_derived")

    def __init__(self, degree: int, generators=()):
        if degree < 1:
            raise PreconditionError("degree must be at least 1")
        self.degree = degree
        cleaned = []
        seen = {_IDENTITY[degree]}
        for g in generators:
            if isinstance(g, str):
                g = Permutation.parse(g, degree)
            if g.degree != degree:
                raise PreconditionError(
                    f"generator degree {g.degree} does not match group degree {degree}")
            if g.images not in seen:
                seen.add(g.images)
                cleaned.append(g)
        self.generators = tuple(cleaned)
        self._chain = None
        self._order = None
        self._cosets = None
        self._elements = None
        self._element_set = None
        self._orbitals = None
        self._derived = {}
        if not cleaned:  # the trivial group: its order and element set are known
            self._order, self._element_set = 1, frozenset([_IDENTITY[degree]])

    # -- constructors ------------------------------------------------------

    @classmethod
    def _known(cls, degree: int, generators=(), *, order: int | None = None,
               elements: frozenset[tuple[int, ...]] | None = None,
               chain: _Chain | None = None) -> "PermGroup":
        """The group generated by generators, with what its construction
        proves filled in: its order, its element set of image tuples (which
        gives the order) or its chain."""
        group = cls(degree, generators)
        if elements is not None:
            group._order, group._element_set = len(elements), elements
        elif order is not None:
            group._order = order
        group._chain = chain
        return group

    @classmethod
    def _spanned(cls, degree: int, members: frozenset[tuple[int, ...]]) -> "PermGroup":
        """The subgroup whose element set of image tuples is members, which
        it keeps with the chain it grew.  Its generators are the tuples, in
        canonical order, outside the group of those taken before them, taken
        on one chain that stops at order len(members): no later tuple is
        then outside."""
        n, chain, gens = len(members), _Chain(degree, ()), []
        for xs in sorted(members):
            g = Permutation._of(xs)
            if chain.add(g, n):
                gens.append(g)
                if chain.order() == n:
                    break
        return cls._known(degree, gens, elements=members, chain=chain)

    @classmethod
    def symmetric(cls, k: int) -> "PermGroup":
        if k < 2:
            return cls(k)
        # for k = 2 the long cycle is the transposition, dropped as a repeat
        return cls._known(k, [Permutation.from_cycles(k, [[1, 2]]),
                              Permutation.from_cycles(k, [range(1, k + 1)])],
                          order=math.factorial(k))

    @classmethod
    def alternating(cls, k: int) -> "PermGroup":
        if k < 3:
            return cls(k)
        # (1 2 3) and the long cycle of odd length: (1 ... k) or (2 ... k)
        return cls._known(k, [Permutation.from_cycles(k, [[1, 2, 3]]),
                              Permutation.from_cycles(k, [range(2 - k % 2, k + 1)])],
                          order=math.factorial(k) // 2)

    @classmethod
    def cyclic(cls, k: int) -> "PermGroup":
        return cls._known(k, [Permutation.from_cycles(k, [range(1, k + 1)])], order=k)

    @classmethod
    def dihedral(cls, k: int) -> "PermGroup":
        """Dihedral group of order 2k acting on the k vertices of a polygon."""
        if k < 3:
            raise PreconditionError("dihedral group needs at least 3 points")
        rot = Permutation.from_cycles(k, [list(range(1, k + 1))])
        refl = Permutation([1] + [k + 2 - i for i in range(2, k + 1)])
        return cls._known(k, [rot, refl], order=2 * k)

    def _memo(self, key, make):
        """The value derived under key, made by make() on first use and kept;
        nothing is kept when make() raises."""
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = make()
            return value

    # -- chain-backed primitives -------------------------------------------

    def chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _Chain(self.degree, self.generators, self._order)
        return self._chain

    def order(self) -> int:
        if self._order is None:
            self._order = self.chain().order()
        return self._order

    def __contains__(self, g: Permutation) -> bool:
        if self._element_set is not None:
            return g.images in self._element_set
        return g.degree == self.degree and self.chain().contains(g)

    def _bounded_order(self) -> int:
        """The order, refused above the enumeration bound: the one place
        the bound is checked, before anything lists elements."""
        if self.order() > ENUMERATION_BOUND:
            raise PreconditionError(f"group order {self.order()} exceeds "
                                    f"enumeration bound {ENUMERATION_BOUND}")
        return self.order()

    def _stabiliser(self) -> tuple[int, int]:
        """(b, |G_b|) for b the least point that G moves, 1 for the trivial
        group: |G| over the length of b's orbit, read from the element set
        when the group holds one and no chain, else from the chain.  Cached."""
        def make():
            b = min((x.min_moved() for x in self.generators), default=1)
            held = self._chain is None and self._element_set
            orbit = {xs[b - 1] for xs in held} if held else self.chain().orbits[b - 1]
            return b, self._bounded_order() // len(orbit)
        return self._memo("stabiliser", make)

    def _scan(self, skip: bool = False):
        """The image tuples of all elements in canonical order, from entry
        |G_b| on with skip.  Every element fixes the points before b, the
        least point that G moves, so the listing is the sorted cosets u_q
        G_b, q over b's orbit in increasing order, G_b first: the group's
        one ordered store.  Each coset is composed from the chain and
        sorted when a scan first reaches it, and kept; a group holding its
        element set sorts the set once instead, |G_b| entries a coset."""
        if self._cosets is None:
            inner = self._stabiliser()[1]
            if self._element_set is not None:
                listing = sorted(self._element_set)
                self._cosets = [listing[i:i + inner] for i in range(0, len(listing), inner)], None
            else:
                compose, count = self.chain().cosets()
                self._cosets = [None] * count, compose
        cosets, compose = self._cosets

        def coset(i: int) -> list[tuple[int, ...]]:
            if cosets[i] is None:
                cosets[i] = sorted(compose(i))
            return cosets[i]
        return itertools.chain.from_iterable(map(coset, range(skip, len(cosets))))

    def elements(self) -> tuple[Permutation, ...]:
        """All elements in canonical order."""
        if self._elements is None:
            self._elements = tuple(map(Permutation._of, self._scan()))
        return self._elements

    def element_set(self) -> frozenset[tuple[int, ...]]:
        """The image tuples of all elements, composed from the chain's
        cosets unsorted."""
        if self._element_set is None:
            self._bounded_order()
            compose, count = self.chain().cosets()
            self._element_set = frozenset(itertools.chain.from_iterable(map(compose, range(count))))
        return self._element_set

    # -- orbits and stabilisers --------------------------------------------

    def _transversal(self, point: int) -> dict[int, Permutation]:
        """Orbit transversal: maps q to some u in G with u(point) = q."""
        if not 1 <= point <= self.degree:
            raise PreconditionError(f"point {point} out of range 1..{self.degree}")
        return _orbit_transversal(self.degree, point, self.generators)

    def point_stabiliser(self, point: int) -> "PermGroup":
        """Stabiliser of a point, generated by Schreier generators."""
        return self._point_stabiliser(self._transversal(point))

    def _point_stabiliser(self, trans: dict[int, Permutation]) -> "PermGroup":
        """The stabiliser of the point whose transversal trans is, generated
        by the Schreier generators formed from trans."""
        return PermGroup(self.degree, _schreier_generators(
            trans, self.generators, _InverseImages(trans), {}))

    def orbitals(self) -> Orbitals:
        """The orbital table: one breadth-first walk over ordered pairs per
        orbital, started at the least pair not yet reached.  It reads no
        stabiliser or transversal, so it shares no code with the ball
        walk's suborbit table."""
        if self._orbitals is None:
            k = self.degree
            gens = [g.images for g in self.generators]
            at = [-1] * (k * k)  # at[(a - 1) * k + b - 1]: the orbital of (a, b)
            labels: list[tuple[int, int]] = []
            sizes: list[int] = []
            for start in range(k * k):
                if at[start] >= 0:
                    continue
                o = at[start] = len(labels)
                pairs = [divmod(start, k)]
                for a, b in pairs:  # the growing list is the breadth-first queue
                    for g in gens:
                        x, y = g[a] - 1, g[b] - 1
                        if at[x * k + y] < 0:
                            at[x * k + y] = o
                            pairs.append((x, y))
                labels.append((start // k + 1, start % k + 1))
                sizes.append(len(pairs) // len({a for a, _ in pairs}))
            self._orbitals = Orbitals(tuple(tuple(at[a:a + k]) for a in range(0, k * k, k)),
                                      tuple(labels), tuple(sizes))
        return self._orbitals

    # -- predicates ----------------------------------------------------------

    def is_soluble(self) -> bool:
        """Whether the derived series reaches a term whose order proves it
        soluble; it stops there, or at a perfect term, which is not."""
        return self._memo("soluble", lambda: _soluble_order(_series(
            self, PermGroup._derived_subgroup, _soluble_order).order()))

    def is_nilpotent(self) -> bool:
        return nilpotent_residual(self).order() == 1

    # -- subgroup algebra ----------------------------------------------------

    def _derived_subgroup(self) -> "PermGroup":
        """[G, G], the step of the derived series and the first step of the
        lower central series, a normal closure up to |G|.  Cached."""
        return self._memo("derived", lambda: _closure(self, _commutators(self, self),
                                                      self.order()))

    def conjugate(self, g: Permutation) -> "PermGroup":
        """The conjugate g G g^-1; G itself when g is its identity.  It
        starts with G's order and, when G holds one, G's element set
        conjugated by g."""
        if g.degree != self.degree:
            raise PreconditionError("degree mismatch in conjugation")
        gs = g.images
        if gs == _IDENTITY[self.degree]:
            return self
        conj = _conjugator(gs)
        members = self._element_set and frozenset(map(conj, self._element_set))
        return PermGroup._known(self.degree,
                                [Permutation._of(conj(h.images)) for h in self.generators],
                                order=self._order, elements=members)

    def conjugators(self, pairs):
        """Each x in G, in canonical order, with x H x^-1 = K for every
        pair (H, K); none when some pair has unequal orders.  It reads G
        one sorted coset at a time (``_scan``), so a caller that takes only
        the first stops there."""
        pairs = list(pairs)
        if any(h.order() != k.order() for h, k in pairs):
            return
        checks = [([y.images for y in h.generators], k.element_set()) for h, k in pairs]
        for xs in self._scan():
            conj = _conjugator(xs)
            if all(conj(y) in kset for gens, kset in checks for y in gens):
                yield Permutation._of(xs)


def is_subgroup(h: PermGroup, g: PermGroup) -> bool:
    return h.degree == g.degree and all(x in g for x in h.generators)


def meet_index(h: PermGroup, k: PermGroup) -> int:
    """|H : H meet K|, from the element set of the smaller group: its
    intersection with the larger one's when that is held, else one sift per
    tuple; the one place a subgroup meet is counted."""
    if h.degree != k.degree:
        raise PreconditionError(f"degree mismatch: {h.degree} and {k.degree}")
    small, big = (h, k) if h.order() <= k.order() else (k, h)
    members = small.element_set()
    if big._element_set is not None:
        return h.order() // len(members & big._element_set)
    sift = big.chain()._sift_from
    return h.order() // sum(sift(0, xs) is None for xs in members)


def normal_closure(g: PermGroup, seeds) -> PermGroup:
    """Smallest subgroup containing the seeds and normalised by G, grown on
    one chain that stops at |G|."""
    return _closure(g, seeds, g.order())


def _commutators(g: PermGroup, h: PermGroup) -> list[Permutation]:
    """The commutators [a, b] = a^-1 (b^-1 a b) of the generators a of G and
    b of H; for H = G only a before b, as [b, a] = [a, b]^-1."""
    maps = [_conjugator(b.inverse().images) for b in h.generators]
    return [a.inverse() * Permutation._of(conj(a.images)) for i, a in enumerate(g.generators)
            for conj in (maps[i + 1:] if h is g else maps)]


def _closure(g: PermGroup, seeds, ceiling: int) -> PermGroup:
    """The normal closure of the seeds in G on one chain, built and extended
    up to ceiling, the order of a subgroup of G known to hold the closure;
    once the chain reaches it, no conjugate is outside."""
    gens = list(PermGroup(g.degree, seeds).generators)
    chain = _Chain(g.degree, gens, ceiling)
    maps = [_conjugator(c.images) for c in g.generators]
    for x in gens:  # the growing list is the breadth-first queue
        if chain.order() == ceiling:
            break
        for conj in maps:
            y = Permutation._of(conj(x.images))
            if chain.add(y, ceiling):
                gens.append(y)
    return PermGroup._known(g.degree, gens, chain=chain)


def _soluble_order(n: int) -> bool:
    """Whether every group of order n is soluble, read from n alone: when 4
    does not divide n (odd order by Feit-Thompson, and order 2m with m odd
    has a normal subgroup of index 2, from the sign of the regular
    representation) or when n has at most two prime divisors (Burnside's
    p^a q^b theorem)."""
    return n % 4 != 0 or len(prime_factors(n)) <= 2


def _series(g: PermGroup, step, done) -> PermGroup:
    """The first term of g, step(g), step(step(g)), ... whose order done
    accepts, or the term before the first one whose order equals the one
    before.  Each step gives a subgroup of its argument, so the orders
    fall until then."""
    while not done(g.order()):
        nxt = step(g)
        if nxt.order() == g.order():
            break
        g = nxt
    return g


def nilpotent_residual(g: PermGroup) -> PermGroup:
    """Last term of the lower central series; G/residual is nilpotent.  The
    trivial group, with no series, when |G| is a prime power, as p-groups
    are nilpotent; a step [G, H] lies in the normal term H, so its closure
    stops at |H|.  Cached on g."""
    def residual():
        if len(prime_factors(g.order())) <= 1:
            return PermGroup(g.degree)
        return _series(g, lambda h: g._derived_subgroup() if h is g
                       else _closure(g, _commutators(g, h), h.order()), (1).__eq__)
    return g._memo("nilpotent_residual", residual)
