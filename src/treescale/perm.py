"""Finite permutations of {1..k} and permutation groups.

Groups are given by generators and carry a deterministic stabiliser chain
(base points 1, 2, ..., k in order; points fixed by the relevant stabiliser
contribute trivial levels).  The chain provides order, membership, element
enumeration and the orbit machinery everything else here is built from.

Composition convention: the right factor applies first, (p * q)(i) = p(q(i)).
Points are 1-based throughout.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .errors import EnumerationBoundError, ParseError, PreconditionError

# Operations that require a full element list refuse above this bound.
ENUMERATION_BOUND = 200_000

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A permutation of {1..degree}; images[i-1] is the image of i."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if set(images) != set(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images!r}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

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
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse disjoint-cycle notation, e.g. ``(1 2 3)(4 5)``; ``()`` is the
        identity.  With no explicit degree the largest point seen is used."""
        stripped = text.strip()
        cycles = []
        consumed = 0
        matched_any = False
        for m in _CYCLE_RE.finditer(stripped):
            if stripped[consumed:m.start()].strip():
                raise ParseError(f"unexpected text in permutation: {text!r}")
            consumed = m.end()
            matched_any = True
            body = m.group(1).replace(",", " ").split()
            if not body:
                continue
            try:
                cycles.append([int(tok) for tok in body])
            except ValueError:
                raise ParseError(f"non-integer point in permutation: {text!r}") from None
        if stripped[consumed:].strip() or not matched_any:
            raise ParseError(f"malformed permutation: {text!r}")
        if not cycles:
            if degree is None:
                raise ParseError("cannot infer degree of the identity")
            return cls.identity(degree)
        if any(pt < 1 for cyc in cycles for pt in cyc):
            raise ParseError(f"points must be >= 1: {text!r}")
        if degree is None:
            degree = max(pt for cyc in cycles for pt in cyc)
        return cls.from_cycles(degree, cycles)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= len(self.images):
            raise PreconditionError(f"point {point} out of range 1..{len(self.images)}")
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # Right factor first: (p * q)(i) = p(q(i)).
        if len(self.images) != len(other.images):
            raise PreconditionError("degree mismatch in composition")
        mine = self.images
        return Permutation(tuple(mine[q - 1] for q in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return Permutation(inv)

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(len(self.images))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self.images))

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

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __str__(self) -> str:
        return self.cycle_string()

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        # Canonical element ordering: lexicographic on image tuples.
        return self.images < other.images


def commutator(a: Permutation, b: Permutation) -> Permutation:
    """[a, b] = a^-1 b^-1 a b."""
    return a.inverse() * b.inverse() * a * b


def _orbit_transversal(degree: int, point: int, gens) -> dict[int, Permutation]:
    """Breadth-first orbit of point under gens: maps each q in the orbit to
    a product u of generators with u(point) = q."""
    trans = {point: Permutation.identity(degree)}
    frontier = [point]
    while frontier:
        nxt = []
        for pt in frontier:
            u = trans[pt]
            for g in gens:
                q = g(pt)
                if q not in trans:
                    trans[q] = g * u
                    nxt.append(q)
        frontier = nxt
    return trans


def _schreier_generators(trans: dict[int, Permutation], gens):
    """The nontrivial Schreier generators t_{g(pt)}^-1 g t_pt of the point
    stabiliser, in (sorted point, generator) order."""
    for pt in sorted(trans):
        u = trans[pt]
        for g in gens:
            sg = trans[g(pt)].inverse() * g * u
            if not sg.is_identity():
                yield sg


class _Chain:
    """Deterministic stabiliser chain with full ordered base (1, 2, ..., k).

    Level i has base point i+1 and holds the strong generators whose least
    moved point is i+1; each level stores the basic orbit of its base point
    under the generators of that and all deeper-numbered levels, together
    with a transversal.
    """

    __slots__ = ("degree", "level_gens", "orbits")

    def __init__(self, degree: int, generators):
        self.degree = degree
        self.level_gens: list[list[Permutation]] = [[] for _ in range(degree)]
        self.orbits: list[dict[int, Permutation] | None] = [None] * degree
        for g in generators:
            self._place(g)
        i = degree - 1
        while i >= 0:
            self.orbits[i] = _orbit_transversal(degree, i + 1, self._gens_from(i))
            added_at = self._verify_level(i)
            i = i - 1 if added_at is None else added_at

    def _place(self, g: Permutation) -> None:
        m = g.min_moved()
        if m is not None and g not in self.level_gens[m - 1]:
            self.level_gens[m - 1].append(g)

    def _gens_from(self, i: int) -> list[Permutation]:
        return [g for lvl in self.level_gens[i:] for g in lvl]

    def _verify_level(self, i: int) -> int | None:
        """Sift all Schreier generators of level i through the chain below.

        Returns the level index a new strong generator was added at, or None
        when the level verifies cleanly.
        """
        for sg in _schreier_generators(self.orbits[i], self._gens_from(i)):
            residue = self._sift_from(i + 1, sg)
            if residue is not None:
                j = residue.min_moved() - 1
                self.level_gens[j].append(residue)
                return j
        return None

    def _sift_from(self, start: int, g: Permutation) -> Permutation | None:
        """Divide g by transversal elements; None means membership."""
        h = g
        for lvl in range(start, self.degree):
            if h.is_identity():
                return None
            t = h(lvl + 1)
            if t == lvl + 1:
                continue
            trans = self.orbits[lvl]
            if trans is None or t not in trans:
                return h
            h = trans[t].inverse() * h
        return None if h.is_identity() else h

    def contains(self, g: Permutation) -> bool:
        return self._sift_from(0, g) is None

    def order(self) -> int:
        n = 1
        for trans in self.orbits:
            n *= len(trans)
        return n

    def base(self) -> list[int]:
        return [i + 1 for i, trans in enumerate(self.orbits) if len(trans) > 1]

    def elements(self) -> list[Permutation]:
        result = [Permutation.identity(self.degree)]
        for i in range(self.degree - 1, -1, -1):
            trans = self.orbits[i]
            if len(trans) == 1:
                continue
            result = [trans[pt] * h for pt in sorted(trans) for h in result]
        return result


class Orbitals(NamedTuple):
    """The orbitals of G: its orbits on ordered pairs of points.

    ``index[a - 1][b - 1]`` numbers the orbital of (a, b).  Orbital o has
    label ``labels[o]`` = (r, m), itself a pair in it: r is the least point
    of the orbit of a, and m the least point of the G_r-orbit of u^-1(b) for
    any u in G with u(r) = a.  Orbitals are numbered in label order, and
    ``sizes[o]`` is |G_a . b| for every (a, b) in orbital o.
    """

    index: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, int], ...]
    sizes: tuple[int, ...]


class PermGroup:
    """A permutation group on {1..degree} given by generators.

    Values are immutable; the stabiliser chain, order, element list,
    per-point stabilisers, the orbital table, and the designated Sylow
    subgroups F(p) and local Sylow families of ``bmtree`` (one per prime)
    are write-once caches.
    """

    __slots__ = ("degree", "generators", "_chain", "_order", "_elements",
                 "_element_set", "_stabilisers", "_transversals", "_orbitals",
                 "_sylows", "_local_sylows")

    def __init__(self, degree: int, generators=()):
        if degree < 1:
            raise PreconditionError("degree must be at least 1")
        self.degree = degree
        cleaned = []
        for g in generators:
            if isinstance(g, str):
                g = Permutation.parse(g, degree)
            if g.degree != degree:
                raise PreconditionError(
                    f"generator degree {g.degree} does not match group degree {degree}")
            if not g.is_identity() and g not in cleaned:
                cleaned.append(g)
        self.generators = tuple(cleaned)
        self._chain = None
        self._order = None
        self._elements = None
        self._element_set = None
        self._stabilisers = {}
        self._transversals = {}
        self._orbitals = None
        self._sylows = {}
        self._local_sylows = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree)

    @classmethod
    def symmetric(cls, k: int) -> "PermGroup":
        if k < 2:
            return cls.trivial(max(k, 1))
        gens = [Permutation.from_cycles(k, [[1, 2]])]
        if k > 2:
            gens.append(Permutation.from_cycles(k, [list(range(1, k + 1))]))
        return cls(k, gens)

    @classmethod
    def alternating(cls, k: int) -> "PermGroup":
        if k < 3:
            return cls.trivial(max(k, 1))
        return cls(k, [Permutation.from_cycles(k, [[1, 2, i]]) for i in range(3, k + 1)])

    @classmethod
    def cyclic(cls, k: int) -> "PermGroup":
        if k < 2:
            return cls.trivial(max(k, 1))
        return cls(k, [Permutation.from_cycles(k, [list(range(1, k + 1))])])

    @classmethod
    def dihedral(cls, k: int) -> "PermGroup":
        """Dihedral group of order 2k acting on the k vertices of a polygon."""
        if k < 3:
            raise PreconditionError("dihedral group needs at least 3 points")
        rot = Permutation.from_cycles(k, [list(range(1, k + 1))])
        refl = Permutation([1] + [k + 2 - i for i in range(2, k + 1)])
        return cls(k, [rot, refl])

    # -- chain-backed primitives -------------------------------------------

    def chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _Chain(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        if self._order is None:
            self._order = self.chain().order()
        return self._order

    def base(self) -> list[int]:
        return self.chain().base()

    def __contains__(self, g: Permutation) -> bool:
        return g.degree == self.degree and self.chain().contains(g)

    def elements(self, bound: int = ENUMERATION_BOUND) -> tuple[Permutation, ...]:
        if self._elements is None:
            if self.order() > bound:
                raise EnumerationBoundError(
                    f"group order {self.order()} exceeds enumeration bound {bound}")
            self._elements = tuple(sorted(self.chain().elements()))
        return self._elements

    def element_set(self, bound: int = ENUMERATION_BOUND) -> frozenset[Permutation]:
        if self._element_set is None:
            self._element_set = frozenset(self.elements(bound))
        return self._element_set

    def is_trivial(self) -> bool:
        return not self.generators

    # -- orbits and stabilisers --------------------------------------------

    def _check_point(self, point: int) -> None:
        if not 1 <= point <= self.degree:
            raise PreconditionError(f"point {point} out of range 1..{self.degree}")

    def _transversal(self, point: int) -> dict[int, Permutation]:
        """Orbit transversal: maps q to some u in G with u(point) = q."""
        self._check_point(point)
        cached = self._transversals.get(point)
        if cached is None:
            cached = _orbit_transversal(self.degree, point, self.generators)
            self._transversals[point] = cached
        return cached

    def orbit(self, point: int) -> set[int]:
        return set(self._transversal(point))

    def point_stabiliser(self, point: int) -> "PermGroup":
        """Stabiliser of a point, generated by Schreier generators."""
        self._check_point(point)
        cached = self._stabilisers.get(point)
        if cached is not None:
            return cached
        stab = PermGroup(self.degree,
                         _schreier_generators(self._transversal(point), self.generators))
        self._stabilisers[point] = stab
        return stab

    def orbitals(self) -> Orbitals:
        """The orbital table, built from the transversal and the point
        stabiliser of the least point of each orbit."""
        if self._orbitals is None:
            k = self.degree
            index: list[tuple[int, ...] | None] = [None] * k
            labels: list[tuple[int, int]] = []
            sizes: list[int] = []
            for r in range(1, k + 1):
                if index[r - 1] is not None:
                    continue
                stab = self.point_stabiliser(r)
                at_r = [-1] * k  # at_r[x - 1]: the orbital of (r, x)
                for m in range(1, k + 1):
                    if at_r[m - 1] >= 0:
                        continue
                    suborbit = stab.orbit(m)
                    for x in suborbit:
                        at_r[x - 1] = len(labels)
                    labels.append((r, m))
                    sizes.append(len(suborbit))
                for a, u in self._transversal(r).items():
                    index[a - 1] = tuple(at_r[x - 1] for x in u.inverse().images)
            self._orbitals = Orbitals(tuple(index), tuple(labels), tuple(sizes))
        return self._orbitals

    def suborbit_size(self, i: int, j: int) -> int:
        """|G_i . j|, the length of the suborbit of j at the point i."""
        self._check_point(i)
        self._check_point(j)
        table = self.orbitals()
        return table.sizes[table.index[i - 1][j - 1]]

    def transporter_images(self, a: int, b: int, c: int) -> set[int]:
        """{f(c) : f in G, f(a) = b}; empty iff b is not in the orbit of a."""
        self._check_point(c)
        trans = self._transversal(a)
        if b not in trans:
            return set()
        t = trans[b]
        return {t(x) for x in self.point_stabiliser(a).orbit(c)}

    # -- predicates ----------------------------------------------------------

    def is_transitive(self) -> bool:
        return len(self.orbit(1)) == self.degree

    def is_2transitive(self) -> bool:
        if self.degree < 2 or not self.is_transitive():
            return False
        return self.suborbit_size(1, 2) == self.degree - 1

    def _series_cap(self) -> int:
        return int(self.degree * math.log2(math.factorial(self.degree))) + 2

    def is_soluble(self) -> bool:
        h = self
        for _ in range(self._series_cap()):
            if h.order() == 1:
                return True
            d = derived_subgroup(h)
            if d.order() == h.order():
                return False
            h = d
        return False

    def is_nilpotent(self) -> bool:
        return nilpotent_residual(self).order() == 1

    # -- subgroup algebra ----------------------------------------------------

    def conjugate(self, g: Permutation) -> "PermGroup":
        """The conjugate g G g^-1."""
        ginv = g.inverse()
        return PermGroup(self.degree, [g * h * ginv for h in self.generators])

    def same_subgroup(self, other: "PermGroup") -> bool:
        return (self.degree == other.degree
                and self.order() == other.order()
                and all(g in other for g in self.generators))

    def normaliser(self, h: "PermGroup", bound: int = ENUMERATION_BOUND) -> "PermGroup":
        """{g in G : g h g^-1 = h}, by scanning the full element list."""
        if h.degree != self.degree:
            raise PreconditionError("degree mismatch")
        if not is_subgroup(h, self):
            raise PreconditionError("normaliser requires H <= G")
        if self.order() > bound:
            raise EnumerationBoundError(
                f"group order {self.order()} exceeds enumeration bound {bound}")
        if h.is_trivial():
            return self
        return PermGroup(self.degree, spanning_generators(
            self.degree, self.conjugators([(h, h)], bound)))

    def conjugators(self, pairs, bound: int = ENUMERATION_BOUND):
        """Each x in G, in canonical element order, with x H x^-1 = K for
        every pair (H, K); none when some pair has unequal orders."""
        pairs = list(pairs)
        if any(h.order() != k.order() for h, k in pairs):
            return
        checks = [(h.generators, k.element_set(bound)) for h, k in pairs]
        for x in self.elements(bound):
            xinv = x.inverse()
            if all(x * y * xinv in kset for gens, kset in checks for y in gens):
                yield x


def spanning_generators(degree: int, elements) -> list[Permutation]:
    """Greedy small generating set for the subgroup the elements generate."""
    gens: list[Permutation] = []
    group = PermGroup.trivial(degree)
    for x in elements:
        if x not in group:
            gens.append(x)
            group = PermGroup(degree, gens)
    return gens


def is_subgroup(h: PermGroup, g: PermGroup) -> bool:
    return h.degree == g.degree and all(x in g for x in h.generators)


def intersect(h: PermGroup, k: PermGroup, bound: int = ENUMERATION_BOUND) -> PermGroup:
    """H intersect K by enumerating the smaller factor."""
    if h.degree != k.degree:
        raise PreconditionError("degree mismatch")
    small, big = (h, k) if h.order() <= k.order() else (k, h)
    common = [x for x in small.elements(bound) if x in big]
    return PermGroup(h.degree, spanning_generators(h.degree, common))


def generated(groups) -> PermGroup:
    groups = list(groups)
    if not groups:
        raise PreconditionError("generated() needs at least one group")
    degree = groups[0].degree
    if any(g.degree != degree for g in groups):
        raise PreconditionError("degree mismatch")
    gens = [x for g in groups for x in g.generators]
    return PermGroup(degree, gens)


def normal_closure(g: PermGroup, seeds) -> PermGroup:
    """Smallest subgroup containing the seeds and normalised by G."""
    gens = [s for s in seeds if not s.is_identity()]
    closure = PermGroup(g.degree, gens)
    queue = list(closure.generators)
    gens = list(closure.generators)
    while queue:
        x = queue.pop(0)
        for c in g.generators:
            y = c * x * c.inverse()
            if y not in closure:
                gens.append(y)
                closure = PermGroup(g.degree, gens)
                queue.append(y)
    return closure


def derived_subgroup(g: PermGroup) -> PermGroup:
    comms = [commutator(a, b) for a in g.generators for b in g.generators]
    return normal_closure(g, comms)


def commutator_subgroup(g: PermGroup, h: PermGroup) -> PermGroup:
    """[G, H] for H <= G, as a normal closure in G."""
    comms = [commutator(a, b) for a in g.generators for b in h.generators]
    return normal_closure(g, comms)


def lower_central_series(g: PermGroup) -> list[PermGroup]:
    series = [g]
    for _ in range(g._series_cap()):
        nxt = commutator_subgroup(g, series[-1])
        if nxt.order() == series[-1].order():
            break
        series.append(nxt)
        if nxt.order() == 1:
            break
    return series


def nilpotent_residual(g: PermGroup) -> PermGroup:
    """Last term of the lower central series; G/residual is nilpotent."""
    return lower_central_series(g)[-1]
