"""Sylow subgroups, cores, the Fitting subgroup, Sylow bases and the Hall
covering check for finite permutation groups.

Everything here is deterministic: searches scan elements in the canonical
(image-lexicographic) order, and a Sylow basis takes, prime by prime in
increasing order, the first conjugate that fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import PreconditionError
from .perm import (PermGroup, Permutation, _conjugator, _times, is_subgroup, meet_index,
                   nilpotent_residual, normal_closure)
from .supernat import is_prime, prime_factors, valuation


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")


def p_part_of_order(g: PermGroup, p: int) -> int:
    return p ** valuation(g.order(), p)


def sylow_subgroup(g: PermGroup, p: int) -> PermGroup:
    """The designated Sylow p-subgroup of g, F(p) of ``bmtree``, cached on
    g, write-once per prime: the block subgroup ``sylow_of_symmetric`` when
    |g| = k! on k points, g itself when |g| is a power of p, and otherwise
    grown from the trivial group by ``_grow_sylow``."""
    _require_prime(p)

    def make() -> PermGroup:
        if g.order() == factorial(g.degree):
            return sylow_of_symmetric(g.degree, p)
        if g.order() == p_part_of_order(g, p):
            return g
        return _grow_sylow(g, p, PermGroup(g.degree))
    return g._memo(("sylow", p), make)


def _grow_sylow(g: PermGroup, p: int, start: PermGroup) -> PermGroup:
    """A Sylow p-subgroup of g containing its p-subgroup ``start``, grown
    one p-step at a time.

    At each step the elements of g are scanned in canonical element order
    for the first one outside the current p-subgroup H that normalises H
    and has its p-th power in H, which gives it p-power order.  Adjoining
    such an x multiplies the order by exactly p, as <H, x> is the union of
    the cosets H x^i for i < p, so the steps grow a set of image tuples by
    multiplication and only the result is built as a ``PermGroup``, its
    element set and order already known, so that membership and listing on
    it need no chain.  Such an element exists while H is not Sylow, since H
    is then a proper normal subgroup of a p-subgroup of its normaliser.

    The scan reads the listing one coset of G_b at a time, b the least
    point that g moves (``PermGroup._scan``), and stops at the witness.
    When every generator of H fixes b and |H| is the p-part of |G_b|, H is
    Sylow in G_b, so no witness lies there (it would give a larger
    p-subgroup of G_b) and the scan starts after G_b, which leads the
    listing: for H = 1 that is when p does not divide |G_b|.
    """
    target = p_part_of_order(g, p)
    gens = list(start.generators)
    members = set(start.element_set())
    while len(members) < target:
        images = [y.images for y in gens]
        b, inner = g._stabiliser()
        # when H fixes b, |H| divides |G_b|: it is the p-part iff p|H| does not
        skip = inner % (p * len(members)) != 0 and all(y[b - 1] == b for y in images)
        # the p-th power test first: it rejects more candidates
        grown = next((xs for xs in g._scan(skip)
                      if xs not in members and _power(xs, p) in members
                      and all(z in members for z in map(_conjugator(xs), images))), None)
        if grown is None:
            raise RuntimeError("Sylow growth step found no witness; this is a bug")
        gens.append(Permutation._of(grown))
        times = _times(grown)
        coset = members
        for _ in range(p - 1):
            coset = {times(h) for h in coset}  # H x^i from H x^(i-1)
            members |= coset
    return PermGroup._known(g.degree, gens, elements=frozenset(members))


def _power(xs: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The image tuple of x^n, n >= 1, from that of x."""
    times, power = _times(xs), xs
    for _ in range(n - 1):
        power = times(power)
    return power


def sylow_of_symmetric(k: int, p: int) -> PermGroup:
    """The standard Sylow p-subgroup of Sym(k) from the base-p block layout.

    {1..k} splits into consecutive blocks, largest power of p first; each
    block of size p^j carries an iterated wreath product generated by the
    sub-block cycles, of order p^(1 + p + ... + p^(j-1)).  Their product,
    the p-part of k!, is the result's order and starts filled in, so the
    result builds no chain until membership or its elements are asked.
    """
    if k < 1:
        raise PreconditionError("k must be at least 1")
    _require_prime(p)
    width = 1
    while width * p <= k:
        width *= p
    gens: list[Permutation] = []
    start, exponent = 1, 0
    while start <= k:
        while start + width > k + 1:
            width //= p
        exponent += (width - 1) // (p - 1)
        size = 1
        while size < width:
            # cycle the p sub-blocks of width `size` inside the first p*size points
            gens.append(Permutation.from_cycles(
                k, [[start + r + t * size for t in range(p)] for r in range(size)]))
            size *= p
        start += width
    return PermGroup._known(k, gens, order=p ** exponent)


def p_core(g: PermGroup, p: int) -> PermGroup:
    """O_p(g): intersect the element set of one Sylow p-subgroup with its
    conjugates by the generators of g until stable, then build one group.
    Cached on g, write-once per prime."""
    return g._memo(("p_core", p), lambda: _p_core(g, p))


def _p_core(g: PermGroup, p: int) -> PermGroup:
    sylow = sylow_subgroup(g, p)
    members = sylow.element_set()
    maps = [_conjugator(x.images) for x in g.generators]
    while True:
        before = len(members)
        for conj in maps:
            members = members & set(map(conj, members))
        if len(members) == before:
            break
    if len(members) == sylow.order():
        return sylow
    return PermGroup._spanned(g.degree, members)


def pi_core(g: PermGroup, pi) -> PermGroup:
    """O_pi(g): the largest normal subgroup whose order is a pi-number.

    An element belongs to it exactly when its normal closure is a pi-group,
    so the core is generated by all such elements.  No closure is built for
    an element whose order is not a pi-number, nor for a conjugate of an
    element whose closure failed: its closure is the same.  The core grows
    on one chain, extended in place.
    """
    pi = frozenset(pi)
    for p in pi:
        _require_prime(p)
    chain = PermGroup(g.degree).chain()
    gens: list[Permutation] = []
    failed: set[tuple[int, ...]] = set()
    for x in g.elements():
        if (x.is_identity() or x.images in failed
                or not set(prime_factors(x.order())) <= pi or chain.contains(x)):
            continue
        closure = normal_closure(g, [x])
        if set(prime_factors(closure.order())) <= pi:
            chain.add(x)
            gens.append(x)
        else:
            failed |= _conjugacy_class(g, x.images)
    return PermGroup._known(g.degree, gens, chain=chain)


def _conjugacy_class(g: PermGroup, x: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The image tuples of the conjugates of x by g, closed under the
    generators' conjugation."""
    found = {x}
    frontier = [x]
    maps = [_conjugator(c.images) for c in g.generators]
    while frontier:
        y = frontier.pop()
        for conj in maps:
            z = conj(y)
            if z not in found:
                found.add(z)
                frontier.append(z)
    return found


def fitting(g: PermGroup) -> PermGroup:
    """The Fitting subgroup, generated by the p-cores over p dividing |g|."""
    return PermGroup(g.degree, [x for p in prime_factors(g.order())
                                for x in p_core(g, p).generators])


@dataclass(frozen=True, eq=False)
class SylowBasis:
    """One Sylow subgroup per prime dividing the parent's order, pairwise
    permutable.  Equality and hash are by identity, as for ``PermGroup``."""

    parent: PermGroup
    members: dict[int, PermGroup]

    def violations(self) -> list[str]:
        out = []
        for p, m in self.members.items():
            if m.order() != p_part_of_order(self.parent, p):
                out.append(f"member at {p} is not Sylow")
        primes = sorted(self.members)
        for i, p in enumerate(primes):
            for q in primes[i + 1:]:
                if not are_permutable(self.members[p], self.members[q]):
                    out.append(f"members at {p} and {q} do not permute")
        return out


def are_permutable(a: PermGroup, b: PermGroup) -> bool:
    """True iff AB = BA, tested via |<A,B>| = |AB| = |B| |A : A meet B|."""
    return PermGroup(a.degree, a.generators + b.generators).order() == b.order() * meet_index(a, b)


def sylow_basis(g: PermGroup) -> SylowBasis:
    """A Sylow basis of a soluble group, by first fit over conjugates.

    Primes are visited in increasing order; for each, with P the
    designated Sylow p-subgroup ``sylow_subgroup(g, p)``, the first
    x P x^-1 over x in canonical element order that permutes with every
    member already chosen is taken.  The identity comes first, so P itself
    is tried first, and it fits whenever |g| has at most two prime
    divisors: |PQ| = |P||Q| = |g| makes PQ = g = QP.  A conjugate that
    several x give is tried again.  The first x whose conjugate fits is the
    first x giving that conjugate, since an earlier one would have fitted
    too, so the member is also the first fit among the distinct conjugates,
    listed in the order this scan first meets them.

    The first fit never meets a dead end (P. Hall, 1937): the members
    chosen so far multiply to a Hall subgroup H; Hall subgroups for one
    set of primes are conjugate, and so are the Sylow bases of H, so some
    Sylow basis of g extends the chosen members.  A backtracking search
    over the same candidates therefore keeps the same first fits.
    """
    if not g.is_soluble():
        raise PreconditionError("sylow_basis requires a soluble group")
    members: dict[int, PermGroup] = {}
    for p in sorted(prime_factors(g.order())):
        base = sylow_subgroup(g, p)
        candidates = map(base.conjugate, map(Permutation._of, g._scan()))
        fit = next((c for c in candidates
                    if all(are_permutable(c, old) for old in members.values())), None)
        if fit is None:
            raise RuntimeError("no Sylow basis found for a soluble group; this is a bug")
        members[p] = fit
    return SylowBasis(g, members)


def basis_normaliser(g: PermGroup, basis: SylowBasis) -> PermGroup:
    """Intersection of the normalisers of the basis members."""
    pairs = [(m, m) for m in basis.members.values()]
    return PermGroup._spanned(g.degree, frozenset(x.images for x in g.conjugators(pairs)))


def is_normal_in(v: PermGroup, u: PermGroup) -> bool:
    maps = [_conjugator(x.images) for x in u.generators]
    return is_subgroup(v, u) and all(Permutation._of(conj(y.images)) in v
                                     for conj in maps for y in v.generators)


def verify_hall_covering(u: PermGroup, basis: SylowBasis, k: PermGroup) -> bool:
    """Check that the basis normaliser together with K covers all of U.

    Preconditions (violations raise, they are not a False verdict):
    K normal in U, U soluble, U/K nilpotent, and the basis belongs to U.
    U/K is nilpotent iff K contains the last term of the lower central
    series of U, since the terms for U/K are those of U times K, over K.
    """
    if not u.is_soluble():
        raise PreconditionError("hall covering requires a soluble group")
    if not is_normal_in(k, u):
        raise PreconditionError("hall covering requires K normal in U")
    if not is_subgroup(nilpotent_residual(u), k):
        raise PreconditionError("hall covering requires U/K nilpotent")
    for p, member in basis.members.items():
        if not is_subgroup(member, u) or member.order() != p_part_of_order(u, p):
            raise PreconditionError("hall covering requires a Sylow basis of U")
    if sorted(basis.members) != sorted(prime_factors(u.order())):
        raise PreconditionError("hall covering requires one basis member per prime")
    return k.order() * meet_index(basis_normaliser(u, basis), k) == u.order()


def core_commensurability_check(u: PermGroup, v: PermGroup, prime_sets) -> bool:
    """Check O_P(U) meet V = O_P(V) for V normal in U and P a set of
    pairwise disjoint prime sets."""
    sets = [frozenset(s) for s in prime_sets]
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            if a & b:
                raise PreconditionError("prime sets must be pairwise disjoint")
    if not is_normal_in(v, u):
        raise PreconditionError("core commensurability requires V normal in U")
    o_u = PermGroup(u.degree, [x for s in sets for x in pi_core(u, s).generators])
    o_v = PermGroup(v.degree, [x for s in sets for x in pi_core(v, s).generators])
    # O_pi(V) is characteristic in V, so normal in U: o_v <= o_u meet v, equal iff orders are
    return o_u.order() == o_v.order() * meet_index(o_u, v)


def corpus() -> list[tuple[str, PermGroup]]:
    """The built-in test corpus of small groups."""
    sym3xc3 = PermGroup(6, ["(1 2)", "(1 2 3)", "(4 5 6)"])
    q8 = PermGroup(8, ["(1 3 2 4)(5 7 6 8)", "(1 5 2 6)(3 8 4 7)"])
    v4 = PermGroup(4, ["(1 2)(3 4)", "(1 3)(2 4)"])
    return [
        ("sym3", PermGroup.symmetric(3)),
        ("sym4", PermGroup.symmetric(4)),
        ("alt4", PermGroup.alternating(4)),
        ("c6", PermGroup.cyclic(6)),
        ("d8", PermGroup.dihedral(4)),
        ("d12", PermGroup.dihedral(6)),
        ("sym3xc3", sym3xc3),
        ("q8", q8),
        ("v4", v4),
    ]
