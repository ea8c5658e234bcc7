"""Hyperbolic elements of universal tree groups as twisted periodic colour
words, and their scale arithmetic.

An element is encoded by its local action group F on the colours {1..k}, a
twist tau in F (the local action applied at each axis vertex) and the word
of edge colours (c_1, ..., c_n) read from a vertex v towards x^-1 v.  The
seam colour c_0 := tau(c_n) is the colour of the edge from v towards x v;
properness forces c_i != c_{i+1} and c_0 != c_1.

Every scale is one product, seam colour first, of the weights of an
orbital table at the pairs (c_{i-1}, c_i): for the scale, F's suborbit
sizes |F_{c_{i-1}} . c_i|.  Two local counterparts for a prime p weight
F(p)'s orbitals: by F(p)'s suborbit sizes, the scale over the Sylow
restriction U(F(p)) (``localized_scale``); by the indices of a
colour-indexed family of Sylow subgroups of point stabilisers, meant as the
scale in the p-localisation (``localisation_scale``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidAxisError, PreconditionError
from .perm import Orbitals, PermGroup, Permutation, meet_index
from .supernat import is_prime, prime_factors, valuation
from .sylow import _grow_sylow, _require_prime, sylow_subgroup

VALUE_CAP = 10 ** 6
EXPONENT_CAP = 12
LENGTH_CAP = 8
# _value_lattice refuses a values-mode lattice of more bits than this.
LATTICE_BITS = 2 ** 24


@dataclass(frozen=True)
class AxisData:
    """Axis of a single-twist hyperbolic element: (F, tau, colour word).

    Building one checks it; only ``inverse_axis`` builds its result
    unchecked, through ``_derived``, since the inverse of a valid axis is
    valid: tau^-1 lies in F, tau maps a proper word over 1..k to a proper
    word, and the inverse's seam colour tau^-1(tau c_1) = c_1 differs from
    its first colour tau c_n = c_0.
    """

    group: PermGroup
    twist: Permutation
    word: tuple[int, ...]

    def __post_init__(self):
        """Check the invariants once, here: a proper word over 1..k, a twist
        in F, and a seam colour that differs from the first colour.  An
        invalid axis raises ``InvalidAxisError`` with every violation.  The
        identity lies in every group, so an identity twist builds no chain."""
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        k = self.group.degree
        if not word:
            raise InvalidAxisError(["word is empty"])
        violations = [f"colour {c} at position {pos} outside 1..{k}"
                      for pos, c in enumerate(word, start=1) if not 1 <= c <= k]
        violations += [f"repeated colour at positions {pos},{pos + 1}"
                       for pos in range(1, len(word)) if word[pos - 1] == word[pos]]
        if self.twist.degree != k:
            violations.append("twist degree does not match the colour count")
        elif not (self.twist.is_identity() or self.twist in self.group):
            violations.append("twist is not a member of the local action group")
        elif not violations and self.twist(word[-1]) == word[0]:
            violations.append("seam colour equals the first word colour")
        if violations:
            raise InvalidAxisError(violations)

    @classmethod
    def _derived(cls, group: PermGroup, twist: Permutation,
                 word: tuple[int, ...]) -> "AxisData":
        """Wrap an axis known valid by its derivation, unchecked."""
        axis = object.__new__(cls)
        axis.__dict__.update(group=group, twist=twist, word=word)
        return axis

    @property
    def seam_colour(self) -> int:
        return self.twist.images[self.word[-1] - 1]

    def describe(self) -> str:
        twist = "id" if self.twist.is_identity() else str(self.twist)
        return f"twist={twist}; word={','.join(map(str, self.word))}"


def _word_product(a: AxisData, table: Orbitals) -> int:
    """The product of the weights ``table.sizes`` of the orbitals of the
    pairs (c_{i-1}, c_i) for i = 1..n, seam colour first."""
    index, sizes = table.index, table.sizes
    prev = a.seam_colour
    value = 1
    for c in a.word:
        value *= sizes[index[prev - 1][c - 1]]
        prev = c
    return value


def scale(a: AxisData) -> int:
    """Product of suborbit sizes along the word, seam colour first."""
    return _word_product(a, a.group.orbitals())


def inverse_axis(a: AxisData) -> AxisData:
    """Axis of the inverse element: twist tau^-1, word (tau c_n, ..., tau c_1),
    valid because a is (see ``AxisData``)."""
    images = a.twist.images
    return AxisData._derived(a.group, a.twist.inverse(),
                             tuple([images[c - 1] for c in reversed(a.word)]))


def modular(a: AxisData) -> Fraction:
    """scale(x) / scale(x^-1) as an exact rational."""
    return Fraction(scale(a), scale(inverse_axis(a)))


def localized_scale(a: AxisData, p: int) -> int:
    """Scale of the same word over F(p), that is in U(F(p)); the axis must
    be valid over F(p), in particular the twist must lie in it.

    This is the scale over the Sylow restriction.  The vertex stabiliser of
    U(F(p)) is pro-p but need not be a maximal pro-p subgroup of U(F)_v;
    ``localisation_scale`` is the index product meant for the
    p-localisation.
    """
    fp = sylow_subgroup(a.group, p)
    return scale(AxisData(fp, a.twist, a.word))


def _local_sylow_family(f: PermGroup, p: int) -> dict[int, PermGroup]:
    """Q: with P = F(p), a colour-indexed family of Sylow subgroups of point
    stabilisers, Q_c a Sylow p-subgroup of F_c containing P_c.

    One Q_r is grown from P_r by ``sylow._grow_sylow`` per P-orbit, r its
    least colour, and carried along the orbit by ``PermGroup.conjugate``,
    so Q_{pi c} = pi Q_c pi^-1 for pi in P; a conjugate keeps Q_r's element
    set, conjugated, so meets of the family build no chain.  One
    transversal of P at r gives both P_r and the conjugators along the
    orbit; when P = F, P_r is F_r and serves as both.  Used at every depth,
    one such family does not in general define a local Sylow subgroup of
    U(F)_v: the group it generates on a ball need not be a p-group (ROADMAP
    item 17).  Growing Q_r scans the elements of F_r, so it is refused
    above the enumeration bound.  P_r is a p-subgroup of F_r, as P is a
    p-group, so the growth needs no check of its start.
    """
    root = sylow_subgroup(f, p)
    family: dict[int, PermGroup] = {}
    for r in range(1, f.degree + 1):
        if r in family:
            continue
        trans = root._transversal(r)
        start = root._point_stabiliser(trans)
        fr = start if root is f else f.point_stabiliser(r)
        q = _grow_sylow(fr, p, start)
        for c, t in trans.items():
            family[c] = q.conjugate(t)
    return family


def _local_table(f: PermGroup, p: int) -> Orbitals:
    """F(p)'s orbital table, each orbital weighted by |Q_r : Q_r meet Q_m|
    at its label (r, m), Q the local Sylow family.  The index is the same
    at every pair of the orbital, because Q_{pi c} = pi Q_c pi^-1 for pi in
    F(p).  Cached on f, write-once per prime."""
    def make() -> Orbitals:
        family = _local_sylow_family(f, p)
        table = sylow_subgroup(f, p).orbitals()
        return table._replace(sizes=tuple(meet_index(family[r], family[m])
                                          for r, m in table.labels))
    return f._memo(("local_table", p), make)


def localisation_scale(a: AxisData, p: int) -> int:
    """The product of the indices |Q_{c_{i-1}} : Q_{c_{i-1}} meet Q_{c_i}|
    for i = 1..n, seam colour first, Q the family of
    ``_local_sylow_family``, read from ``_local_table``; the axis must be
    valid over F(p), in particular the twist must lie in it.

    It is what Moeller's limit formula would give for the scale in the
    p-localisation if that family defined a local Sylow subgroup S of
    U(F)_v, which it does not in general (ROADMAP item 17).  Each factor is
    a power of p and a multiple of the p-part of the ambient factor
    |F_{c_{i-1}} . c_i|.
    """
    local = AxisData(sylow_subgroup(a.group, p), a.twist, a.word)
    return _word_product(local, _local_table(a.group, p))


def aggregate_scale(a: AxisData) -> int:
    """Product of the localized scales over all primes dividing |F|.

    Restricted to colour-preserving axes (identity twist): the identity lies
    in every F(p), so all localisations are simultaneously defined.
    """
    if not a.twist.is_identity():
        raise PreconditionError(
            "aggregate scale requires a colour-preserving axis (identity twist)")
    total = 1
    for p in prime_factors(a.group.order()):
        total *= localized_scale(a, p)
    return total


@dataclass(frozen=True)
class ScaleSpectrum:
    """Achieved scale values (or p-exponents) up to a word-length bound."""

    mode: str  # "values" | "exponents"
    prime: int | None
    max_len: int
    cap: int
    truncated: bool
    entries: tuple[int, ...]


class _SpectrumPlan(NamedTuple):
    """The spectrum DP's tables for one weighting of F's orbitals.

    ``moves`` are the distinct (source orbital, weight) pairs that extend a
    word, sorted; ``into[t]`` numbers the moves that extend a word into
    orbital t.  ``seams`` are the moves (i, w) of the seam pass, one per
    distinct seam weight w, ascending: ``finalised[i]`` are the orbitals
    whose words are finalised by a first factor of weight w, and the move
    advances the union of their reached sets.
    """

    moves: tuple[tuple[int, int], ...]
    into: tuple[tuple[int, ...], ...]
    seams: tuple[tuple[int, int], ...]
    finalised: tuple[tuple[int, ...], ...]


def _spectrum_plan(f: PermGroup, prime: int | None) -> _SpectrumPlan:
    """The plan of the spectrum DP over F's suborbit sizes (prime None) or
    their p-exponents.  Cached on f, write-once per prime; the cap is not
    part of it."""
    def make() -> _SpectrumPlan:
        table = f.orbitals()
        weights = (table.sizes if prime is None
                   else [valuation(size, prime) for size in table.sizes])
        # column[b][a - 1]: the weight of the orbital of (a, b), for the
        # points b that start or end a label
        column = {b: [weights[row[b - 1]] for row in table.index]
                  for b in {b for label in table.labels for b in label}}
        orbit: dict[int, list[int]] = {}  # F-orbits, keyed by their diagonal orbital
        for c, row in enumerate(table.index):
            orbit.setdefault(row[c], []).append(c)
        # steps[t]: a word (s..n) of orbital t, labelled (s, n), extends a
        # word (s..c), c != n, of the orbital of (s, c) by the weight of (c, n)
        steps = []
        for s, n in table.labels:
            pairs = list(zip(table.index[s - 1], column[n]))
            del pairs[n - 1]
            steps.append(set(pairs))
        moves = sorted(set().union(*steps))
        number = {move: i for i, move in enumerate(moves)}
        # a word of orbital o, labelled (s, c), has a seam colour x != s in
        # the F-orbit of c, of first factor the weight of (x, s)
        seams: dict[int, list[int]] = {}
        for o, (s, c) in enumerate(table.labels):
            for w in {column[s][x] for x in orbit[table.index[c - 1][c - 1]] if x != s - 1}:
                seams.setdefault(w, []).append(o)
        seam_weights = sorted(seams)
        return _SpectrumPlan(tuple(moves),
                             tuple(tuple(map(number.__getitem__, sources)) for sources in steps),
                             tuple(enumerate(seam_weights)),
                             tuple(tuple(seams[w]) for w in seam_weights))
    return f._memo(("spectrum_plan", prime), make)


class _ValueLattice(NamedTuple):
    """The bitmask form of the values-mode spectrum DP, for one cap and reach.

    A value prod p_i^e_i over the primes p_i of the weights up to the cap
    sits at bit sum e_i * stride_i, so multiplying by a weight w is a left
    shift by w's exponents dotted with the strides.  ``moves`` and ``seams``
    are the plan's with each weight replaced by that shift; a weight above
    the cap shifts past every field.  ``mask`` has the bits of the
    products of at most reach weights up to the cap, and ``values`` maps
    each of its bits to the value there.
    """

    moves: tuple[tuple[int, int], ...]
    seams: tuple[tuple[int, int], ...]
    mask: int
    values: dict[int, int]


def _value_lattice(f: PermGroup, cap: int, max_len: int) -> _ValueLattice:
    """The lattice of the values-mode DP over words of length at most
    max_len, that is of products of at most max_len weights.

    With p_i^top_i the largest power of p_i up to the cap and hat_i the
    largest exponent of p_i in a weight up to the cap, such a product up
    to the cap has e_i <= min(top_i, max_len * hat_i), and field i has
    width min(top_i, max_len * hat_i) + hat_i + 1: a shift never carries a
    kept bit into the next field.  The mask holds those products, found by
    multiplying in one weight other than 1 at a time.  A value up to the
    cap has fewer than cap.bit_length() factors other than 1, so reach =
    min(max_len, cap.bit_length()) gives the same lattice as max_len; it is
    the cache key on f beside the cap.  A lattice of more than LATTICE_BITS
    bits is refused before any product is found.
    """
    reach = min(max_len, cap.bit_length())

    def make() -> _ValueLattice:
        plan = _spectrum_plan(f, None)
        factors = {w: prime_factors(w) for w in {w for _, w in plan.moves + plan.seams}
                   if w <= cap}
        hat: dict[int, int] = {}
        for exps in factors.values():
            for p, e in exps.items():
                hat[p] = max(hat.get(p, 0), e)
        stride, size = {}, 1
        for p in sorted(hat):
            top = 0
            while top < reach * hat[p] and p ** (top + 1) <= cap:
                top += 1
            stride[p] = size
            size *= top + hat[p] + 1
        if size > LATTICE_BITS:
            raise PreconditionError(f"values-mode lattice of {size} bits exceeds "
                                    f"the lattice bound {LATTICE_BITS}")
        shift = {w: sum(e * stride[p] for p, e in exps.items())
                 for w, exps in factors.items()}
        steps = [(w, s) for w, s in shift.items() if w > 1]
        values = frontier = {0: 1}
        for _ in range(reach):
            frontier = {bit + s: value * w for bit, value in frontier.items()
                        for w, s in steps if value * w <= cap and bit + s not in values}
            values.update(frontier)
        digits = bytearray(b"0") * size
        for bit in values:
            digits[size - 1 - bit] = ord("1")
        return _ValueLattice(*(tuple((o, shift.get(w, size)) for o, w in moves)
                               for moves in (plan.moves, plan.seams)),
                             int(digits, 2), values)
    return f._memo(("value_lattice", cap, reach), make)


def _advance(states: list[int], moves, mask: int, limit: int) -> tuple[list[int], bool]:
    """One step of the spectrum DP: per move (o, shift), the set states[o]
    shifted, with the bits over the cap dropped (those outside mask, or
    with mask 0 those from limit on), and whether any was dropped."""
    kept, over = [], False
    for o, shift in moves:
        accs = states[o]
        if accs:
            moved = accs << shift
            if mask:
                accs = moved & mask
            elif moved.bit_length() > limit:
                accs = moved ^ (moved >> limit << limit)
            else:
                accs = moved
            if accs != moved:
                over = True
        kept.append(accs)
    return kept, over


def scale_spectrum(f: PermGroup, max_len: int, mode: str = "values",
                   prime: int | None = None, cap: int | None = None) -> ScaleSpectrum:
    """All scale values (or their p-exponents) of valid axes with word length
    at most max_len, by dynamic programming over the orbitals of F.

    A word (c_1..c_j) is in the state of the orbital of (c_1, c_j) and
    carries the accumulated product (or exponent) of the factors after the
    seam factor.  It is finalised over every seam colour c_0 in the F-orbit
    of c_j with c_0 != c_1 by multiplying in the first factor.  The weights
    |F_a . b| and the seam rule are F-invariant, so pairs in one orbital
    carry the same accumulations and the quotient is exact.

    A state's set is an int bitmask and a step is one left shift: in
    exponent mode bit e is the exponent e and a weight shifts by itself; in
    values mode the bits are those of ``_value_lattice``.  Values over the
    cap are dropped and flagged: in exponent mode the bits past cap, when
    a step reaches them, and in values mode the bits outside the lattice's
    mask.  Neither mode builds a mask the size of the cap, so memory
    follows the values the words can reach.

    Round n grows each orbital's reached set to the accumulations of words
    of length at most n, advancing only those first reached in round n - 1
    (a semi-naive least fixpoint); the seam pass runs once on the result.
    The reached sets only grow, within the values up to the cap, so the
    loop stops at max_len or at the first round that reaches nothing new,
    whatever max_len is.

    A step is a shift, so it distributes over union: a round advances each
    distinct move of the ``_spectrum_plan`` once and each target unions its
    moves' results, and the seam pass advances, per seam weight, the union
    of the reached sets of the orbitals it finalises.
    """
    if max_len < 1:
        raise PreconditionError("max_len must be at least 1")
    if mode == "values":
        if prime is not None:
            raise PreconditionError(f"values mode takes no prime, got {prime}")
        if cap is None:
            cap = VALUE_CAP
        if cap < 1:
            raise PreconditionError(f"value cap must be at least 1, got {cap}")
    elif mode == "exponents":
        if prime is None or not is_prime(prime):
            raise PreconditionError(
                f"exponent mode needs a prime, got {'none' if prime is None else prime}")
        if cap is None:
            cap = EXPONENT_CAP
        if cap < 0:
            raise PreconditionError(f"exponent cap must be at least 0, got {cap}")
    else:
        raise PreconditionError(f"unknown spectrum mode {mode!r}")

    moves, into, seams, finalised = _spectrum_plan(f, prime)
    mask, limit = 0, cap + 1
    if mode == "values":
        moves, seams, mask, values = _value_lattice(f, cap, max_len)
    truncated = False
    reached = [1 if s == n else 0 for s, n in f.orbitals().labels]
    fresh = reached
    for _ in range(1, max_len):
        kept, over = _advance(fresh, moves, mask, limit)
        truncated = truncated or over
        grown = []
        for accs, numbers in zip(reached, into):
            for i in numbers:
                if kept[i]:
                    accs = accs | kept[i]
            grown.append(accs)
        # grown contains reached, so ^ leaves what this round added
        fresh = [g ^ r for g, r in zip(grown, reached)]
        if not any(fresh):
            break
        reached = grown
    unions = []
    for orbitals in finalised:
        accs = 0
        for o in orbitals:
            accs = accs | reached[o]
        unions.append(accs)
    finals, over = _advance(unions, seams, mask, limit)
    truncated = truncated or over
    found = 1
    for accs in finals:
        found = found | accs
    digits = bin(found)[:1:-1]  # bit i of found at index i
    entries, i = [], digits.find("1")
    while i >= 0:
        entries.append(i)
        i = digits.find("1", i + 1)
    if mode == "values":
        entries = sorted(map(values.__getitem__, entries))
    return ScaleSpectrum(mode, prime, max_len, cap, truncated, tuple(entries))


@dataclass(frozen=True)
class SymmetricScalePrediction:
    """Case prediction for the local and ambient exponent sets over Sym(k)."""

    local_exponents: str  # a key of local_text's table
    ambient_step: int     # ambient exponent set is {ambient_step * n : n >= 0}

    def local_text(self) -> str:
        return {
            "zero-only": "{0}",
            "even-naturals": "2N0",
            "naturals-minus-one": "N0 \\ {1}",
            "all-naturals": "N0",
        }[self.local_exponents]

    def ambient_text(self) -> str:
        if self.ambient_step == 0:
            return "{0}"
        if self.ambient_step == 1:
            return "N0"
        return f"{self.ambient_step}N0"


def symscale_case(k: int, p: int) -> SymmetricScalePrediction:
    """Classify the exponent sets for the Sylow-restricted and full symmetric
    local actions on k colours.

    Local exponent set: {0} when k <= p; the even naturals when k = 2p with
    p odd; the naturals without 1 when k = rp with 3 <= r < p; all naturals
    otherwise.  Ambient set: multiples of e where p^e is the p-part of k-1.
    """
    if k < 3:
        raise PreconditionError("k must be at least 3")
    _require_prime(p)
    if k <= p:
        kind = "zero-only"
    elif p > 2 and k == 2 * p:
        kind = "even-naturals"
    elif p > 3 and k % p == 0 and 3 <= k // p < p:
        kind = "naturals-minus-one"
    else:
        kind = "all-naturals"
    return SymmetricScalePrediction(kind, valuation(k - 1, p))
