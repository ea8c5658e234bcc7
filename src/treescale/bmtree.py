"""Hyperbolic elements of universal tree groups as twisted periodic colour
words, and their scale arithmetic.

An element is encoded by its local action group F on the colours {1..k}, a
twist tau in F (the local action applied at each axis vertex) and the word
of edge colours (c_1, ..., c_n) read from a vertex v towards x^-1 v.  The
seam colour c_0 := tau(c_n) is the colour of the edge from v towards x v;
properness forces c_i != c_{i+1} and c_0 != c_1.

The scale of such an element is the product of the suborbit sizes
|F_{c_{i-1}} . c_i| for i = 1..n.  Two local counterparts exist for a prime
p: the scale over the Sylow restriction U(F(p)) (``localized_scale``) and
the scale in the p-localisation, built from a local Sylow subgroup of
U(F)_v (``localisation_scale``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidAxisError, PreconditionError
from .perm import PermGroup, Permutation
from .supernat import is_prime, prime_factors, valuation
from .sylow import sylow_of_symmetric, sylow_subgroup

VALUE_CAP = 10 ** 6
EXPONENT_CAP = 12
LENGTH_CAP = 8


@dataclass(frozen=True)
class AxisData:
    """Axis of a single-twist hyperbolic element: (F, tau, colour word)."""

    group: PermGroup
    twist: Permutation
    word: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))

    @property
    def seam_colour(self) -> int:
        return self.twist(self.word[-1])

    def describe(self) -> str:
        twist = "id" if self.twist.is_identity() else self.twist.cycle_string()
        return f"twist={twist}; word={','.join(map(str, self.word))}"


def validate_axis(a: AxisData) -> list[str]:
    """All violated axis invariants, empty when the axis is realisable."""
    violations = []
    k = a.group.degree
    if len(a.word) == 0:
        violations.append("word is empty")
        return violations
    for pos, c in enumerate(a.word, start=1):
        if not 1 <= c <= k:
            violations.append(f"colour {c} at position {pos} outside 1..{k}")
    for pos in range(len(a.word) - 1):
        if a.word[pos] == a.word[pos + 1]:
            violations.append(f"repeated colour at positions {pos + 1},{pos + 2}")
    if a.twist.degree != k:
        violations.append("twist degree does not match the colour count")
        return violations
    if a.twist not in a.group:
        violations.append("twist is not a member of the local action group")
    if not violations and a.twist(a.word[-1]) == a.word[0]:
        violations.append("seam colour equals the first word colour")
    return violations


def require_valid(a: AxisData) -> None:
    violations = validate_axis(a)
    if violations:
        raise InvalidAxisError(violations)


def scale(a: AxisData) -> int:
    """Product of suborbit sizes along the word, seam colour first."""
    require_valid(a)
    f = a.group
    prev = a.seam_colour
    value = 1
    for c in a.word:
        value *= f.suborbit_size(prev, c)
        prev = c
    return value


def inverse_axis(a: AxisData) -> AxisData:
    """Axis of the inverse element: twist tau^-1, word (tau c_n, ..., tau c_1)."""
    require_valid(a)
    word = tuple(a.twist(c) for c in reversed(a.word))
    return AxisData(a.group, a.twist.inverse(), word)


def modular(a: AxisData) -> Fraction:
    """scale(x) / scale(x^-1) as an exact rational."""
    return Fraction(scale(a), scale(inverse_axis(a)))


def designated_sylow(f: PermGroup, p: int) -> PermGroup:
    """F(p): the block constructor on full symmetric groups, the generic
    algorithm otherwise.  Cached on f, write-once per prime."""
    cached = f._sylows.get(p)
    if cached is None:
        if f.order() == math.factorial(f.degree):
            cached = sylow_of_symmetric(f.degree, p)
        else:
            cached = sylow_subgroup(f, p)
        f._sylows[p] = cached
    return cached


def localized_scale(a: AxisData, p: int) -> int:
    """Scale of the same word over F(p), that is in U(F(p)); the axis must
    be valid over F(p), in particular the twist must lie in it.

    This is the scale over the Sylow restriction.  The vertex stabiliser of
    U(F(p)) is pro-p but need not be a maximal pro-p subgroup of U(F)_v; the
    scale in the p-localisation is ``localisation_scale``.
    """
    fp = designated_sylow(a.group, p)
    return scale(AxisData(fp, a.twist, a.word))


def _local_sylow_family(f: PermGroup, p: int) -> dict[int, PermGroup]:
    """Q: with P = F(p), the local actions of a local Sylow p-subgroup S of
    U(F)_v.

    S is the maximal pro-p subgroup of U(F)_v whose local action is in
    P = F(p) at v and in Q_c at a vertex entered from v's side by colour c,
    where Q_c is a Sylow p-subgroup of the point stabiliser F_c containing
    P_c.  One Q_r is grown from P_r per P-orbit, r its least colour, and
    carried along the orbit by conjugation, so Q_{pi c} = pi Q_c pi^-1 for
    pi in P: every element whose twist lies in P then normalises S.  Cached
    on f, write-once per prime.  Growing Q_r scans the elements of F_r, so
    it is refused above the enumeration bound.
    """
    cached = f._local_sylows.get(p)
    if cached is not None:
        return cached
    root = designated_sylow(f, p)
    family: dict[int, PermGroup] = {}
    for r in range(1, f.degree + 1):
        if r in family:
            continue
        q = sylow_subgroup(f.point_stabiliser(r), p, start=root.point_stabiliser(r))
        for c, t in root._transversal(r).items():
            family[c] = q.conjugate(t)
    f._local_sylows[p] = family
    return family


def localisation_scale(a: AxisData, p: int) -> int:
    """Scale in the p-localisation of U(F), the group in which the local
    Sylow subgroup S of ``_local_sylow_family`` is compact open; the twist
    must lie in F(p).

    Moeller's limit formula with V = S gives the product of the indices
    |Q_{c_{i-1}} : Q_{c_{i-1}} meet Q_{c_i}| for i = 1..n, seam colour
    first.  Each factor is a power of p and a multiple of the p-part of the
    ambient factor |F_{c_{i-1}} . c_i|.
    """
    require_valid(a)
    family = _local_sylow_family(a.group, p)
    if a.twist not in designated_sylow(a.group, p):
        raise InvalidAxisError(["twist is not a member of the designated Sylow subgroup"])
    prev = a.seam_colour
    value = 1
    for c in a.word:
        here = family[prev].element_set()
        value *= len(here) // len(here & family[c].element_set())
        prev = c
    return value


def aggregate_scale(a: AxisData) -> int:
    """Product of the localized scales over all primes dividing |F|.

    Restricted to colour-preserving axes (identity twist): the identity lies
    in every F(p), so all localisations are simultaneously defined.
    """
    require_valid(a)
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

    def to_json_dict(self) -> dict:
        out = {"mode": self.mode}
        if self.prime is not None:
            out["prime"] = self.prime
        out["max_len"] = self.max_len
        out["cap"] = self.cap
        out["truncated"] = self.truncated
        out["entries"] = list(self.entries)
        return out


def scale_spectrum(f: PermGroup, max_len: int, mode: str = "values",
                   prime: int | None = None, cap: int | None = None) -> ScaleSpectrum:
    """All scale values (or their p-exponents) of valid axes with word length
    at most max_len, by dynamic programming over the orbitals of F.

    A word (c_1..c_j) is in the state of the orbital of (c_1, c_j) and
    carries the accumulated product (or exponent) of the factors after the
    seam factor.  It is finalised over every seam colour c_0 in the F-orbit
    of c_j with c_0 != c_1 by multiplying in the first factor.  The weights
    |F_a . b| and the seam rule are F-invariant, so pairs in one orbital
    carry the same accumulations and the quotient is exact.  In exponent
    mode a state's exponents are the set bits of an int, so a step is a
    shift.  Values over the cap are dropped and flagged.
    """
    if max_len < 1:
        raise PreconditionError("max_len must be at least 1")
    if mode not in ("values", "exponents"):
        raise PreconditionError(f"unknown spectrum mode {mode!r}")
    if mode == "exponents":
        if prime is None or not is_prime(prime):
            raise PreconditionError(
                f"exponent mode needs a prime, got {'none' if prime is None else prime}")
        if cap is None:
            cap = EXPONENT_CAP
        if cap < 0:
            raise PreconditionError(f"exponent cap must be at least 0, got {cap}")
    else:
        prime = None
        if cap is None:
            cap = VALUE_CAP
        if cap < 1:
            raise PreconditionError(f"value cap must be at least 1, got {cap}")

    table = f.orbitals()
    index = table.index
    if mode == "values":
        weights = table.sizes
        start = {1}

        def advance(accs, w):
            kept = {acc * w for acc in accs if acc * w <= cap}
            return kept, len(kept) < len(accs)
    else:
        weights = [valuation(size, prime) for size in table.sizes]
        start = 1
        full = (1 << (cap + 1)) - 1

        def advance(mask, w):
            moved = mask << w
            return moved & full, moved > full

    k = f.degree
    diagonal = [index[c][c] for c in range(k)]
    # steps[t]: the (source orbital, weight) pairs that extend a word into
    # orbital t; seams[o]: the first-factor weights that finalise orbital o
    steps = [{(index[s - 1][c], weights[index[c][n - 1]])
              for c in range(k) if c != n - 1}
             for s, n in table.labels]
    seams = [{weights[index[x][s - 1]] for x in range(k)
              if x != s - 1 and diagonal[x] == diagonal[c - 1]}
             for s, c in table.labels]

    found = start
    truncated = False
    frontier = {o: start for o in set(diagonal)}
    for length in range(1, max_len + 1):
        if length > 1:
            new = {}
            for t, sources in enumerate(steps):
                for o, w in sources:
                    if o in frontier:
                        kept, over = advance(frontier[o], w)
                        truncated = truncated or over
                        if kept:
                            new[t] = new[t] | kept if t in new else kept
            frontier = new
            if not frontier:
                break
        for o, accs in frontier.items():
            for w in seams[o]:
                kept, over = advance(accs, w)
                truncated = truncated or over
                found = found | kept
    if mode == "values":
        entries = sorted(found)
    else:
        entries = [e for e in range(found.bit_length()) if found >> e & 1]
    return ScaleSpectrum(mode, prime, max_len, cap, truncated, tuple(entries))


_LOCAL_KINDS = ("zero-only", "even-naturals", "naturals-minus-one", "all-naturals")


@dataclass(frozen=True)
class SymmetricScalePrediction:
    """Case prediction for the local and ambient exponent sets over Sym(k)."""

    k: int
    p: int
    local_exponents: str  # one of _LOCAL_KINDS
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

    def local_contains(self, e: int) -> bool:
        if self.local_exponents == "zero-only":
            return e == 0
        if self.local_exponents == "even-naturals":
            return e % 2 == 0
        if self.local_exponents == "naturals-minus-one":
            return e != 1
        return True


def symscale_case(k: int, p: int) -> SymmetricScalePrediction:
    """Classify the exponent sets for the Sylow-restricted and full symmetric
    local actions on k colours.

    Local exponent set: {0} when k <= p; the even naturals when k = 2p with
    p odd; the naturals without 1 when k = rp with 3 <= r < p; all naturals
    otherwise.  Ambient set: multiples of e where p^e is the p-part of k-1.
    """
    if k < 3:
        raise PreconditionError("k must be at least 3")
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if k <= p:
        kind = "zero-only"
    elif p > 2 and k == 2 * p:
        kind = "even-naturals"
    elif p > 3 and k % p == 0 and 3 <= k // p < p:
        kind = "naturals-minus-one"
    else:
        kind = "all-naturals"
    return SymmetricScalePrediction(k, p, kind, valuation(k - 1, p))


def build_alternating(f: PermGroup, i: int, j: int) -> AxisData:
    """Colour-preserving element along a line alternately coloured i and j;
    its scale is |F_i . j| * |F_j . i|."""
    if i == j:
        raise PreconditionError("alternating axis needs two distinct colours")
    a = AxisData(f, Permutation.identity(f.degree), (j, i))
    require_valid(a)
    return a


def build_tau_cycle(f: PermGroup, tau: Permutation, j: int) -> AxisData:
    """Translation of distance one along a line whose colours cycle through
    the tau-orbit of j; its scale is |F_{tau(j)} . j|."""
    if tau not in f:
        raise PreconditionError("twist must belong to the local action group")
    if tau(j) == j:
        raise PreconditionError("twist must move the chosen colour")
    a = AxisData(f, tau, (j,))
    require_valid(a)
    return a
