"""Reference answers for every benchmark op, computed without ``treescale``.

Group facts (orders, membership, solubility, nilpotency, point-stabiliser
orbits, Sylow subgroups) come from ``sympy.combinatorics``.  Scale values are
products of sympy suborbit sizes along the word, seam colour first.
Spectra are checked by brute force over all axes on small configurations,
by the closed form {(k-1)^n} on 2-transitive groups, and otherwise by a
dynamic programme over (first colour, last colour) written here from the
definition.  The checks run after the timed region.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product

from sympy.combinatorics import Permutation as SPerm
from sympy.combinatorics import PermutationGroup

import perms

BRUTE_FORCE_AXES = 300_000
SYLOW_ENUMERATION_ORDER = 1000


def _sperm(images) -> SPerm:
    return SPerm([x - 1 for x in images], size=len(images))


def _valuation(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class RefGroup:
    """A permutation group on {1..k} from plain generator image tuples."""

    def __init__(self, k: int, gens):
        self.k = k
        self.gens = [tuple(g) for g in gens]
        self.G = PermutationGroup([_sperm(g) for g in self.gens] or [_sperm(perms.identity(k))])
        self._order = None
        self._suborbits = {}
        self._elements = None
        self._sylows = {}

    def order(self) -> int:
        if self._order is None:
            self._order = int(self.G.order())
        return self._order

    def contains(self, images) -> bool:
        return bool(self.G.contains(_sperm(images)))

    def orbit(self, i: int) -> set[int]:
        return {x + 1 for x in self.G.orbit(i - 1)}

    def suborbit(self, i: int, j: int) -> int:
        """|G_i . j| from the orbits of the sympy point stabiliser."""
        if i not in self._suborbits:
            sizes = {}
            for orb in self.G.stabilizer(i - 1).orbits():
                for x in orb:
                    sizes[x + 1] = len(orb)
            self._suborbits[i] = sizes
        return self._suborbits[i].get(j, 1)

    def elements(self) -> list[tuple[int, ...]]:
        if self._elements is None:
            self._elements = [tuple(x + 1 for x in g.array_form) for g in self.G.generate()]
        return self._elements

    def scale(self, twist, word) -> int:
        prev = twist[word[-1] - 1]
        value = 1
        for c in word:
            value *= self.suborbit(prev, c)
            prev = c
        return value

    def sylow_candidates(self, p: int) -> list["RefGroup"]:
        """Every Sylow p-subgroup the program may designate: the block
        subgroup on a full symmetric group, else all Sylow p-subgroups."""
        if p not in self._sylows:
            self._sylows[p] = self._sylow_candidates(p)
        return self._sylows[p]

    def _sylow_candidates(self, p: int) -> list["RefGroup"]:
        n = self.order()
        if n == math.factorial(self.k):
            return [RefGroup(self.k, perms.block_sylow_generators(self.k, p))]
        if n == perms.p_part(n, p):
            return [self]
        if n % p:
            return [RefGroup(self.k, [])]
        if n > SYLOW_ENUMERATION_ORDER:
            raise ValueError(f"too many Sylow subgroups to enumerate in order {n}")
        base = [tuple(x + 1 for x in g.array_form)
                for g in self.G.sylow_subgroup(p).generators]
        seen, out = set(), []
        for x in self.elements():
            conj = [perms.conjugate(x, g) for g in base]
            ref = RefGroup(self.k, conj)
            key = frozenset(ref.elements())
            if key not in seen:
                seen.add(key)
                out.append(ref)
        return out

    def local_scales(self, p: int, twist, word) -> set[int]:
        return {P.scale(twist, word) for P in self.sylow_candidates(p) if P.contains(twist)}

    def is_two_transitive(self) -> bool:
        return len(self.orbit(1)) == self.k and self.k >= 2 and \
            self.suborbit(1, 2) == self.k - 1


class Checker:
    """Caches reference groups by spec and expected answers by op index."""

    def __init__(self):
        self._groups = {}
        self._expected = {}

    def group(self, spec: str) -> RefGroup:
        if spec not in self._groups:
            self._groups[spec] = RefGroup(*perms.spec_generators(spec))
        return self._groups[spec]

    # -- in-process workloads ---------------------------------------------

    def check_op(self, workload: str, inputs: dict, index: int, output) -> str | None:
        """None when the output is right, else a description of the mismatch."""
        op = inputs["ops"][index]
        key = (workload, index)
        if key not in self._expected:
            self._expected[key] = getattr(self, "_expect_" + workload)(inputs, op)
        expected = self._expected[key]
        if callable(expected):
            return expected(output)
        return None if output == expected else f"expected {expected!r}, got {output!r}"

    def _expect_axis_queries(self, inputs, op):
        kind, gi, twist_text, word = op[:4]
        F = self.group(inputs["groups"][gi])
        twist = perms.parse_cycles(twist_text, F.k)
        if kind == "scale":
            return F.scale(twist, word)
        if kind == "orbit_count":
            return F.scale(twist, word) ** op[4]
        inv_twist = perms.inverse(twist)
        inv_word = [twist[c - 1] for c in reversed(word)]
        if kind == "inverse_axis":
            return [list(inv_twist), inv_word]
        if kind == "modular":
            q = Fraction(F.scale(twist, word), F.scale(inv_twist, inv_word))
            return [q.numerator, q.denominator]
        if kind == "localized_scale":
            return _member_of(F.local_scales(op[4], twist, word))
        return _member_of(self._aggregate(F, word))

    def _aggregate(self, F: RefGroup, word) -> set[int]:
        ident = perms.identity(F.k)
        totals = {1}
        for p in perms.primes_dividing(F.order()):
            totals = {t * v for t in totals for v in F.local_scales(p, ident, word)}
        return totals

    def _expect_spectrum_sweep(self, inputs, op):
        _, gi, mode, p, n, cap = op
        entries, truncated = spectrum(self.group(inputs["groups"][gi]), n, mode, p, cap)
        return [entries, truncated]

    def _expect_group_engine(self, inputs, op):
        kind, gi = op[0], op[1]
        G = self.group(inputs["groups"][gi])
        if kind == "order":
            return G.order()
        if kind == "is_soluble":
            return bool(G.G.is_solvable)
        if kind == "is_nilpotent":
            return bool(G.G.is_nilpotent)
        if kind == "sylow_subgroup":
            return lambda gens: _subgroup_problem(G, gens, perms.p_part(G.order(), op[2]))
        if kind == "p_core":
            return lambda gens: _subgroup_problem(G, gens, p_core_order(G, op[2]), normal=True)
        if kind == "fitting":
            order = 1
            for p in perms.primes_dividing(G.order()):
                order *= p_core_order(G, p)
            return lambda gens: _subgroup_problem(G, gens, order, normal=True)
        if kind == "sylow_basis":
            return lambda members: _basis_problem(G, {int(p): m for p, m in members.items()})
        return True  # Hall covering holds for every kernel with nilpotent quotient

    # -- cli_calls ------------------------------------------------------

    def _expect_cli_calls(self, inputs, op):
        argv = op[1]
        return lambda out: self._cli_problem(argv, *out)

    def _cli_problem(self, argv, code, stdout, stderr) -> str | None:
        if "Traceback" in stderr:
            return "traceback on stderr: " + stderr.strip().splitlines()[-1]
        command = argv[0]
        if command != "verify" and code != 0:
            return f"exit code {code}: {stderr.strip()}"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return f"stdout is not one JSON report: {stdout[:200]!r}"
        opts = dict(zip(argv[1::2], argv[2::2]))
        if command == "verify":
            return _verify_problem(opts["--suite"], code, payload)
        if command == "predict":
            return _compare(payload, predict(int(opts["--k"]), int(opts["--prime"])))
        F = self.group(opts["--group"])
        if command in ("scale", "inverse", "modular", "oracle", "localscale", "aggregate"):
            twist, word = _parse_axis(opts["--axis"], F.k)
            if command == "scale":
                return _compare(payload, {"value": F.scale(twist, word)})
            if command == "inverse":
                inv = perms.inverse(twist), [twist[c - 1] for c in reversed(word)]
                got = _parse_axis(payload["inverse"], F.k)
                return None if got == inv else f"inverse {got}, expected {inv}"
            if command == "modular":
                q = Fraction(F.scale(twist, word),
                             F.scale(perms.inverse(twist), [twist[c - 1] for c in reversed(word)]))
                return _compare({"value": Fraction(payload["value"])}, {"value": q})
            if command == "oracle":
                s = F.scale(twist, word) ** int(opts["--power"])
                want = {"formula": s, "walk": s}
                if "explicit" in payload:
                    want["explicit"] = s
                return _compare(payload, want)
            if command == "localscale":
                allowed = F.local_scales(int(opts["--prime"]), twist, word)
            else:
                allowed = self._aggregate(F, word)
            return None if payload["value"] in allowed else \
                f"value {payload['value']} not in {sorted(allowed)}"
        if command == "spectrum":
            mode = opts.get("--mode", "values")
            p = int(opts["--prime"]) if "--prime" in opts else None
            entries, truncated = spectrum(F, int(opts["--max-len"]), mode, p, int(opts["--cap"]))
            return _compare(payload, {"entries": entries, "truncated": truncated})
        if command == "sylow":
            p = int(opts["--prime"])
            gens = [perms.parse_cycles(g, F.k) for g in payload["generators"]]
            want = perms.p_part(F.order(), p)
            return _subgroup_problem(F, gens, want) or _compare(
                payload, {"order": want, "index": render_supernatural(F.order() // want)})
        if command == "basis":
            members = {m["prime"]: [perms.parse_cycles(g, F.k) for g in m["generators"]]
                       for m in payload["members"]}
            return _basis_problem(F, members)
        return f"no reference for command {command!r}"


def _member_of(allowed: set):
    return lambda got: None if got in allowed else f"{got!r} not in {sorted(allowed)}"


def _compare(payload: dict, want: dict) -> str | None:
    bad = [f"{k}={payload.get(k)!r} (expected {v!r})" for k, v in want.items()
           if payload.get(k) != v]
    return "; ".join(bad) or None


def _parse_axis(text: str, k: int):
    fields = dict(part.strip().split("=", 1) for part in text.split(";"))
    twist = perms.identity(k) if fields["twist"] == "id" else perms.parse_cycles(fields["twist"], k)
    return twist, [int(c) for c in fields["word"].split(",")]


def _subgroup_problem(G: RefGroup, gens, order: int, normal: bool = False) -> str | None:
    gens = [tuple(g) for g in gens]
    if not all(G.contains(g) for g in gens):
        return "a generator lies outside the group"
    H = RefGroup(G.k, gens)
    if H.order() != order:
        return f"subgroup order {H.order()}, expected {order}"
    if normal and not all(H.contains(perms.conjugate(x, h)) for x in G.gens for h in gens):
        return "subgroup is not normal"
    return None


def _basis_problem(G: RefGroup, members: dict) -> str | None:
    primes = perms.primes_dividing(G.order())
    if sorted(members) != primes:
        return f"basis primes {sorted(members)}, expected {primes}"
    for p in primes:
        problem = _subgroup_problem(G, members[p], perms.p_part(G.order(), p))
        if problem:
            return f"member at {p}: {problem}"
    sets = {p: RefGroup(G.k, members[p]).elements() for p in primes}
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            ab = {perms.compose(a, b) for a, b in product(sets[p], sets[q])}
            ba = {perms.compose(b, a) for a, b in product(sets[p], sets[q])}
            if ab != ba:
                return f"members at {p} and {q} do not permute"
    return None


_P_CORES = {}


def p_core_order(G: RefGroup, p: int) -> int:
    """|O_p(G)|: intersect a Sylow p-subgroup with its conjugates under the
    generators until the intersection is stable (then it is normal)."""
    key = (tuple(G.gens), p)
    if key not in _P_CORES:
        core = {tuple(x + 1 for x in g.array_form) for g in G.G.sylow_subgroup(p).generate()}
        changed = True
        while changed:
            changed = False
            for x in G.gens:
                meet = core & {perms.conjugate(x, h) for h in core}
                if len(meet) < len(core):
                    core, changed = meet, True
        _P_CORES[key] = len(core)
    return _P_CORES[key]


def _verify_problem(suite: str, code: int, payload) -> str | None:
    size = {"all": 13, "spectrum": 7, "oracle": 3, "aggregate": 1, "sylow": 1,
            "inclusion": 1}[suite]
    if not isinstance(payload, list) or len(payload) != size:
        return f"verify --suite {suite} reported {len(payload)} items, expected {size}"
    if any(list(item) != ["name", "passed", "law", "detail"] for item in payload):
        return "verify item keys are not name, passed, law, detail"
    want = 0 if all(item["passed"] for item in payload) else 3
    return None if code == want else f"exit code {code}, expected {want}"


def render_supernatural(n: int) -> str:
    parts = []
    for p in perms.primes_dividing(n):
        e = _valuation(n, p)
        parts.append(str(p) if e == 1 else f"{p}^{e}")
    return "*".join(parts) or "1"


def predict(k: int, p: int) -> dict:
    """The documented case split of the local and ambient exponent sets."""
    if k <= p:
        kind = "zero-only"
    elif p > 2 and k == 2 * p:
        kind = "even-naturals"
    elif p > 3 and k % p == 0 and 3 <= k // p < p:
        kind = "naturals-minus-one"
    else:
        kind = "all-naturals"
    return {"local_exponents": kind, "ambient_step": _valuation(k - 1, p)}


# ---------------------------------------------------------------------------
# spectra


def spectrum(F: RefGroup, max_len: int, mode: str, p, cap: int):
    """(entries, truncated) of the spectrum of all valid axes with word
    length <= max_len.  ``truncated`` says that some word's product after
    the seam factor, or some axis's full product, exceeded the cap."""
    k = F.k
    words = sum(k * (k - 1) ** (n - 1) for n in range(1, max_len + 1))
    if words * F.order() <= BRUTE_FORCE_AXES:
        return _spectrum_brute_force(F, max_len, mode, p, cap)
    if mode == "values" and F.is_two_transitive():
        powers = [(k - 1) ** n for n in range(max_len + 1)]
        return [v for v in powers if v <= cap], powers[-1] > cap
    return _spectrum_dp(F, max_len, mode, p, cap)


def _weight(F: RefGroup, mode: str, p):
    if mode == "values":
        return lambda a, b: F.suborbit(a, b)
    return lambda a, b: _valuation(F.suborbit(a, b), p)


def _spectrum_brute_force(F: RefGroup, max_len, mode, p, cap):
    w = _weight(F, mode, p)
    combine = (lambda x, y: x * y) if mode == "values" else (lambda x, y: x + y)
    unit = 1 if mode == "values" else 0
    elements = F.elements()
    entries, truncated = {unit}, False
    stack = [((c,), unit) for c in range(1, F.k + 1)]
    while stack:
        word, partial = stack.pop()
        if partial > cap:
            truncated = True
            continue
        for tau in elements:
            seam = tau[word[-1] - 1]
            if seam != word[0]:
                value = combine(partial, w(seam, word[0]))
                if value > cap:
                    truncated = True
                else:
                    entries.add(value)
        if len(word) < max_len:
            stack += [(word + (c,), combine(partial, w(word[-1], c)))
                      for c in range(1, F.k + 1) if c != word[-1]]
    return sorted(entries), truncated


def _spectrum_dp(F: RefGroup, max_len, mode, p, cap):
    """Reachable products by (first, last) colour.  Exponent sets are kept
    as bit masks, value sets as Python sets."""
    k = F.k
    w = _weight(F, mode, p)
    colours = range(1, k + 1)
    seams = {c: [s for s in F.orbit(c)] for c in colours}
    truncated = False
    if mode == "exponents":
        full = (1 << (cap + 1)) - 1
        entries = 1
        reach = {(c, c): 1 for c in colours}
        for length in range(1, max_len + 1):
            if length > 1:
                nxt = {}
                for (first, last), mask in reach.items():
                    for c in colours:
                        if c != last:
                            shifted = mask << w(last, c)
                            truncated |= shifted > full
                            if shifted & full:
                                nxt[(first, c)] = nxt.get((first, c), 0) | (shifted & full)
                reach = nxt
            for (first, last), mask in reach.items():
                for s in seams[last]:
                    if s != first:
                        shifted = mask << w(s, first)
                        truncated |= shifted > full
                        entries |= shifted & full
        return [e for e in range(cap + 1) if entries >> e & 1], truncated
    entries = {1}
    reach = {(c, c): {1} for c in colours}
    for length in range(1, max_len + 1):
        if length > 1:
            nxt = {}
            for (first, last), values in reach.items():
                for c in colours:
                    if c != last:
                        step = w(last, c)
                        kept = {v * step for v in values if v * step <= cap}
                        truncated |= len(kept) < len(values)
                        if kept:
                            nxt.setdefault((first, c), set()).update(kept)
            reach = nxt
        for (first, last), values in reach.items():
            for s in seams[last]:
                if s != first:
                    step = w(s, first)
                    kept = {v * step for v in values if v * step <= cap}
                    truncated |= len(kept) < len(values)
                    entries |= kept
    return sorted(entries), truncated
