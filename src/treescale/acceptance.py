"""The acceptance battery behind ``treescale verify``.

Each check is a named, deterministic pass/fail item with a one-line law it
instantiates.  The same checks back tests/test_acceptance.py; any failures
carry explicit counterexamples in the detail string.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import balloracle, bmtree, sylow
from .bmtree import AxisData, inverse_axis, localisation_scale, modular, scale
from .errors import PreconditionError
from .perm import PermGroup, Permutation, nilpotent_residual
from .supernat import prime_factors, rational_p_part, valuation

_SEED = 0x5CA1E


@dataclass
class CheckResult:
    name: str
    law: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# axis sweeps


def proper_words(k: int, max_len: int):
    """All proper colour words over {1..k} with length 1..max_len."""
    frontier = [(c,) for c in range(1, k + 1)]
    for _ in range(max_len):
        for word in frontier:
            yield word
        frontier = [w + (c,) for w in frontier for c in range(1, k + 1) if c != w[-1]]


def valid_axes(f: PermGroup, max_len: int):
    """Every valid single-twist axis over f with word length <= max_len."""
    elems = f.elements()
    for word in proper_words(f.degree, max_len):
        for tau in elems:
            if tau(word[-1]) != word[0]:
                yield AxisData(f, tau, word)


def random_axis(rng: random.Random, f: PermGroup, max_len: int,
                colour_preserving: bool = False) -> AxisData:
    k = f.degree
    elems = f.elements()
    while True:
        n = rng.randint(2 if colour_preserving else 1, max_len)
        word = [rng.randint(1, k)]
        while len(word) < n:
            c = rng.randint(1, k)
            if c != word[-1]:
                word.append(c)
        if colour_preserving:
            tau = Permutation.identity(k)
        else:
            tau = elems[rng.randrange(len(elems))]
        if tau(word[-1]) != word[0]:
            return AxisData(f, tau, tuple(word))


# ---------------------------------------------------------------------------
# brute-force subgroup oracles


def normal_subgroups(g: PermGroup) -> list[frozenset[Permutation]]:
    """Every normal subgroup of a small group, as element sets: the
    subgroups generated by single conjugacy classes, closed under products
    of pairs, as NM is a normal subgroup when N and M are.  Every normal
    subgroup is the product of the class subgroups of its elements."""
    elems = g.elements()
    identity = Permutation.identity(g.degree)

    def generated_by(seeds: frozenset[Permutation]) -> frozenset[Permutation]:
        items = {identity}
        frontier = [identity]
        while frontier:
            x = frontier.pop()
            for s in seeds:
                z = x * s
                if z not in items:
                    items.add(z)
                    frontier.append(z)
        return frozenset(items)

    classes = {frozenset(y * x * y.inverse() for y in elems) for x in elems}
    normals = {generated_by(c) for c in classes}
    frontier = list(normals)
    while frontier:
        a = frontier.pop()
        for b in list(normals):
            product = frozenset(x * y for x in a for y in b)
            if product not in normals:
                normals.add(product)
                frontier.append(product)
    return list(normals)


# ---------------------------------------------------------------------------
# criteria


def c01_two_transitive_spectrum() -> CheckResult:
    law = "2-transitive local action: achieved scale values are exactly the powers of k-1"
    problems = []
    for k in (3, 4, 5):
        sp = bmtree.scale_spectrum(PermGroup.symmetric(k), 6)
        expected = tuple(sorted((k - 1) ** n for n in range(7)))
        if sp.entries != expected or sp.truncated:
            problems.append(f"k={k}: got {sp.entries}, expected {expected}")
    detail = "; ".join(problems) if problems else "sym:3,4,5 at length 6 match exactly"
    return CheckResult("c01_two_transitive_spectrum", law, not problems, detail)


# c02-c05 compare exact exponent sets over every word length, up to this cap
_EXACT_CAP = 40


def _exact_exponents(name: str, law: str, cases, expected: tuple[int, ...],
                     passed: str) -> CheckResult:
    """The check that the p-exponents of sylow:p:sym:k over all word
    lengths, up to the cap, are exactly ``expected`` for each (k, p) in
    cases; ``passed`` is the detail when they are."""
    problems = []
    for k, p in cases:
        entries = bmtree.scale_spectrum(sylow.sylow_of_symmetric(k, p), 10 ** 9,
                                        mode="exponents", prime=p, cap=_EXACT_CAP).entries
        if entries != expected:
            problems.append(f"sylow:{p}:sym:{k}: got {entries}")
    return CheckResult(name, law, not problems, "; ".join(problems) or passed)


def c02_at_most_p_colours() -> CheckResult:
    return _exact_exponents(
        "c02_at_most_p_colours",
        "local p-group with no suborbit above 1 is uniscalar (exponent set {0})",
        [(4, 5), (5, 5)], (0,),
        f"sylow:5:sym:4 and sylow:5:sym:5 give exactly {{0}} over all lengths (cap {_EXACT_CAP})")


def c03_two_block_even_exponents() -> CheckResult:
    return _exact_exponents(
        "c03_two_block_even_exponents",
        "two p-blocks: achievable exponents are exactly the even naturals",
        [(6, 3)], tuple(range(0, _EXACT_CAP + 1, 2)),
        f"sylow:3:sym:6 gives exactly the even exponents 0..{_EXACT_CAP} over all lengths")


def c04_many_blocks_skip_one() -> CheckResult:
    return _exact_exponents(
        "c04_many_blocks_skip_one",
        "three or more p-blocks: achievable exponents are the naturals without 1",
        [(15, 5)], (0, *range(2, _EXACT_CAP + 1)),
        f"sylow:5:sym:15 gives exactly the exponents 0..{_EXACT_CAP} without 1 over all lengths")


def c05_mixed_blocks_full() -> CheckResult:
    return _exact_exponents(
        "c05_mixed_blocks_full",
        "mixed block structure: every exponent is achievable",
        [(4, 3), (9, 3)], tuple(range(_EXACT_CAP + 1)),
        f"sylow:3:sym:4 and sylow:3:sym:9 give exactly the exponents 0..{_EXACT_CAP} over all lengths")


def c06_symmetric_p_part_lattice() -> CheckResult:
    law = "p-parts of symmetric scale values are p^(e*n) with p^e the p-part of k-1"
    problems = []
    for k, step in ((7, 1), (5, 0)):
        sp = bmtree.scale_spectrum(PermGroup.symmetric(k), 6)
        exps = {valuation(v, 3) for v in sp.entries}
        expected = {step * n for n in range(7)}
        if exps != expected:
            problems.append(f"sym:{k} p=3: got exponents {sorted(exps)}, "
                            f"expected {sorted(expected)}")
        if bmtree.symscale_case(k, 3).ambient_step != step:
            problems.append(f"sym:{k} p=3: predicted step is not {step}")
    detail = "; ".join(problems) if problems else \
        "sym:7 gives 3-exponents 0..6, sym:5 gives {0}"
    return CheckResult("c06_symmetric_p_part_lattice", law, not problems, detail)


def c07_coprime_yet_locally_scaled() -> CheckResult:
    law = "all ambient scale values coprime to p while the local p-group spectrum is not {0}"
    sp = bmtree.scale_spectrum(PermGroup.symmetric(5), 6)
    powers_of_4 = {4 ** n for n in range(20)}
    bad = [v for v in sp.entries if v not in powers_of_4]
    f = sylow.sylow_of_symmetric(5, 3)
    local = bmtree.scale_spectrum(f, 8, mode="exponents", prime=3)
    ok = not bad and 1 in local.entries
    detail = (f"sym:5 values all powers of 4: {not bad}; "
              f"local 3-exponents {local.entries} contain 1: {1 in local.entries}")
    return CheckResult("c07_coprime_yet_locally_scaled", law, ok, detail)


def _sweep_groups(k: int) -> list[PermGroup]:
    return [PermGroup.symmetric(k), PermGroup.alternating(k), PermGroup.cyclic(k)]


def c08_oracle_agreement() -> CheckResult:
    law = ("closed-form scale equals the transporter-walk count and the "
           "explicit-tuple count; m-fold words give the m-th power")
    problems = []
    checked = 0

    def check(a: AxisData, label: str) -> None:
        nonlocal checked
        checked += 1
        s = scale(a)
        oc = balloracle.orbit_count(a)
        ex = balloracle.exhaustive_orbit_count(a) if balloracle.exhaustive_applies(a) else None
        if oc != s or ex not in (None, s):
            wrong = f"scale={s} walk={oc} tuples={ex}"
        else:
            powers = [(m, balloracle.orbit_count(a, m)) for m in (2, 3)
                      if len(a.word) * m <= balloracle.DEPTH_CAP]
            wrong = "; ".join(f"power {m} gives {n} != {s ** m}"
                              for m, n in powers if n != s ** m)
        if wrong:
            problems.append(f"{label}{a.group.degree}/{a.describe()}: {wrong}")

    for k in (3, 4):
        for f in _sweep_groups(k):
            for a in valid_axes(f, 3):
                check(a, "")
    rng = random.Random(_SEED + 8)
    for _ in range(200):
        k = rng.choice((3, 4, 5))
        check(random_axis(rng, rng.choice(_sweep_groups(k)), 4), "random ")
    detail = f"{checked} axes agree across scale, walk and tuple oracles" \
        if not problems else "; ".join(problems[:4])
    return CheckResult("c08_oracle_agreement", law, not problems, detail)


def c09_localised_sandwich() -> CheckResult:
    law = "per-element sandwich: p-part of ambient scale <= local scale <= ambient scale"
    problems = []
    checked = 0

    def check(a: AxisData, f_amb: PermGroup, p: int) -> None:
        nonlocal checked
        checked += 1
        ambient_axis = AxisData(f_amb, a.twist, a.word)
        amb = scale(ambient_axis)
        loc = localisation_scale(ambient_axis, p)
        p_part = p ** valuation(amb, p)
        if p_part > loc:
            broken = f"p-part {p_part} > local {loc} (ambient {amb})"
        elif loc > amb:
            broken = f"local {loc} > ambient {amb} (p-part {p_part})"
        else:
            return
        problems.append(((len(a.word), loc, f_amb.degree),
                         f"k={f_amb.degree} p={p} {a.describe()}: {broken}"))

    # one group per k, so F(p) and the local Sylow family are built once
    ambients = {k: PermGroup.symmetric(k) for k in (3, 4, 5)}
    for k in (3, 4):
        for p in [q for q in (2, 3) if q <= k]:
            for a in valid_axes(sylow.sylow_subgroup(ambients[k], p), 3):
                check(a, ambients[k], p)
    rng = random.Random(_SEED + 9)
    for _ in range(200):
        k = rng.choice((3, 4, 5))
        p = rng.choice([q for q in (2, 3, 5) if q <= k])
        check(random_axis(rng, sylow.sylow_subgroup(ambients[k], p), 4), ambients[k], p)
    # smallest counterexamples (shortest word, then least local scale) first
    shown = [text for _, text in sorted(problems)[:3]]
    detail = f"{checked} axes satisfy the sandwich" if not problems else \
        f"{len(problems)}/{checked} axes violate it, e.g. " + "; ".join(shown)
    return CheckResult("c09_localised_sandwich", law, not problems, detail)


def c10_modular_p_parts() -> CheckResult:
    law = ("the modular value is the ratio of forward and inverse scales; its "
           "p-parts match the local modular values and multiply back to it")
    problems = []
    checked = 0
    for k in (3, 4):
        for f in _sweep_groups(k):
            primes = list(prime_factors(f.order()))
            for a in valid_axes(f, 3):
                checked += 1
                delta = modular(a)
                product = Fraction(1)
                for p in primes:
                    product *= rational_p_part(delta, p)
                if product != delta:
                    problems.append(f"{f.degree}/{a.describe()}: p-parts multiply to "
                                    f"{product} != {delta}")
                for p in primes:
                    if a.twist in sylow.sylow_subgroup(f, p):
                        local_delta = Fraction(localisation_scale(a, p),
                                               localisation_scale(inverse_axis(a), p))
                        if rational_p_part(delta, p) != local_delta:
                            problems.append(
                                f"{f.degree}/{a.describe()} p={p}: "
                                f"{rational_p_part(delta, p)} != local {local_delta}")
    detail = f"{checked} axes reconstruct the modular value exactly" \
        if not problems else "; ".join(problems[:4])
    return CheckResult("c10_modular_p_parts", law, not problems, detail)


def c11_aggregate_divisibility() -> CheckResult:
    law = "ambient scale divides the product of local scales on colour-preserving axes"
    problems = []
    checked = 0
    rng = random.Random(_SEED + 11)
    for k in (4, 5, 6):
        f = PermGroup.symmetric(k)
        for _ in range(200):
            a = random_axis(rng, f, 5, colour_preserving=True)
            checked += 1
            s = scale(a)
            agg = 1
            for p in prime_factors(f.order()):
                agg *= localisation_scale(a, p)
            if agg % s != 0:
                problems.append(f"k={k} {a.describe()}: scale {s}, aggregate {agg}")
    detail = f"{checked} colour-preserving axes divide their aggregate" \
        if not problems else \
        f"{len(problems)}/{checked} axes fail, e.g. " + "; ".join(problems[:3])
    return CheckResult("c11_aggregate_divisibility", law, not problems, detail)


def c12_sylow_hall_battery() -> CheckResult:
    law = ("finite Sylow and Hall laws on the corpus: orders, conjugacy, "
           "cores, bases, covering, core intersection")
    problems = []
    for name, g in sylow.corpus():
        order = g.order()
        primes = list(prime_factors(order))
        for p in primes:
            s = sylow.sylow_subgroup(g, p)
            if s.order() != sylow.p_part_of_order(g, p):
                problems.append(f"{name}: Sylow {p} has order {s.order()}")
            # conjugates of a Sylow are Sylow and reachable by the search
            for x in list(g.generators)[:2]:
                conj = s.conjugate(x)
                if next(g.conjugators([(s, conj)]), None) is None:
                    problems.append(f"{name}: no conjugator onto a conjugate Sylow {p}")
        normals = normal_subgroups(g)
        for p in primes:
            core = sylow.p_core(g, p)
            cset = core.element_set()
            if not sylow.is_normal_in(core, g):
                problems.append(f"{name}: O_{p} not normal")
            if set(prime_factors(core.order())) - {p}:
                problems.append(f"{name}: O_{p} is not a {p}-group")
            for sub in normals:
                n = len(sub)
                if n > 1 and n == p ** valuation(n, p) and not {x.images for x in sub} <= cset:
                    problems.append(f"{name}: normal {p}-subgroup of order {n} outside O_{p}")
        basis = sylow.sylow_basis(g)
        bad = basis.violations()
        if bad:
            problems.append(f"{name}: basis violations {bad}")
        for x in list(g.generators)[:2]:
            pairs = [(m, m.conjugate(x)) for m in basis.members.values()]
            if next(g.conjugators(pairs), None) is None:
                problems.append(f"{name}: Sylow bases not simultaneously conjugate")
        # kernels K with G/K nilpotent: G itself and the nilpotent residual
        res = nilpotent_residual(g)
        for k_sub in [g] if res.order() == g.order() else [g, res]:
            try:
                if not sylow.verify_hall_covering(g, basis, k_sub):
                    problems.append(f"{name}: Hall covering fails for |K|={k_sub.order()}")
            except PreconditionError:
                problems.append(f"{name}: unexpected precondition failure for |K|={k_sub.order()}")
        for sub in normals:
            v = PermGroup(g.degree, sorted(sub))
            for prime_sets in ({frozenset({2})}, {frozenset({3})},
                               {frozenset({2}), frozenset({3})}):
                if not sylow.core_commensurability_check(g, v, prime_sets):
                    problems.append(f"{name}: core intersection fails for |V|={v.order()}")

    # the one named covering instance with a proper kernel
    s4 = PermGroup.symmetric(4)
    b4 = sylow.sylow_basis(s4)
    if not sylow.verify_hall_covering(s4, b4, PermGroup.alternating(4)):
        problems.append("sym4: covering with the even-permutation kernel fails")
    v4 = PermGroup(4, ["(1 2)(3 4)", "(1 3)(2 4)"])
    try:
        sylow.verify_hall_covering(s4, b4, v4)
        problems.append(
            "sym4: covering over the Klein kernel should refuse (quotient not nilpotent)")
    except PreconditionError:
        pass
    detail = "corpus battery clean" if not problems else "; ".join(problems[:5])
    return CheckResult("c12_sylow_hall_battery", law, not problems, detail)


def c13_spectrum_exponent_inclusion() -> CheckResult:
    law = "exponents of p-parts of ambient scale values embed into the local exponent spectrum"
    problems = []
    cap = 8
    for k in (4, 5, 6):
        amb = bmtree.scale_spectrum(PermGroup.symmetric(k), 5)
        for p in (2, 3, 5):
            fp = sylow.sylow_of_symmetric(k, p)
            max_order = max(x.order() for x in fp.elements())
            local = bmtree.scale_spectrum(fp, 5 * max_order, mode="exponents",
                                          prime=p, cap=cap)
            wanted = {valuation(v, p) for v in amb.entries}
            wanted = {e for e in wanted if e <= cap}
            missing = wanted - set(local.entries)
            if missing:
                problems.append(f"k={k} p={p}: exponents {sorted(missing)} missing "
                                f"from {local.entries}")
    detail = "all ambient p-exponents appear locally (matched bound 8)" \
        if not problems else "; ".join(problems)
    return CheckResult("c13_spectrum_exponent_inclusion", law, not problems, detail)


# ---------------------------------------------------------------------------
# registry

_SUITES = {
    "spectrum": (c01_two_transitive_spectrum, c02_at_most_p_colours,
                 c03_two_block_even_exponents, c04_many_blocks_skip_one,
                 c05_mixed_blocks_full, c06_symmetric_p_part_lattice,
                 c07_coprime_yet_locally_scaled),
    "oracle": (c08_oracle_agreement, c09_localised_sandwich, c10_modular_p_parts),
    "aggregate": (c11_aggregate_divisibility,),
    "sylow": (c12_sylow_hall_battery,),
    "inclusion": (c13_spectrum_exponent_inclusion,),
}
CHECKS = {check.__name__: check for items in _SUITES.values() for check in items}
SUITES = {"all": sorted(CHECKS),
          **{name: [check.__name__ for check in items] for name, items in _SUITES.items()}}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise PreconditionError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    return [CHECKS[item]() for item in sorted(SUITES[name])]
