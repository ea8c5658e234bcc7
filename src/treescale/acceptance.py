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


def all_subgroups(g: PermGroup) -> set[frozenset[Permutation]]:
    """Every subgroup of a small group, as element sets: close the cyclic
    subgroups under pairwise join."""
    elems = g.elements()
    identity = Permutation.identity(g.degree)

    def closure(seed: frozenset[Permutation]) -> frozenset[Permutation]:
        items = set(seed) | {identity}
        frontier = list(items)
        while frontier:
            x = frontier.pop()
            for y in list(items):
                for z in (x * y, y * x):
                    if z not in items:
                        items.add(z)
                        frontier.append(z)
        return frozenset(items)

    cyclics = {closure(frozenset({x})) for x in elems}
    subs = set(cyclics) | {frozenset({identity})}
    frontier = list(subs)
    while frontier:
        a = frontier.pop()
        for c in cyclics:
            j = closure(a | c)
            if j not in subs:
                subs.add(j)
                frontier.append(j)
    return subs


def normal_subgroups(g: PermGroup) -> list[frozenset[Permutation]]:
    out = []
    for sub in all_subgroups(g):
        if all(x * s * x.inverse() in sub for x in g.generators for s in sub):
            out.append(sub)
    return out


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


def c02_at_most_p_colours() -> CheckResult:
    law = "local p-group with no suborbit above 1 is uniscalar (exponent set {0})"
    problems = []
    for k in (4, 5):
        f = sylow.sylow_of_symmetric(k, 5)
        sp = bmtree.scale_spectrum(f, 8, mode="exponents", prime=5)
        if sp.entries != (0,):
            problems.append(f"sylow:5:sym:{k}: got {sp.entries}")
    detail = "; ".join(problems) if problems else "sylow:5:sym:4 and sylow:5:sym:5 give {0}"
    return CheckResult("c02_at_most_p_colours", law, not problems, detail)


def c03_two_block_even_exponents() -> CheckResult:
    law = "two p-blocks: achievable exponents are exactly the even naturals"
    f = sylow.sylow_of_symmetric(6, 3)
    sp = bmtree.scale_spectrum(f, 8, mode="exponents", prime=3)
    expected = (0, 2, 4, 6, 8)
    ok = sp.entries == expected
    detail = (f"sylow:3:sym:6 at length 8 gives {sp.entries}"
              + ("" if ok else f", expected {expected}"))
    return CheckResult("c03_two_block_even_exponents", law, ok, detail)


def c04_many_blocks_skip_one() -> CheckResult:
    law = "three or more p-blocks: achievable exponents are the naturals without 1"
    f = sylow.sylow_of_symmetric(15, 5)
    sp = bmtree.scale_spectrum(f, 6, mode="exponents", prime=5)
    entries = set(sp.entries)
    ok = {0, 2, 3, 4, 5, 6} <= entries and 1 not in entries
    detail = f"sylow:5:sym:15 at length 6 gives {sp.entries}"
    return CheckResult("c04_many_blocks_skip_one", law, ok, detail)


def c05_mixed_blocks_full() -> CheckResult:
    law = "mixed block structure: every exponent is achievable"
    problems = []
    for k in (4, 9):
        f = sylow.sylow_of_symmetric(k, 3)
        sp = bmtree.scale_spectrum(f, 6, mode="exponents", prime=3)
        if not {0, 1, 2, 3} <= set(sp.entries):
            problems.append(f"sylow:3:sym:{k}: got {sp.entries}")
    detail = "; ".join(problems) if problems else \
        "sylow:3:sym:4 and sylow:3:sym:9 reach exponents 0..3 at length 6"
    return CheckResult("c05_mixed_blocks_full", law, not problems, detail)


def c06_symmetric_p_part_lattice() -> CheckResult:
    law = "p-parts of symmetric scale values are p^(e*n) with p^e the p-part of k-1"
    problems = []
    for k, step in ((7, 1), (5, 0)):
        sp = bmtree.scale_spectrum(PermGroup.symmetric(k), 6)
        exps = {valuation(v, 3) for v in sp.entries}
        expected = {step * n for n in range(7)} if step else {0}
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
    for k in (3, 4):
        for f in _sweep_groups(k):
            for a in valid_axes(f, 3):
                checked += 1
                s = scale(a)
                oc = balloracle.orbit_count(a)
                ex = balloracle.exhaustive_orbit_count(a)
                if not (s == oc == ex):
                    problems.append(f"{f.degree}/{a.describe()}: scale={s} walk={oc} tuples={ex}")
                    continue
                for m in (2, 3):
                    if len(a.word) * m <= balloracle.DEPTH_CAP:
                        ocm = balloracle.orbit_count(a, m)
                        if ocm != s ** m:
                            problems.append(
                                f"{f.degree}/{a.describe()}: power {m} gives {ocm} != {s ** m}")
    rng = random.Random(_SEED + 8)
    for _ in range(200):
        k = rng.choice((3, 4, 5))
        f = rng.choice(_sweep_groups(k))
        a = random_axis(rng, f, 4)
        checked += 1
        s = scale(a)
        oc = balloracle.orbit_count(a)
        if s != oc:
            problems.append(f"random {f.degree}/{a.describe()}: scale={s} walk={oc}")
        if f.order() <= balloracle.GROUP_CAP and len(a.word) <= 3:
            ex = balloracle.exhaustive_orbit_count(a)
            if ex != s:
                problems.append(f"random {f.degree}/{a.describe()}: tuples={ex} != {s}")
        for m in (2, 3):
            if len(a.word) * m <= balloracle.DEPTH_CAP:
                if balloracle.orbit_count(a, m) != s ** m:
                    problems.append(f"random {f.degree}/{a.describe()}: power {m} mismatch")
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
            for a in valid_axes(bmtree.designated_sylow(ambients[k], p), 3):
                check(a, ambients[k], p)
    rng = random.Random(_SEED + 9)
    for _ in range(200):
        k = rng.choice((3, 4, 5))
        p = rng.choice([q for q in (2, 3, 5) if q <= k])
        check(random_axis(rng, bmtree.designated_sylow(ambients[k], p), 4), ambients[k], p)
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
            primes = list(prime_factors(f.order())) or []
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
                    if a.twist in bmtree.designated_sylow(f, p):
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

    def note(msg: str) -> None:
        problems.append(msg)

    for name, g in sylow.corpus():
        order = g.order()
        primes = list(prime_factors(order))
        sylows = {}
        for p in primes:
            s = sylow.sylow_subgroup(g, p)
            sylows[p] = s
            if s.order() != sylow.p_part_of_order(g, p):
                note(f"{name}: Sylow {p} has order {s.order()}")
            # conjugates of a Sylow are Sylow and reachable by the search
            for x in list(g.generators)[:2]:
                conj = s.conjugate(x)
                if next(g.conjugators([(s, conj)]), None) is None:
                    note(f"{name}: no conjugator onto a conjugate Sylow {p}")
        normals = normal_subgroups(g)
        for p in primes:
            core = sylow.p_core(g, p)
            cset = core.element_set()
            if not sylow.is_normal_in(core, g):
                note(f"{name}: O_{p} not normal")
            if set(prime_factors(core.order())) - {p}:
                note(f"{name}: O_{p} is not a {p}-group")
            for sub in normals:
                n = len(sub)
                if n > 1 and n == p ** valuation(n, p) and not sub <= cset:
                    note(f"{name}: normal {p}-subgroup of order {n} outside O_{p}")
        basis = sylow.sylow_basis(g)
        bad = basis.violations()
        if bad:
            note(f"{name}: basis violations {bad}")
        for x in list(g.generators)[:2]:
            other = basis.conjugate(x)
            pairs = [(basis.members[p], other.members[p]) for p in basis.members]
            if next(g.conjugators(pairs), None) is None:
                note(f"{name}: Sylow bases not simultaneously conjugate")
        for k_sub in _covering_kernels(g):
            try:
                if not sylow.verify_hall_covering(g, basis, k_sub):
                    note(f"{name}: Hall covering fails for |K|={k_sub.order()}")
            except PreconditionError:
                note(f"{name}: unexpected precondition failure for |K|={k_sub.order()}")
        for sub in normals:
            v = PermGroup(g.degree, sorted(sub))
            for prime_sets in ({frozenset({2})}, {frozenset({3})},
                               {frozenset({2}), frozenset({3})}):
                if not sylow.core_commensurability_check(g, v, prime_sets):
                    note(f"{name}: core intersection fails for |V|={v.order()}")

    # the one named covering instance with a proper kernel
    s4 = PermGroup.symmetric(4)
    b4 = sylow.sylow_basis(s4)
    if not sylow.verify_hall_covering(s4, b4, PermGroup.alternating(4)):
        note("sym4: covering with the even-permutation kernel fails")
    v4 = PermGroup(4, ["(1 2)(3 4)", "(1 3)(2 4)"])
    try:
        sylow.verify_hall_covering(s4, b4, v4)
        note("sym4: covering over the Klein kernel should refuse (quotient not nilpotent)")
    except PreconditionError:
        pass
    detail = "corpus battery clean" if not problems else "; ".join(problems[:5])
    return CheckResult("c12_sylow_hall_battery", law, not problems, detail)


def _covering_kernels(g: PermGroup) -> list[PermGroup]:
    """Kernels K with G/K nilpotent to feed the covering check: G itself and
    the nilpotent residual."""
    kernels = [g]
    res = nilpotent_residual(g)
    if res.order() != g.order():
        kernels.append(res)
    return kernels


def c13_spectrum_exponent_inclusion() -> CheckResult:
    law = "exponents of p-parts of ambient scale values embed into the local exponent spectrum"
    problems = []
    cap = 8
    for k in (4, 5, 6):
        amb = bmtree.scale_spectrum(PermGroup.symmetric(k), 5)
        for p in (2, 3, 5):
            fp = sylow.sylow_of_symmetric(k, p)
            max_order = max((x.order() for x in fp.elements()), default=1)
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

CHECKS = {
    "c01_two_transitive_spectrum": c01_two_transitive_spectrum,
    "c02_at_most_p_colours": c02_at_most_p_colours,
    "c03_two_block_even_exponents": c03_two_block_even_exponents,
    "c04_many_blocks_skip_one": c04_many_blocks_skip_one,
    "c05_mixed_blocks_full": c05_mixed_blocks_full,
    "c06_symmetric_p_part_lattice": c06_symmetric_p_part_lattice,
    "c07_coprime_yet_locally_scaled": c07_coprime_yet_locally_scaled,
    "c08_oracle_agreement": c08_oracle_agreement,
    "c09_localised_sandwich": c09_localised_sandwich,
    "c10_modular_p_parts": c10_modular_p_parts,
    "c11_aggregate_divisibility": c11_aggregate_divisibility,
    "c12_sylow_hall_battery": c12_sylow_hall_battery,
    "c13_spectrum_exponent_inclusion": c13_spectrum_exponent_inclusion,
}

SUITES = {
    "all": sorted(CHECKS),
    "spectrum": ["c01_two_transitive_spectrum", "c02_at_most_p_colours",
                 "c03_two_block_even_exponents", "c04_many_blocks_skip_one",
                 "c05_mixed_blocks_full", "c06_symmetric_p_part_lattice",
                 "c07_coprime_yet_locally_scaled"],
    "oracle": ["c08_oracle_agreement", "c09_localised_sandwich",
               "c10_modular_p_parts"],
    "aggregate": ["c11_aggregate_divisibility"],
    "sylow": ["c12_sylow_hall_battery"],
    "inclusion": ["c13_spectrum_exponent_inclusion"],
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise PreconditionError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    return [CHECKS[item]() for item in sorted(SUITES[name])]
