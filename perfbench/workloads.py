"""The four benchmark workloads.

Each workload turns a seed into a fixed op list (plain data, so it can be
printed and digested), sets up its groups, and runs one op at a time.  The
op mix of every workload is stratified: the seed draws words, twists, word
lengths and point labellings, never the number of ops of each kind on each
group, so every seed asks for the same amount of work of each kind.

``treescale`` is reached through module attributes at call time
(``bmtree.scale(...)``), so the traced run sees every call.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import perms

# Template groups: (degree, generators, generators of the derived subgroup
# or None for an insoluble group).  The seed relabels their points, so the
# program sees a different generating set with the same structure.
TEMPLATES = {
    "S4": (4, ["(1 2)", "(1 2 3 4)"], ["(1 3 2)", "(1 4 2)"]),
    "A4": (4, ["(1 2 3)", "(2 3 4)"], ["(1 4)(2 3)", "(1 2)(3 4)"]),
    "D8": (4, ["(1 2 3 4)", "(1 3)"], ["(1 3)(2 4)"]),
    "AGL15": (5, ["(1 2 3 4 5)", "(2 3 5 4)"], ["(1 5 4 3 2)"]),
    "A5": (5, ["(1 2 3)", "(1 2 3 4 5)"], None),
    "S5": (5, ["(1 2)", "(1 2 3 4 5)"], None),
    "S3xS3": (6, ["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"], ["(1 2 3)", "(4 5 6)"]),
    "S3wrS2": (6, ["(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)"],
               ["(1 2)(4 5)", "(1 2 3)", "(1 2 3)(4 6 5)"]),
    "S2wrS3": (6, ["(1 2)", "(1 3 5)(2 4 6)", "(1 3)(2 4)"],
               ["(1 2)(3 4)", "(1 5 3)(2 6 4)"]),
    "A6": (6, ["(1 2 3)", "(2 3 4 5 6)"], None),
    "S6": (6, ["(1 2)", "(1 2 3 4 5 6)"], None),
    "AGL17": (7, ["(1 2 3 4 5 6 7)", "(2 4 3 7 5 6)"], ["(1 6 4 2 7 5 3)"]),
    "PSL27": (7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)", "(1 2)(3 6)"], None),
    "A7": (7, ["(1 2 3)", "(3 4 5 6 7)"], None),
    "S4xS3": (7, ["(1 2)", "(1 2 3 4)", "(5 6)", "(5 6 7)"],
              ["(5 7 6)", "(1 2 3)", "(2 4 3)(5 6 7)"]),
    "C2wrC4": (8, ["(1 2)", "(1 3 5 7)(2 4 6 8)"],
               ["(1 2)(3 4)", "(1 2)(7 8)", "(1 2)(5 6)"]),
    "S3xS3xC2": (8, ["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)", "(7 8)"],
                 ["(4 6 5)", "(1 3 2)"]),
}

# Template orders; the reference recomputes them with sympy.
TEMPLATE_ORDERS = {"S4": 24, "A4": 12, "D8": 8, "AGL15": 20, "A5": 60, "S5": 120,
                   "S3xS3": 36, "S3wrS2": 72, "S2wrS3": 48, "A6": 360, "S6": 720,
                   "AGL17": 42, "PSL27": 168, "A7": 2520, "S4xS3": 144,
                   "C2wrC4": 64, "S3xS3xC2": 72}


def relabelled(rng: random.Random, name: str):
    """(spec, generators, derived-subgroup generators) of a template with
    its points relabelled by a seeded permutation."""
    k, gens, derived = TEMPLATES[name]
    sigma = list(range(1, k + 1))
    rng.shuffle(sigma)
    sigma = tuple(sigma)
    new = [perms.conjugate(sigma, perms.parse_cycles(g, k)) for g in gens]
    rng.shuffle(new)
    kernel = None if derived is None else \
        [perms.conjugate(sigma, perms.parse_cycles(g, k)) for g in derived]
    return perms.gens_spec(k, new), new, kernel


def group_order(spec: str) -> int:
    """Order of a spec used by the workloads, from its documented meaning."""
    head, _, rest = spec.partition(":")
    if head == "sym":
        return math.factorial(int(rest))
    if head == "alt":
        return math.factorial(int(rest)) // 2
    if head == "cyclic":
        return int(rest)
    if head == "dihedral":
        return 2 * int(rest)
    if head == "sylow":
        p, _, inner = rest.partition(":")
        return perms.p_part(math.factorial(int(inner.partition(":")[2])), int(p))
    raise ValueError(f"no stored order for {spec!r}")


def _twist(rng: random.Random, k: int, gens) -> tuple[int, ...]:
    """A product of one to four generators."""
    t = perms.identity(k)
    for _ in range(rng.randint(1, 4)):
        t = perms.compose(t, rng.choice(gens))
    return t


def _axis(rng: random.Random, k: int, twist, lo: int, hi: int):
    """A proper word of length lo..hi whose seam colour twist(c_n) differs
    from c_1."""
    ident = twist == perms.identity(k)
    while True:
        n = rng.randint(max(lo, 2) if ident else lo, hi)
        word = [rng.randint(1, k)]
        while len(word) < n:
            c = rng.randint(1, k)
            if c != word[-1]:
                word.append(c)
        if twist[word[-1] - 1] != word[0]:
            return perms.cycle_string(twist), word


def axis_literal(twist: str, word) -> str:
    return f"twist={'id' if twist == '()' else twist}; word={','.join(map(str, word))}"


class Workload:
    """Common shape: ``inputs(seed)`` gives {"groups": [...], "ops": [...]};
    ``setup`` parses the groups and builds their chains; ``calls`` binds
    each op to a zero-argument callable; ``plain`` turns a result into plain
    data for the reference check."""

    name = ""
    tail_percentile = 0
    fresh_import = False

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict):
        from treescale import groupspec
        groups = [groupspec.parse_group_spec(s).group for s in inputs["groups"]]
        for g in groups:
            g.order()
        return groups

    def calls(self, state, inputs: dict) -> list:
        raise NotImplementedError

    def plain(self, op, result):
        return result


# ---------------------------------------------------------------------------


class AxisQueries(Workload):
    name = "axis_queries"
    tail_percentile = 99

    # spec or template -> ({prime: localized_scale ops}, aggregate_scale ops)
    POOL = [
        ("sym:3", {2: 2, 3: 2}, 2), ("sym:4", {2: 2, 3: 2}, 2),
        ("sym:5", {2: 2, 3: 2, 5: 2}, 2), ("sym:6", {2: 2, 3: 2, 5: 2}, 2),
        ("sym:8", {2: 2, 3: 2, 5: 2, 7: 2}, 2),
        ("sym:12", {2: 2, 3: 2, 5: 1, 7: 1, 11: 1}, 1),
        ("alt:4", {2: 2, 3: 2}, 2), ("alt:5", {2: 2, 3: 2, 5: 2}, 2),
        ("alt:7", {}, 0), ("alt:12", {}, 0),
        ("cyclic:5", {5: 2}, 2), ("cyclic:9", {3: 2}, 2),
        ("cyclic:12", {2: 2, 3: 2}, 2),
        ("dihedral:5", {2: 2, 5: 2}, 2), ("dihedral:6", {2: 2, 3: 2}, 2),
        ("dihedral:10", {2: 2, 5: 2}, 2),
        ("sylow:2:sym:4", {2: 2}, 2), ("sylow:2:sym:8", {2: 5}, 0),
        ("sylow:2:sym:12", {2: 1}, 0), ("sylow:3:sym:6", {3: 2}, 2),
        ("sylow:3:sym:9", {3: 8}, 2), ("sylow:3:sym:12", {3: 4}, 0),
        ("sylow:5:sym:10", {5: 3}, 2),
        ("S3wrS2", {2: 2, 3: 2}, 2), ("AGL17", {2: 2, 3: 2, 7: 2}, 2),
        ("C2wrC4", {2: 2}, 2),
    ]
    CHEAP = {"scale": 24, "inverse_axis": 8, "modular": 12, "orbit_count": 12}

    def inputs(self, seed):
        rng = random.Random(seed)
        groups, ops = [], []
        for gi, (name, local_plan, aggregates) in enumerate(self.POOL):
            if name in TEMPLATES:
                spec, gens, _ = relabelled(rng, name)
                order = TEMPLATE_ORDERS[name]
            else:
                spec = name
                gens = perms.spec_generators(spec)[1]
                order = group_order(spec)
            groups.append(spec)
            k = len(gens[0])
            full_symmetric = order == math.factorial(k)
            for kind, count in self.CHEAP.items():
                for _ in range(count):
                    if kind == "orbit_count":
                        m = rng.randint(1, 3)
                        ops.append([kind, gi, *_axis(rng, k, _twist(rng, k, gens), 1,
                                                     min(6, 12 // m)), m])
                    else:
                        ops.append([kind, gi, *_axis(rng, k, _twist(rng, k, gens), 1, 6)])
            for p, count in local_plan.items():
                # the twist must lie in the designated Sylow subgroup F(p)
                if full_symmetric:
                    local_gens = perms.block_sylow_generators(k, p)
                elif order == perms.p_part(order, p):
                    local_gens = gens
                else:
                    local_gens = []
                for _ in range(count):
                    twist = _twist(rng, k, local_gens) if local_gens else perms.identity(k)
                    ops.append(["localized_scale", gi, *_axis(rng, k, twist, 1, 6), p])
            for _ in range(aggregates):
                ops.append(["aggregate_scale", gi, *_axis(rng, k, perms.identity(k), 2, 6)])
        rng.shuffle(ops)
        return {"groups": groups, "ops": ops}

    def calls(self, groups, inputs):
        from treescale import balloracle, bmtree, groupspec
        out = []
        for op in inputs["ops"]:
            kind, gi, twist, word = op[:4]
            a = groupspec.parse_axis(groups[gi], axis_literal(twist, word))
            if kind == "scale":
                out.append(lambda a=a: bmtree.scale(a))
            elif kind == "inverse_axis":
                out.append(lambda a=a: bmtree.inverse_axis(a))
            elif kind == "modular":
                out.append(lambda a=a: bmtree.modular(a))
            elif kind == "orbit_count":
                out.append(lambda a=a, m=op[4]: balloracle.orbit_count(a, m))
            elif kind == "localized_scale":
                out.append(lambda a=a, p=op[4]: bmtree.localized_scale(a, p))
            else:
                out.append(lambda a=a: bmtree.aggregate_scale(a))
        return out

    def plain(self, op, result):
        if op[0] == "inverse_axis":
            return [list(result.twist.images), list(result.word)]
        if op[0] == "modular":
            return [result.numerator, result.denominator]
        return result


# ---------------------------------------------------------------------------


class SpectrumSweep(Workload):
    name = "spectrum_sweep"
    # Op costs come in steps between configurations, and a percentile that
    # falls on a step jumps with noise.  Five ops each of sylow:3:sym:9 and
    # sylow:2:sym:8 (10-13 ms) put the median inside one cluster of similar
    # ops, and p85 falls among the four 45-60 ms ops of sylow:2:sym:12 and
    # cyclic:16.
    tail_percentile = 85

    VALUE_CAP = 10 ** 6
    EXPONENT_CAP = 12
    # (spec or template, prime for exponent mode or None, length, ops).  The
    # DP's cost grows with the length, so lengths are fixed; the seed
    # relabels the gens: groups and orders the ops.
    PLAN = [
        ("sym:6", None, 10, 2), ("sym:12", None, 10, 2), ("sym:20", None, 9, 1),
        ("alt:9", None, 10, 2), ("dihedral:12", None, 11, 2),
        ("dihedral:20", None, 12, 1), ("cyclic:16", None, 18, 2),
        ("C2wrC4", None, 10, 2), ("S3wrS2", None, 10, 2),
        ("sylow:2:sym:8", 2, 14, 5), ("sylow:2:sym:12", 2, 19, 2),
        ("sylow:2:sym:16", 2, 10, 1), ("sylow:3:sym:9", 3, 12, 5),
        ("sylow:3:sym:12", 3, 14, 2), ("sylow:3:sym:27", 3, 15, 1),
        ("sylow:5:sym:15", 5, 10, 2), ("sylow:7:sym:14", 7, 9, 1),
        # small configurations, checked by brute force over all axes
        ("sym:4", None, 5, 1), ("dihedral:5", None, 4, 1),
        ("sylow:2:sym:4", 2, 5, 1), ("S4", None, 4, 1),
    ]

    def inputs(self, seed):
        rng = random.Random(seed)
        groups, ops = [], []
        for gi, (name, prime, length, count) in enumerate(self.PLAN):
            groups.append(relabelled(rng, name)[0] if name in TEMPLATES else name)
            mode = "values" if prime is None else "exponents"
            cap = self.VALUE_CAP if prime is None else self.EXPONENT_CAP
            ops += [["spectrum", gi, mode, prime, length, cap] for _ in range(count)]
        rng.shuffle(ops)
        return {"groups": groups, "ops": ops}

    def calls(self, groups, inputs):
        from treescale import bmtree
        return [lambda g=groups[gi], mode=mode, p=p, n=n, cap=cap:
                bmtree.scale_spectrum(g, n, mode=mode, prime=p, cap=cap)
                for _, gi, mode, p, n, cap in inputs["ops"]]

    def plain(self, op, result):
        return [list(result.entries), result.truncated]


# ---------------------------------------------------------------------------


class GroupEngine(Workload):
    name = "group_engine"
    tail_percentile = 95

    # Relabelling changes the canonical element order and so the cost of
    # the searches; three relabelled copies of each template average that out.
    COPIES = 3

    def inputs(self, seed):
        rng = random.Random(seed)
        groups, kernels, ops = [], [], []
        names = sorted(TEMPLATES) * self.COPIES
        rng.shuffle(names)
        for gi, name in enumerate(names):
            spec, _, kernel = relabelled(rng, name)
            groups.append(spec)
            kernels.append(None if kernel is None else [perms.cycle_string(g) for g in kernel])
            primes = perms.primes_dividing(TEMPLATE_ORDERS[name])
            ops += [["order", gi], ["is_soluble", gi], ["is_nilpotent", gi]]
            ops += [["sylow_subgroup", gi, p] for p in primes]
            ops += [["p_core", gi, p] for p in primes]
            ops.append(["fitting", gi])
            if kernel is not None:
                ops += [["sylow_basis", gi], ["verify_hall_covering", gi]]
        return {"groups": groups, "kernels": kernels, "ops": ops}

    def calls(self, groups, inputs):
        from treescale import perm, sylow
        bases = {}
        kernels = {gi: perm.PermGroup(groups[gi].degree, gens)
                   for gi, gens in enumerate(inputs["kernels"]) if gens is not None}

        def basis(gi):
            bases[gi] = sylow.sylow_basis(groups[gi])
            return bases[gi]

        out = []
        for op in inputs["ops"]:
            kind, gi = op[0], op[1]
            g = groups[gi]
            if kind == "order":
                out.append(lambda g=g: g.order())
            elif kind == "is_soluble":
                out.append(lambda g=g: g.is_soluble())
            elif kind == "is_nilpotent":
                out.append(lambda g=g: g.is_nilpotent())
            elif kind == "sylow_subgroup":
                out.append(lambda g=g, p=op[2]: sylow.sylow_subgroup(g, p))
            elif kind == "p_core":
                out.append(lambda g=g, p=op[2]: sylow.p_core(g, p))
            elif kind == "fitting":
                out.append(lambda g=g: sylow.fitting(g))
            elif kind == "sylow_basis":
                out.append(lambda gi=gi: basis(gi))
            else:
                out.append(lambda g=g, gi=gi: sylow.verify_hall_covering(
                    g, bases[gi], kernels[gi]))
        return out

    def plain(self, op, result):
        if op[0] in ("sylow_subgroup", "p_core", "fitting"):
            return [list(x.images) for x in result.generators]
        if op[0] == "sylow_basis":
            return {str(p): [list(x.images) for x in m.generators]
                    for p, m in sorted(result.members.items())}
        return result


# ---------------------------------------------------------------------------

SUITES = ("all", "spectrum", "oracle", "aggregate", "sylow", "inclusion")


class CliCalls(Workload):
    """``cli.main(argv)`` in this process, one call at a time; every call
    parses its arguments, builds fresh groups and renders JSON."""

    name = "cli_calls"
    tail_percentile = 98
    # setup re-imports treescale, so a tracer must be installed after it
    fresh_import = True

    # One group (and prime or power) per slot, so that every seed asks for
    # the same work; the seed draws words, twists and relabellings.
    AXIS_SLOTS = {
        "scale": ["sym:4", "alt:5", "sylow:2:sym:8", "S3wrS2"],
        "inverse": ["sym:5", "dihedral:6", "cyclic:6", "AGL15"],
        "modular": ["alt:4", "sylow:3:sym:9", "S3wrS2", "sym:5"],
        "oracle": ["sym:4", "alt:4", "dihedral:6", "AGL15"],
    }
    ORACLE_POWERS = [1, 2, 3, 1]
    LOCAL_SLOTS = [(3, 2), (4, 3), (5, 2), (6, 5)]                  # sym:k, prime
    SPECTRUM_SLOTS = [("sym:4", None, 4, 5), ("sylow:2:sym:6", 2, 4, 5),
                      ("dihedral:5", None, 4, 5), ("sylow:3:sym:6", 3, 4, 5)]
    SYLOW_SLOTS = [("sym:6", 3), ("alt:5", 2), ("S3wrS2", 3), ("AGL17", 7)]
    BASIS_SLOTS = ["sym:4", "A4", "dihedral:6", "S3xS3"]

    def inputs(self, seed):
        rng = random.Random(seed)
        ops = []

        def group(name):
            if name in TEMPLATES:
                spec, gens, _ = relabelled(rng, name)
                return spec, gens
            return name, perms.spec_generators(name)[1]

        for command, slots in self.AXIS_SLOTS.items():
            for slot, name in enumerate(slots):
                spec, gens = group(name)
                k = len(gens[0])
                twist = _twist(rng, k, gens)
                if command == "oracle":
                    m = self.ORACLE_POWERS[slot]
                    ops.append([command, "--group", spec, "--axis",
                                axis_literal(*_axis(rng, k, twist, 1, 6 // m)), "--power", str(m)])
                else:
                    ops.append([command, "--group", spec, "--axis",
                                axis_literal(*_axis(rng, k, twist, 1, 6))])
        for k, p in self.LOCAL_SLOTS:
            twist = _twist(rng, k, perms.block_sylow_generators(k, p))
            ops.append(["localscale", "--group", f"sym:{k}", "--prime", str(p), "--axis",
                        axis_literal(*_axis(rng, k, twist, 1, 5))])
        for k, _ in self.LOCAL_SLOTS:
            ops.append(["aggregate", "--group", f"sym:{k}", "--axis",
                        axis_literal(*_axis(rng, k, perms.identity(k), 2, 5))])
        for name, p, lo, hi in self.SPECTRUM_SLOTS:
            argv = ["spectrum", "--group", group(name)[0], "--max-len", str(rng.randint(lo, hi))]
            if p is None:
                argv += ["--cap", str(10 ** 6)]
            else:
                argv += ["--mode", "exponents", "--prime", str(p), "--cap", "12"]
            ops.append(argv)
        primes = [p for p in range(2, 32) if perms.is_prime(p)]
        for _ in range(4):
            ops.append(["predict", "--k", str(rng.randint(3, 30)),
                        "--prime", str(rng.choice(primes))])
        for name, p in self.SYLOW_SLOTS:
            ops.append(["sylow", "--group", group(name)[0], "--prime", str(p)])
        for name in self.BASIS_SLOTS:
            ops.append(["basis", "--group", group(name)[0]])
        ops = [["cli", argv + ["--json"]] for argv in ops]
        rng.shuffle(ops)
        return {"groups": [], "ops": ops,
                "trace_ops": [["cli", ["verify", "--suite", s, "--json"]] for s in SUITES]}

    def setup(self, inputs):
        """A fresh import of the CLI and every treescale module under it."""
        for name in [m for m in sys.modules if m == "treescale" or m.startswith("treescale.")]:
            del sys.modules[name]
        importlib.import_module("treescale.cli")

    def calls(self, state, inputs):
        from treescale import cli

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            return [code, out.getvalue(), err.getvalue()]

        return [lambda argv=op[1]: run(argv) for op in inputs["ops"]]


WORKLOADS = {w.name: w for w in (AxisQueries(), SpectrumSweep(), GroupEngine(), CliCalls())}


def digest(inputs: dict) -> str:
    import hashlib  # here, not at the top: it maps OpenSSL, which peak_rss_mb would count
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]
