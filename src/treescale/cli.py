"""Command-line interface.

Exit codes: 0 success, 1 precondition error, 2 parse error, 3 verification
failure.  Errors print one machine-parsable line on stderr in the form
``<category>: <message>``.  Every command accepts ``--json``; JSON keys are
emitted in the documented fixed order.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import acceptance, balloracle, bmtree, sylow
from .errors import ParseError, PreconditionError
from .groupspec import parse_axis, parse_group_spec
from .supernat import prime_factors
from .sylow import subgroup_index


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _axis(args):
    spec = parse_group_spec(args.group)
    return spec, parse_axis(spec.group, args.axis)


def cmd_scale(args) -> int:
    spec, a = _axis(args)
    value = bmtree.scale(a)
    _emit(args, {"command": "scale", "group": spec.canonical,
                 "axis": a.describe(), "value": value,
                 "law": "scale is the product of suborbit sizes along the word"},
          str(value))
    return 0


def cmd_inverse(args) -> int:
    spec, a = _axis(args)
    inv = bmtree.inverse_axis(a)
    _emit(args, {"command": "inverse", "group": spec.canonical,
                 "axis": a.describe(), "inverse": inv.describe(),
                 "law": "the inverse element reverses and twists the word"},
          inv.describe())
    return 0


def cmd_modular(args) -> int:
    spec, a = _axis(args)
    delta = bmtree.modular(a)
    _emit(args, {"command": "modular", "group": spec.canonical,
                 "axis": a.describe(), "value": str(delta),
                 "law": "the modular value is scale(x) / scale(x^-1)"},
          str(delta))
    return 0


def cmd_localscale(args) -> int:
    spec, a = _axis(args)
    value = bmtree.localized_scale(a, args.prime)
    _emit(args, {"command": "localscale", "group": spec.canonical,
                 "prime": args.prime, "axis": a.describe(), "value": value,
                 "law": "local scale is the scale of the word over the Sylow restriction"},
          str(value))
    return 0


def cmd_aggregate(args) -> int:
    spec, a = _axis(args)
    value = bmtree.aggregate_scale(a)
    _emit(args, {"command": "aggregate", "group": spec.canonical,
                 "axis": a.describe(), "value": value,
                 "law": "aggregate scale is the product of the local scales"},
          str(value))
    return 0


def cmd_spectrum(args) -> int:
    spec = parse_group_spec(args.group)
    sp = bmtree.scale_spectrum(spec.group, args.max_len, mode=args.mode,
                               prime=args.prime, cap=args.cap)
    payload = {"command": "spectrum", "group": spec.canonical}
    payload.update(sp.to_json_dict())
    payload["law"] = "spectrum of achieved scale values over all valid axes"
    _emit(args, payload, " ".join(map(str, sp.entries))
          + (" (truncated)" if sp.truncated else ""))
    return 0


def cmd_predict(args) -> int:
    pred = bmtree.symscale_case(args.k, args.prime)
    text = f"T = {pred.local_text()}; S = {pred.ambient_text()}"
    _emit(args, {"command": "predict", "k": args.k, "prime": args.prime,
                 "local_exponents": pred.local_exponents,
                 "ambient_step": pred.ambient_step,
                 "law": "case split of the local and ambient exponent sets"},
          text)
    return 0


def cmd_sylow(args) -> int:
    spec = parse_group_spec(args.group)
    p = args.prime
    sub = bmtree.designated_sylow(spec.group, p)
    factors = prime_factors(subgroup_index(spec.group, sub))
    index = "*".join(str(q) if e == 1 else f"{q}^{e}" for q, e in factors.items()) or "1"
    payload = {"command": "sylow", "group": spec.canonical, "prime": p,
               "order": sub.order(), "index": index,
               "generators": [g.cycle_string() for g in sub.generators],
               "law": "Sylow subgroup order is the p-part of the group order"}
    text = (f"order {sub.order()}, index {index}, generators "
            + (", ".join(g.cycle_string() for g in sub.generators) or "none"))
    _emit(args, payload, text)
    return 0


def cmd_basis(args) -> int:
    spec = parse_group_spec(args.group)
    basis = sylow.sylow_basis(spec.group)
    members = [{"prime": p, "order": basis.members[p].order(),
                "generators": [g.cycle_string() for g in basis.members[p].generators]}
               for p in basis.primes()]
    payload = {"command": "basis", "group": spec.canonical, "members": members,
               "law": "a soluble group has pairwise permutable Sylow subgroups"}
    lines = [f"p={m['prime']}: order {m['order']}, generators "
             + (", ".join(m["generators"]) or "none") for m in members]
    _emit(args, payload, "\n".join(lines) or "trivial group: no primes, empty basis")
    return 0


def cmd_oracle(args) -> int:
    spec, a = _axis(args)
    m = args.power
    walk = balloracle.orbit_count(a, m)  # refuses a deep walk before scale ** m
    formula = bmtree.scale(a) ** m
    payload = {"command": "oracle", "group": spec.canonical,
               "axis": a.describe(), "power": m,
               "formula": formula, "walk": walk,
               "law": "the orbit count equals the m-th power of the scale"}
    lines = [f"formula:  {formula}", f"walk:     {walk}"]
    if m == 1 and balloracle.exhaustive_applies(a):
        explicit = balloracle.exhaustive_orbit_count(a)
        payload["explicit"] = explicit
        lines.append(f"explicit: {explicit}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    results = acceptance.run_suite(args.suite)
    if args.json:
        print(json.dumps([{"name": r.name, "passed": r.passed, "law": r.law,
                           "detail": r.detail} for r in results]))
    else:
        for r in results:
            print(r.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"verification-failure: {len(failed)} of {len(results)} items failed",
              file=sys.stderr)
        return 3
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later call in the process; a one-shot process builds it once.

    Reuse is safe because ``parse_args`` never changes the parser: each call
    fills a fresh namespace, reads the defaults without writing them, and
    prints usage and errors to the ``sys.stdout`` or ``sys.stderr`` current
    at that call.  It is built on first use, not at import, so importing
    the module builds no parser.
    """
    parser = argparse.ArgumentParser(
        prog="treescale",
        description="Scale arithmetic for universal groups acting on coloured trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    for name, fn, help_ in (
            ("scale", cmd_scale, "scale of an axis"),
            ("inverse", cmd_inverse, "axis of the inverse element"),
            ("modular", cmd_modular, "modular value of an axis"),
            ("aggregate", cmd_aggregate, "product of local scales"),
            ("oracle", cmd_oracle, "orbit-count oracles next to the formula"),
            ("localscale", cmd_localscale, "scale over the Sylow restriction")):
        p = add(name, fn, help_)
        p.add_argument("--group", required=True, help="group spec, e.g. sym:4")
        p.add_argument("--axis", required=True,
                       help='axis literal, e.g. "twist=id; word=1,2"')
        if name == "oracle":
            p.add_argument("--power", type=int, default=1,
                           help="count images of the m-fold word")
        if name == "localscale":
            p.add_argument("--prime", type=int, required=True,
                           help="the prime p of the Sylow restriction U(F(p))")

    p = add("spectrum", cmd_spectrum, "achieved scale values up to a word length")
    p.add_argument("--group", required=True)
    p.add_argument("--max-len", type=int, default=bmtree.LENGTH_CAP)
    p.add_argument("--mode", choices=("values", "exponents"), default="values")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--cap", type=int, default=None,
                   help="value cap (default 10^6) or exponent cap (default 12)")

    p = add("predict", cmd_predict, "case prediction of the exponent sets")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)

    p = add("sylow", cmd_sylow, "designated Sylow subgroup of a group")
    p.add_argument("--group", required=True)
    p.add_argument("--prime", type=int, required=True)

    p = add("basis", cmd_basis, "Sylow basis of a soluble group")
    p.add_argument("--group", required=True)

    p = add("verify", cmd_verify, "run the acceptance battery")
    p.add_argument("--suite", default="all",
                   help="one of: " + ", ".join(sorted(acceptance.SUITES)))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse-error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition-error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
