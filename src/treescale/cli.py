"""Command-line interface.

Exit codes: 0 success, 1 precondition error, 2 parse error, 3 verification
failure.  Errors print one machine-parsable line on stderr in the form
``<category>: <message>``.  Every command accepts ``--json``; a JSON report
lists its keys in the documented fixed order, ``command`` first and ``law``
last, except that ``verify`` prints a list with one ``name, passed, law,
detail`` object per item.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import acceptance, balloracle, bmtree, sylow
from .errors import ParseError, PreconditionError
from .groupspec import parse_axis, parse_group_spec
from .supernat import prime_factors


def _emit(args, text: str, law: str, **fields) -> None:
    """Print the text, or with ``--json`` the report: ``command`` first,
    then the fields in the order given, ``law`` last."""
    if args.json:
        print(json.dumps({"command": args.command, **fields, "law": law}))
    else:
        print(text)


def _axis(args):
    spec = parse_group_spec(args.group)
    return spec, parse_axis(spec.group, args.axis)


# The commands that take one axis and report one value, printed as str(value):
# name -> (help, value of an axis, JSON key of the value, law).
_AXIS_COMMANDS = {
    "scale": ("scale of an axis", lambda a, _: bmtree.scale(a), "value",
              "scale is the product of suborbit sizes along the word"),
    "inverse": ("axis of the inverse element", lambda a, _: bmtree.inverse_axis(a).describe(),
                "inverse", "the inverse element reverses and twists the word"),
    "modular": ("modular value of an axis", lambda a, _: str(bmtree.modular(a)), "value",
                "the modular value is scale(x) / scale(x^-1)"),
    "aggregate": ("product of local scales", lambda a, _: bmtree.aggregate_scale(a), "value",
                  "aggregate scale is the product of the local scales"),
    "localscale": ("scale over the Sylow restriction",
                   lambda a, args: bmtree.localized_scale(a, args.prime), "value",
                   "local scale is the scale of the word over the Sylow restriction"),
}


def cmd_axis(args) -> int:
    _, value_of, key, law = _AXIS_COMMANDS[args.command]
    spec, a = _axis(args)
    value = value_of(a, args)
    prime = {"prime": args.prime} if "prime" in args else {}
    _emit(args, str(value), law, group=spec.canonical, **prime, axis=a.describe(),
          **{key: value})
    return 0


def cmd_spectrum(args) -> int:
    spec = parse_group_spec(args.group)
    sp = bmtree.scale_spectrum(spec.group, args.max_len, mode=args.mode,
                               prime=args.prime, cap=args.cap)
    fields = {k: v for k, v in dataclasses.asdict(sp).items()
              if k != "prime" or v is not None}
    _emit(args, " ".join(map(str, sp.entries)) + (" (truncated)" if sp.truncated else ""),
          "spectrum of achieved scale values over all valid axes",
          group=spec.canonical, **fields)
    return 0


def cmd_predict(args) -> int:
    pred = bmtree.symscale_case(args.k, args.prime)
    _emit(args, f"T = {pred.local_text()}; S = {pred.ambient_text()}",
          "case split of the local and ambient exponent sets",
          k=args.k, prime=args.prime, local_exponents=pred.local_exponents,
          ambient_step=pred.ambient_step)
    return 0


def _generators(sub) -> tuple[list[str], str]:
    """The generators of a subgroup as cycle strings, and as one text field."""
    gens = [str(g) for g in sub.generators]
    return gens, ", ".join(gens) or "none"


def cmd_sylow(args) -> int:
    spec = parse_group_spec(args.group)
    sub = sylow.sylow_subgroup(spec.group, args.prime)
    factors = prime_factors(spec.group.order() // sub.order())
    index = "*".join(str(q) if e == 1 else f"{q}^{e}" for q, e in factors.items()) or "1"
    gens, text = _generators(sub)
    _emit(args, f"order {sub.order()}, index {index}, generators {text}",
          "Sylow subgroup order is the p-part of the group order",
          group=spec.canonical, prime=args.prime, order=sub.order(), index=index,
          generators=gens)
    return 0


def cmd_basis(args) -> int:
    spec = parse_group_spec(args.group)
    basis = sylow.sylow_basis(spec.group)
    members, lines = [], []
    for p in sorted(basis.members):
        sub = basis.members[p]
        gens, text = _generators(sub)
        members.append({"prime": p, "order": sub.order(), "generators": gens})
        lines.append(f"p={p}: order {sub.order()}, generators {text}")
    _emit(args, "\n".join(lines) or "trivial group: no primes, empty basis",
          "a soluble group has pairwise permutable Sylow subgroups",
          group=spec.canonical, members=members)
    return 0


def cmd_oracle(args) -> int:
    spec, a = _axis(args)
    m = args.power
    walk = balloracle.orbit_count(a, m)  # refuses a deep walk before scale ** m
    counts = {"formula": bmtree.scale(a) ** m, "walk": walk}
    if m == 1 and balloracle.exhaustive_applies(a):
        counts["explicit"] = balloracle.exhaustive_orbit_count(a)
    _emit(args, "\n".join(f"{name + ':':9} {n}" for name, n in counts.items()),
          "the orbit count equals the m-th power of the scale",
          group=spec.canonical, axis=a.describe(), power=m, **counts)
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

    axis_commands = [(name, cmd_axis, row[0]) for name, row in _AXIS_COMMANDS.items()]
    # oracle keeps its place in the usage line, between aggregate and localscale
    axis_commands.insert(4, ("oracle", cmd_oracle, "orbit-count oracles next to the formula"))
    for name, fn, help_ in axis_commands:
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
