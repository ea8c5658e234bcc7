"""Textual group specifications, group files and axis literals.

Builtin grammar:
    sym:k  alt:k  cyclic:k  dihedral:k  trivial:k
    sylow:p:<spec>      (sylow:p:sym:k uses the block constructor)
    gens:k:(..);(..)    inline generators, ';'-separated cycle notation
    file:<path>         group file, see parse_group_file

Group files: first significant line ``degree k``, then one generator per
line in disjoint-cycle notation; blank lines and ``#`` comments ignored.

Every form refuses a degree above ``DEGREE_BOUND`` with a precondition
error before it builds anything.

Axis literals: ``twist=(1 2 3); word=1,4,2`` or ``twist=id; word=1,2``.
"""

from __future__ import annotations

import os

from .bmtree import AxisData, designated_sylow
from .errors import ParseError, PreconditionError
from .perm import PermGroup, Permutation
from .supernat import is_prime

# The largest degree a group spec may have.  The cost of stabiliser chains
# and of the orbital table grows as a power of the degree, so a spec like
# sym:2000 would otherwise run for an unbounded time.  The tests, the
# battery and the benchmark use degrees of at most 27.
DEGREE_BOUND = 32


class GroupSpec:
    """A parsed group specification; rendering returns the canonical text."""

    __slots__ = ("canonical", "group")

    def __init__(self, canonical: str, group: PermGroup):
        self.canonical = canonical
        self.group = group

    def render(self) -> str:
        return self.canonical


def _parse_count(token: str, what: str) -> int:
    try:
        k = int(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}") from None
    if k < 1:
        raise ParseError(f"{what} must be positive, got {k}")
    return k


def _parse_degree(token: str, what: str) -> int:
    k = _parse_count(token, what)
    if k > DEGREE_BOUND:
        raise PreconditionError(f"degree {k} exceeds the degree bound {DEGREE_BOUND}")
    return k


_SIMPLE_BUILTINS = {
    "sym": PermGroup.symmetric,
    "alt": PermGroup.alternating,
    "cyclic": PermGroup.cyclic,
    "dihedral": PermGroup.dihedral,
    "trivial": PermGroup.trivial,
}


def parse_group_spec(text: str) -> GroupSpec:
    spec = text.strip()
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        if not os.path.exists(path):
            raise ParseError(f"group file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            group = parse_group_file(fh.read(), source=path)
        return GroupSpec(spec, group)

    head, _, rest = spec.partition(":")
    head = head.lower()
    if head in _SIMPLE_BUILTINS:
        k = _parse_degree(rest, "point count")
        try:
            return GroupSpec(f"{head}:{k}", _SIMPLE_BUILTINS[head](k))
        except Exception as exc:
            raise ParseError(f"cannot build {spec!r}: {exc}") from None
    if head == "sylow":
        ptext, _, inner = rest.partition(":")
        p = _parse_count(ptext, "prime")
        if not is_prime(p):
            raise ParseError(f"{p} is not prime in {spec!r}")
        if not inner:
            raise ParseError(f"sylow spec needs an inner group: {spec!r}")
        inner_spec = parse_group_spec(inner)
        group = designated_sylow(inner_spec.group, p)
        return GroupSpec(f"sylow:{p}:{inner_spec.canonical}", group)
    if head == "gens":
        ktext, _, body = rest.partition(":")
        k = _parse_degree(ktext, "point count")
        gens = []
        if body.strip():
            for chunk in body.split(";"):
                gens.append(Permutation.parse(chunk, k))
        group = PermGroup(k, gens)
        canonical = f"gens:{k}:" + ";".join(g.cycle_string() for g in group.generators)
        return GroupSpec(canonical, group)
    raise ParseError(f"unknown group spec {text!r}")


def parse_group_file(text: str, source: str = "<group file>") -> PermGroup:
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree":
                raise ParseError(f"{source}:{lineno}: expected 'degree k', got {line!r}")
            degree = _parse_degree(parts[1], "degree")
            continue
        try:
            gens.append(Permutation.parse(line, degree))
        except ParseError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from None
    if degree is None:
        raise ParseError(f"{source}: missing 'degree k' line")
    return PermGroup(degree, gens)


def parse_axis(group: PermGroup, text: str) -> AxisData:
    """Parse an axis literal against a known colour group."""
    twist = None
    word = None
    seen = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, value = chunk.partition("=")
        if not eq:
            raise ParseError(f"bad axis clause {chunk!r}")
        key = key.strip().lower()
        value = value.strip()
        if key in seen:
            raise ParseError(f"repeated axis clause {key!r}")
        seen.add(key)
        if key == "twist":
            if value == "id":
                twist = Permutation.identity(group.degree)
            else:
                twist = Permutation.parse(value, group.degree)
        elif key == "word":
            try:
                word = tuple(int(tok) for tok in value.split(","))
            except ValueError:
                raise ParseError(f"bad word {value!r}") from None
        else:
            raise ParseError(f"unknown axis key {key!r}")
    if twist is None or word is None:
        raise ParseError("axis literal needs both twist=... and word=...")
    return AxisData(group, twist, word)


def render_axis(a: AxisData) -> str:
    return a.describe()


__all__ = ["DEGREE_BOUND", "GroupSpec", "parse_group_spec", "parse_group_file",
           "parse_axis", "render_axis"]
