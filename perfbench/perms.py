"""Plain-tuple permutations and the group-spec grammar, written for the
benchmark alone.

The input generator and the reference checks both use this module; it
shares no code with ``treescale``.  A permutation of {1..k} is the tuple of
its images, and ``compose(p, q)`` applies q first, as the CLI documents.
"""

from __future__ import annotations

import math
import re

_CYCLE = re.compile(r"\(([^()]*)\)")


def identity(k: int) -> tuple[int, ...]:
    return tuple(range(1, k + 1))


def compose(p, q) -> tuple[int, ...]:
    return tuple(p[i - 1] for i in q)


def inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, img in enumerate(p, start=1):
        out[img - 1] = i
    return tuple(out)


def conjugate(sigma, p) -> tuple[int, ...]:
    """sigma p sigma^-1: the permutation p with points relabelled by sigma."""
    return compose(compose(sigma, p), inverse(sigma))


def from_cycles(k: int, cycles) -> tuple[int, ...]:
    images = list(range(1, k + 1))
    for cyc in cycles:
        for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            images[a - 1] = b
    return tuple(images)


def parse_cycles(text: str, k: int) -> tuple[int, ...]:
    return from_cycles(k, [[int(t) for t in body.split()]
                           for body in _CYCLE.findall(text) if body.strip()])


def cycle_string(p) -> str:
    seen = set()
    out = []
    for start in range(1, len(p) + 1):
        if start in seen or p[start - 1] == start:
            continue
        cyc = [start]
        seen.add(start)
        x = p[start - 1]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = p[x - 1]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primes_dividing(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def block_sylow_generators(k: int, p: int) -> list[tuple[int, ...]]:
    """Generators of the Sylow p-subgroup of Sym(k) named ``sylow:p:sym:k``:
    {1..k} is cut into consecutive blocks of p-power size, largest first, and
    a block of size p^j carries the iterated wreath product generated by the
    cycles of its p sub-blocks at each width p^0 .. p^(j-1)."""
    gens = []
    start = 1
    width = 1
    while width * p <= k:
        width *= p
    rest = k
    while width >= 1:
        count, rest = divmod(rest, width)
        for _ in range(count):
            size = 1
            while size < width:
                gens.append(from_cycles(k, [[start + r + t * size for t in range(p)]
                                            for r in range(size)]))
                size *= p
            start += width
        width //= p
    return gens


def spec_generators(spec: str) -> tuple[int, list[tuple[int, ...]]]:
    """(degree, generators) of a group spec, following the documented
    grammar: sym, alt, cyclic, dihedral, sylow:p:sym:k and gens:k:..."""
    head, _, rest = spec.partition(":")
    if head == "gens":
        ktext, _, body = rest.partition(":")
        k = int(ktext)
        return k, [parse_cycles(chunk, k) for chunk in body.split(";") if chunk.strip()]
    if head == "sylow":
        ptext, _, inner = rest.partition(":")
        ihead, _, ktext = inner.partition(":")
        if ihead != "sym":
            raise ValueError(f"the benchmark only uses sylow:p:sym:k, not {spec!r}")
        k = int(ktext)
        return k, block_sylow_generators(k, int(ptext))
    k = int(rest)
    if head == "sym":
        gens = [from_cycles(k, [[1, 2]]), from_cycles(k, [list(range(1, k + 1))])]
    elif head == "alt":
        gens = [from_cycles(k, [[1, 2, i]]) for i in range(3, k + 1)]
    elif head == "cyclic":
        gens = [from_cycles(k, [list(range(1, k + 1))])]
    elif head == "dihedral":
        gens = [from_cycles(k, [list(range(1, k + 1))]),
                tuple([1] + [k + 2 - i for i in range(2, k + 1)])]
    else:
        raise ValueError(f"unknown group spec {spec!r}")
    return k, [g for g in gens if g != identity(k)]


def gens_spec(k: int, gens) -> str:
    return f"gens:{k}:" + ";".join(cycle_string(g) for g in gens)
