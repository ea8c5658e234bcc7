"""Supernatural numbers: formal products of prime powers p^e with e in
{1, 2, ...} or infinity.

These are the value domain for subgroup indices and p-parts.  The infinite
exponent is represented by ``math.inf`` and absorbs both addition (under
multiplication of numbers) and maximum (under lcm).

Canonical text form: primes ascending, ``2^3*5^inf*7``; the empty product
renders as ``1``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError, PreconditionError

INF = math.inf

_TOKEN_RE = re.compile(r"^(\d+)(?:\^(\d+|inf))?$")


def _is_inf(e) -> bool:
    return isinstance(e, float) and math.isinf(e) and e > 0


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise PreconditionError(f"cannot factor {n}; need n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


def valuation(n: int, p: int) -> int:
    """Largest e with p^e dividing n (n >= 1, p >= 2)."""
    if n < 1:
        raise PreconditionError("valuation needs n >= 1")
    if p < 2:
        raise PreconditionError(f"valuation needs a base of at least 2, got {p}")
    e = 0
    while n % p == 0:
        e += 1
        n //= p
    return e


class Supernatural:
    """An immutable supernatural number."""

    __slots__ = ("_exps",)

    def __init__(self, exps: dict | None = None):
        clean: dict[int, int | float] = {}
        for p, e in (exps or {}).items():
            if not is_prime(p):
                raise PreconditionError(f"{p} is not prime")
            if e == 0:
                continue
            if not _is_inf(e) and (not isinstance(e, int) or e < 0):
                raise PreconditionError(f"bad exponent {e!r} for prime {p}")
            clean[p] = e
        self._exps = dict(sorted(clean.items()))

    @classmethod
    def from_int(cls, n: int) -> "Supernatural":
        if n < 1:
            raise PreconditionError(f"no supernatural value for {n}; need n >= 1")
        return cls(prime_factors(n))

    @classmethod
    def parse(cls, text: str) -> "Supernatural":
        text = text.strip()
        if text == "1":
            return cls()
        exps: dict[int, int | float] = {}
        for token in text.split("*"):
            m = _TOKEN_RE.match(token.strip())
            if m is None:
                raise ParseError(f"bad supernatural token {token!r}")
            p = int(m.group(1))
            raw = m.group(2)
            e = 1 if raw is None else (INF if raw == "inf" else int(raw))
            if not is_prime(p):
                raise ParseError(f"{p} is not prime in {text!r}")
            if p in exps:
                raise ParseError(f"repeated prime {p} in {text!r}")
            if e == 0:
                raise ParseError(f"zero exponent not allowed in {text!r}")
            exps[p] = e
        return cls(exps)

    def primes(self) -> tuple[int, ...]:
        return tuple(self._exps)

    def exponent(self, p: int) -> int | float:
        return self._exps.get(p, 0)

    def is_finite(self) -> bool:
        return not any(_is_inf(e) for e in self._exps.values())

    def to_int(self) -> int:
        if not self.is_finite():
            raise PreconditionError(f"{self} is not a natural number")
        n = 1
        for p, e in self._exps.items():
            n *= p ** e
        return n

    def __mul__(self, other: "Supernatural") -> "Supernatural":
        exps = dict(self._exps)
        for p, e in other._exps.items():
            cur = exps.get(p, 0)
            exps[p] = INF if _is_inf(cur) or _is_inf(e) else cur + e
        return Supernatural(exps)

    @staticmethod
    def lcm(items) -> "Supernatural":
        exps: dict[int, int | float] = {}
        for item in items:
            if isinstance(item, int):
                item = Supernatural.from_int(item)
            for p, e in item._exps.items():
                exps[p] = max(exps.get(p, 0), e)
        return Supernatural(exps)

    def divides(self, other: "Supernatural") -> bool:
        return all(e <= other.exponent(p) for p, e in self._exps.items())

    def p_part(self, p: int) -> "Supernatural":
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        e = self._exps.get(p, 0)
        return Supernatural({p: e} if e else None)

    def render(self) -> str:
        if not self._exps:
            return "1"
        parts = []
        for p, e in self._exps.items():
            if e == 1:
                parts.append(str(p))
            elif _is_inf(e):
                parts.append(f"{p}^inf")
            else:
                parts.append(f"{p}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Supernatural({self.render()!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Supernatural) and self._exps == other._exps

    def __hash__(self) -> int:
        return hash(tuple(self._exps.items()))


ONE = Supernatural()


def rational_p_part(q: Fraction, p: int) -> Fraction:
    """p^v where v is the p-adic valuation of the positive rational q."""
    if q <= 0:
        raise PreconditionError("p-part is defined for positive rationals")
    v = valuation(q.numerator, p) - valuation(q.denominator, p)
    return Fraction(p) ** v
