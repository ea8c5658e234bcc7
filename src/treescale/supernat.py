"""Number helpers for group orders and scales: primality, factorisation,
p-adic valuation and the p-part of a positive rational.

Indices of subgroups are finite integers here; the ``sylow`` command renders
them as prime powers from ``prime_factors``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError

# The first twelve primes.  As Miller-Rabin bases they decide primality
# exactly for every n < 2^64 (Sorenson and Webster, Math. Comp. 86, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Whether n is prime; n >= 2^64 with no prime factor up to 37 is refused."""
    if n <= 37:
        return n in _BASES
    if any(n % p == 0 for p in _BASES):
        return False
    if n >= 1 << 64:
        raise PreconditionError(f"cannot decide whether {n} is prime; need n < 2^64")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


def rational_p_part(q: Fraction, p: int) -> Fraction:
    """p^v where v is the p-adic valuation of the positive rational q."""
    if q <= 0:
        raise PreconditionError("p-part is defined for positive rationals")
    v = valuation(q.numerator, p) - valuation(q.denominator, p)
    return Fraction(p) ** v
