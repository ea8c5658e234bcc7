"""Number helper tests: primality, factorisation and valuations."""

import math
from fractions import Fraction

import pytest

from treescale.errors import PreconditionError
from treescale.supernat import is_prime, prime_factors, rational_p_part, valuation


def trial_division_is_prime(n):
    """Reference: no divisor in 2..isqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_prime_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(1) == {}
    assert valuation(48, 2) == 4


def test_is_prime_agrees_with_trial_division():
    sieve = [trial_division_is_prime(n) for n in range(10 ** 5 + 1)]
    assert [is_prime(n) for n in range(10 ** 5 + 1)] == sieve
    assert not any(is_prime(n) for n in range(-5, 0))


def test_is_prime_up_to_two_to_the_64():
    assert is_prime(10 ** 18 + 3)
    assert is_prime(2 ** 64 - 59)  # the largest prime below 2^64
    assert not is_prime(2 ** 64 - 1)
    # a strong pseudoprime to the first nine primes as bases
    assert not is_prime(3825123056546413051)
    # a small factor settles even n >= 2^64
    assert not is_prime(2 ** 64)
    assert not is_prime(3 * 2 ** 70)
    with pytest.raises(PreconditionError):
        is_prime(2 ** 64 + 13)


def test_rational_p_part():
    assert rational_p_part(Fraction(9, 2), 3) == 9
    assert rational_p_part(Fraction(9, 2), 2) == Fraction(1, 2)
    assert rational_p_part(Fraction(1), 5) == 1
    with pytest.raises(PreconditionError):
        rational_p_part(Fraction(-1), 2)


@pytest.mark.parametrize("p", [1, 0, -1])
def test_base_below_two_is_refused(p):
    # a base of 1, 0 or -1 would divide n forever
    with pytest.raises(PreconditionError):
        valuation(4, p)
    with pytest.raises(PreconditionError):
        rational_p_part(Fraction(9, 2), p)


def test_zero_is_refused():
    with pytest.raises(PreconditionError, match=r"^cannot factor 0; need n >= 1$"):
        prime_factors(0)
    with pytest.raises(PreconditionError, match=r"^valuation needs n >= 1$"):
        valuation(0, 2)
