"""Supernatural arithmetic tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treescale.errors import ParseError, PreconditionError
from treescale.supernat import (INF, ONE, Supernatural, is_prime, prime_factors,
                                rational_p_part, valuation)

naturals = st.integers(min_value=1, max_value=31_622)  # product stays <= 1e9


def is_finite(s):
    """No prime of s has an infinite exponent."""
    return all(s.exponent(p) != INF for p in s.primes())


def test_prime_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(1) == {}
    assert valuation(48, 2) == 4


def test_lcm_example():
    assert Supernatural.lcm([12, 18]) == Supernatural.from_int(36)


def test_p_part_example():
    assert Supernatural.from_int(360).p_part(3) == Supernatural.from_int(9)


def test_infinity_absorbs():
    two_inf = Supernatural({2: INF})
    assert two_inf * Supernatural({2: 5}) == two_inf
    assert Supernatural.lcm([two_inf, Supernatural.from_int(32)]) == two_inf
    assert Supernatural.from_int(32).divides(two_inf)
    assert not two_inf.divides(Supernatural.from_int(32))
    assert two_inf.divides(two_inf)
    assert not is_finite(two_inf)
    assert is_finite(Supernatural({2: 5}))


def test_from_int_rejects_zero():
    with pytest.raises(PreconditionError):
        Supernatural.from_int(0)


def test_no_zero_exponents_stored():
    assert Supernatural({2: 0}) == ONE
    assert ONE.primes() == ()


def test_non_prime_key_rejected():
    with pytest.raises(PreconditionError):
        Supernatural({4: 1})


@given(naturals, naturals)
def test_from_int_is_multiplicative(a, b):
    assert Supernatural.from_int(a * b) == \
        Supernatural.from_int(a) * Supernatural.from_int(b)


@given(naturals, naturals)
def test_divides_lcm(a, b):
    sa, sb = Supernatural.from_int(a), Supernatural.from_int(b)
    m = Supernatural.lcm([sa, sb])
    assert sa.divides(m) and sb.divides(m)


@given(naturals)
def test_reconstruction_from_p_parts(a):
    sa = Supernatural.from_int(a)
    product = ONE
    for p in sa.primes():
        product = product * sa.p_part(p)
    assert product == sa
    assert math.prod(p ** sa.exponent(p) for p in sa.primes()) == a


@given(naturals, naturals, naturals)
def test_mul_associative_commutative(a, b, c):
    sa, sb, sc = map(Supernatural.from_int, (a, b, c))
    assert sa * sb == sb * sa
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * ONE == sa


class TestRendering:
    def test_render(self):
        assert Supernatural({2: 3, 5: INF, 7: 1}).render() == "2^3*5^inf*7"
        assert ONE.render() == "1"

    def test_round_trip(self):
        for text in ("1", "2", "2^3*5^inf*7", "3^2*11"):
            assert Supernatural.parse(text).render() == text

    def test_parse_errors(self):
        for bad in ("4^2", "2^", "2**3", "x", "2^3*2"):
            with pytest.raises(ParseError):
                Supernatural.parse(bad)


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
