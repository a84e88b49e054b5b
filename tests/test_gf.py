import random
from fractions import Fraction
from math import gcd

import pytest

from ppinterp.gf import (
    DEFAULT_PRIME,
    MAX_PRIME,
    ZeroInverseError,
    as_fraction,
    check_modulus,
    inv_mod,
    is_prime,
    scalar_to_json,
)

P = DEFAULT_PRIME


def euclid_inverse(x, p):
    # independent oracle: extended Euclid
    old_r, r = x % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def test_inverse_identity():
    assert inv_mod(1, P) == 1


def test_inverse_minus_one():
    assert inv_mod(P - 1, P) == P - 1


def test_inverse_two():
    expected = euclid_inverse(2, P)
    assert expected == 15996
    assert inv_mod(2, P) == expected
    assert 2 * 15996 % P == 1


def test_inverse_zero_raises():
    with pytest.raises(ZeroInverseError):
        inv_mod(0, P)
    with pytest.raises(ZeroInverseError):
        inv_mod(P, P)


def test_inverse_involution_and_product():
    rng = random.Random(12)
    for _ in range(1000):
        x = rng.randrange(1, P)
        y = inv_mod(x, P)
        assert x * y % P == 1
        assert inv_mod(y, P) == x


def test_default_prime_is_odd_prime():
    assert is_prime(P) and P % 2 == 1
    check_modulus(P, max_degree=6)


@pytest.mark.parametrize("bad", [1, 2, 9, 15, 31989, 2**61 - 1])
def test_check_modulus_rejects(bad):
    with pytest.raises(ValueError):
        check_modulus(bad)


def test_check_modulus_word_size_bound():
    # the largest prime below MAX_PRIME passes
    assert check_modulus(67108859) == 67108859
    assert not any(is_prime(q) for q in range(67108861, MAX_PRIME))


def test_check_modulus_degree_bound():
    with pytest.raises(ValueError):
        check_modulus(5, max_degree=6)


def test_rational_results_lowest_terms():
    rng = random.Random(3)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        for v in (a + b, a * b, a - b):
            assert v.denominator > 0
            assert gcd(v.numerator, v.denominator) == 1


def test_as_fraction_parsing():
    assert as_fraction(7) == 7
    assert as_fraction("3/4") == Fraction(3, 4)
    assert scalar_to_json(Fraction(3, 4)) == "3/4"
    assert scalar_to_json(Fraction(8, 4)) == 2
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(True)


@pytest.mark.parametrize("text, value", [("-7", Fraction(-7)), ("3/4", Fraction(3, 4)),
                                         ("1.5", Fraction(3, 2)), ("-0.25", Fraction(-1, 4))])
def test_as_fraction_reads_integer_fraction_and_decimal_strings_exactly(text, value):
    assert as_fraction(text) == value


@pytest.mark.parametrize("text", ["1e3", "1E3", "2.5e-1", "1e100000000", "3/4e2"])
def test_as_fraction_refuses_an_exponent(text):
    # Fraction("1e100000000") would build 10**(10**8) in full
    with pytest.raises(ValueError, match="exponent"):
        as_fraction(text)
