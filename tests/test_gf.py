import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppinterp.gf import (
    DEFAULT_PRIME,
    MAX_PRIME,
    ZeroInverseError,
    as_fraction,
    check_modulus,
    int_text,
    inv_mod,
    is_prime,
    scalar_to_json,
)
from ppinterp.interp import NoResidueError, problem_from_json, solve

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


def residue(f, p=P):
    return f.numerator * pow(f.denominator, -1, p) % p


# What the scalar reader accepts, each with the value Fraction gives it; before
# integers and 'num/den' strings were read by int(), every string went through
# Fraction(text) whole, after the exponent check.
READ = [
    (7, 7), (-7, -7), (np.int64(-5), -5), (np.uint8(200), 200), (Fraction(3, 4), Fraction(3, 4)),
    ("-7", -7), ("+3/4", Fraction(3, 4)), (" 3/4 ", Fraction(3, 4)), ("1_0/3", Fraction(10, 3)),
    ("\u0663/\u0664", Fraction(3, 4)), ("\u0661\u0662", 12), ("\t-12\n", -12), ("6/4", Fraction(3, 2)),
    ("-0/5", 0), ("007/0_3", Fraction(7, 3)), ("1.5", Fraction(3, 2)), ("-0.25", Fraction(-1, 4)),
    ("1.", 1), (".5", Fraction(1, 2)), ("7" * 4300, int("7" * 4300)),
]
# What it refuses, each with the exception and message it raised then
REFUSED = [
    (True, TypeError, "booleans are not scalars"),
    (0.5, TypeError, "expected an integer or 'num/den' string, got 0.5"),
    (None, TypeError, "expected an integer or 'num/den' string, got None"),
    ("1e3", ValueError, "exponents are not allowed in scalars, got '1e3'"),
    ("3/4E2", ValueError, "exponents are not allowed in scalars, got '3/4E2'"),
    ("1/0", ZeroDivisionError, "Fraction(1, 0)"),
    ("-0/0", ZeroDivisionError, "Fraction(0, 0)"),
    *((text, ValueError, f"Invalid literal for Fraction: {text!r}")
      for text in ("3/-4", "3/+4", "3 /4", "3/ 4", "abc", "", " ", "/4", "3/", "1/2/3", "_1",
                   "1__0", "1_", "- 3", "1.5/2", "3/4.0", "0x10", "\u00bd")),
    ("1.d", ValueError, "invalid literal for int() with base 10: 'd'"),
    ("9" * 4301, ValueError, "Exceeds the limit (4300 digits) for integer string conversion:"
     " value has 4301 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ("1/" + "9" * 4301, ValueError, "Exceeds the limit (4300 digits) for integer string"
     " conversion: value has 4301 digits; use sys.set_int_max_str_digits() to increase the limit"),
]


@pytest.mark.parametrize("value, want", READ, ids=repr)
def test_scalar_reader_reads_what_fraction_reads(value, want):
    got = as_fraction(value)
    assert got == want and type(got) in (int, Fraction)
    if isinstance(value, int) or isinstance(value, str) and not {"/", "."} & set(value):
        assert type(got) is int  # an integer is not made a Fraction
    # for a solve mod p, a 'num/den' string is read straight to its residue
    assert as_fraction(value, P) in (want, residue(Fraction(want)))
    assert residue(Fraction(as_fraction(value, P))) == residue(Fraction(want))


@pytest.mark.parametrize("value, error, message", REFUSED, ids=repr)
def test_scalar_reader_refuses_with_the_same_error(value, error, message):
    for mod in (None, P):
        with pytest.raises(error) as info:
            as_fraction(value, mod)
        assert type(info.value) is error and str(info.value) == message


@given(st.text(alphabet="0123456789/_+-. \t\u0663", max_size=9))
def test_scalar_reader_agrees_with_fraction_on_strings(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        for mod in (None, P):
            with pytest.raises(type(err)) as info:
                as_fraction(text, mod)
            assert str(info.value) == str(err)
    else:
        assert as_fraction(text) == want
        got = as_fraction(text, P)
        assert got == want or want.denominator % P and got == residue(want)


@pytest.mark.parametrize("text, value", [("1/31991", "1/31991"), ("62/31991", "62/31991"),
                                         ("31991/31991", None), ("31991/63982", None)])
def test_a_scalar_without_a_residue_is_refused_by_the_solve(text, value):
    # read mod p or exactly, a scalar the prime divides the denominator of is
    # refused by the solve, with the same NoResidueError text; one that
    # reduces to lowest terms with a unit denominator has its residue
    doc = {"n": 1, "d": 1, "points": [[0], [1]], "directions": [[], []],
           "values": [[text], [1]]}
    for mod in (None, P):
        prob = problem_from_json(doc, mod)
        if value is None:
            assert solve(prob, P).coefficients[0] == residue(Fraction(text))
        else:
            with pytest.raises(NoResidueError) as info:
                solve(prob, P)
            assert str(info.value) == f"{value} has no residue mod {P}"


def decimal_digits(x: int) -> str:
    # str() of 1000-digit pieces, each below the conversion limit
    pieces = []
    while x >= 10**1000:
        x, low = divmod(x, 10**1000)
        pieces.append(str(low).zfill(1000))
    return str(x) + "".join(reversed(pieces))


def test_answers_print_past_the_digit_limit():
    # str() refuses ints past 4300 digits; an answer's digits print whole
    num, den = 7**6000 + 4, 3**5000  # coprime, and num odd
    assert len(decimal_digits(num)) == 5071
    assert scalar_to_json(Fraction(num, den)) == f"{decimal_digits(num)}/{decimal_digits(den)}"
    assert scalar_to_json(Fraction(-num, 2)) == f"-{decimal_digits(num)}/2"
    assert int_text(-(10**5000)) == "-1" + "0" * 5000
    assert int_text(-12) == "-12"
