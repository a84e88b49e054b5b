"""Exact scalar arithmetic: residues mod an odd prime, plus rational helpers.

All linear algebra in this package is exact.  Finite-field work uses
canonical residues in ``[0, p)`` with ``p`` an odd prime (default 31991);
the rational path uses :class:`fractions.Fraction`, which keeps values in
lowest terms by construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from numbers import Integral
from operator import index

DEFAULT_PRIME = 31991

# Exclusive upper bound on every working prime.  The int64 paths (the build
# and both rank kernels) hold canonical residues in [0, p).  The build
# (``_projective_rows``, which builds the affine problems too, on n+1
# homogeneous variables) reduces its products mod p only as it writes the
# rows while d*(p-1)**d < 2**63, and at every product otherwise; its widest
# expression is then a combination row, a sum of at most nv products of two
# residues, at most nv*(p-1)**2.  That must stay below 2**63: p < 2**26 gives
# nv*(p-1)**2 < nv*2**52, which holds for up to nv = 2048 variables (the
# word-size reasoning of FFLAS-FFPACK).
MAX_PRIME = 2**26


class ZeroInverseError(ZeroDivisionError):
    """Raised when the inverse of 0 mod p is requested."""


@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24).

    Cached, as ``rank_rows`` tests its prime on every call.
    """
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def check_modulus(p: int, max_degree: int | None = None) -> int:
    """Validate a working prime: odd, prime, below MAX_PRIME, above any degree in use.

    The degree bound keeps every exponent 1..d a unit mod p, so a
    derivative row keeps each of its entries ``e * x**(e - 1)``: at p <= d
    a derivative of x**p would vanish mod p.
    """
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    if p >= MAX_PRIME:
        raise ValueError(f"prime {p} must be below 2**26 for exact int64 arithmetic")
    if max_degree is not None and p <= max_degree:
        raise ValueError(f"prime {p} must exceed the working degree {max_degree}")
    return p


@lru_cache(maxsize=256, typed=True)
def _check_prime(prime):
    """The modulus as a Python int (``None``, for Q, passes); ValueError unless a prime below 2**26.

    The one gate of every GF(p) kernel, builder and draw, checked before any
    work.  A composite modulus has no field to eliminate in: a non-unit pivot
    would make the rank silently wrong, and so would a prime whose products
    pass the int64 or float64 range of the kernels.  A numpy integer is read
    exactly by ``operator.index``; anything else that is not an integer
    raises TypeError.  Cached, as the sweeps rank thousands of small
    matrices mod one prime; ``typed``, so ``3.0`` is not served the entry of 3.
    """
    if prime is None:
        return None
    p = index(prime)
    if not (p < MAX_PRIME and is_prime(p)):
        raise ValueError(f"modulus {prime} is not a prime below 2**26, as the int64 kernels need")
    return p


def inv_mod(x: int, p: int) -> int:
    """Multiplicative inverse of x mod p; raises ZeroInverseError on x = 0."""
    x %= p
    if x == 0:
        raise ZeroInverseError(f"0 has no inverse mod {p}")
    return pow(x, -1, p)


def as_fraction(value) -> Fraction:
    """Parse an exact scalar from JSON-ish input: integer (numpy's too) or string.

    A string is an integer, 'num/den' or a plain decimal such as '1.5'.
    Floats are rejected; this package never rounds.  So is an exponent
    ('1e3'): ``Fraction`` would build 10**e in full, and the time that
    takes grows without bound with e.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponents are not allowed in scalars, got {value!r}")
        return Fraction(value)
    if isinstance(value, Integral):  # numpy integers; last, as an ABC check is slow
        return Fraction(int(value))
    raise TypeError(f"expected an integer or 'num/den' string, got {value!r}")


def scalar_to_json(value):
    """Inverse of as_fraction: ints stay ints, proper fractions become strings."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return int(value)
