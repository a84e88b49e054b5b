"""Monomial bases of polynomial spaces and their evaluation/derivative rows.

Two modes are supported and kept deliberately distinct:

* ``affine``       -- all monomials of degree <= d in n variables (the space
                      where interpolation problems live);
* ``homogeneous``  -- all monomials of degree exactly d in n+1 variables
                      (degree-d forms on projective n-space).

Both spaces have dimension C(n+d, d).  The ordering is graded
lexicographic (degree blocks ascending, lexicographically descending
exponents inside a block) and is fixed globally so that every matrix built
from a basis is reproducible.

Derivatives are computed symbolically on exponent vectors; nothing here is
numeric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

AFFINE = "affine"
HOMOGENEOUS = "homogeneous"


@dataclass(frozen=True)
class CoordinateSubspace:
    """A coordinate linear subspace: the vanishing locus of the given coordinates."""

    zeroed: frozenset

    def __init__(self, zeroed):
        object.__setattr__(self, "zeroed", frozenset(zeroed))

    @property
    def codim(self) -> int:
        return len(self.zeroed)


@dataclass(frozen=True)
class MonomialBasis:
    mode: str
    n: int
    d: int
    exponents: tuple

    def __post_init__(self):
        # a basis keys caches and groupings of every draw: hash its exponent
        # tuple once (ints only, so the value is the same in every process)
        object.__setattr__(self, "_exponents_hash", hash(self.exponents))

    def __hash__(self):
        return hash((self.mode, self.n, self.d, self._exponents_hash))

    @property
    def nvars(self) -> int:
        return self.n if self.mode == AFFINE else self.n + 1

    def __len__(self) -> int:
        return len(self.exponents)


def _compositions(total, parts):
    # lexicographically descending exponent vectors of a fixed degree
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=64)
def build_basis(mode: str, n: int, d: int) -> MonomialBasis:
    """All exponent vectors of the requested mode, in graded-lex order.

    Cached: a sweep's cases share one (immutable) basis object.
    """
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    if mode == AFFINE:
        exps = tuple(e for deg in range(d + 1) for e in _compositions(deg, n))
    elif mode == HOMOGENEOUS:
        exps = tuple(_compositions(d, n + 1))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    assert len(exps) == comb(n + d, d)
    return MonomialBasis(mode, n, d, exps)


def _check_point(basis, point):
    if len(point) != basis.nvars:
        raise ValueError(
            f"point has {len(point)} coordinates, basis needs {basis.nvars}"
        )


def eval_row(basis: MonomialBasis, point, prime: int | None = None) -> list:
    """Row vector (monomial_j evaluated at point), exact or mod prime."""
    _check_point(basis, point)
    row = []
    for e in basis.exponents:
        v = 1
        for x, k in zip(point, e):
            if k:
                v *= x**k
        row.append(v % prime if prime is not None else v)
    return row


def derivative_row(basis: MonomialBasis, point, direction, prime: int | None = None) -> list:
    """Row of directional derivatives sum_k direction_k * d(monomial_j)/dx_k at point.

    Linear in ``direction``; the zero direction is rejected.
    """
    _check_point(basis, point)
    if len(direction) != basis.nvars:
        raise ValueError("direction/basis dimension mismatch")
    if not any(direction):
        raise ValueError("zero direction")
    row = []
    for e in basis.exponents:
        v = 0
        for k, (dk, ek) in enumerate(zip(direction, e)):
            if not dk or not ek:
                continue
            t = dk * ek
            for j, xj in enumerate(point):
                kj = e[j] - (1 if j == k else 0)
                if kj:
                    t *= xj**kj
            v += t
        row.append(v % prime if prime is not None else v)
    return row


def jacobian_block(basis: MonomialBasis, point, prime: int | None = None) -> list:
    """Matrix whose k-th row differentiates the basis along the k-th coordinate."""
    _check_point(basis, point)
    rows = []
    for k in range(basis.nvars):
        row = []
        for e in basis.exponents:
            ek = e[k]
            if ek == 0:
                row.append(0)
                continue
            t = ek
            for j, xj in enumerate(point):
                kj = e[j] - (1 if j == k else 0)
                if kj:
                    t *= xj**kj
            row.append(t % prime if prime is not None else t)
        rows.append(row)
    return rows


def _check_zeroed(n: int, sub: CoordinateSubspace) -> None:
    """Refuse a subspace whose zeroed set is empty or holds a coordinate outside 0..n."""
    if not sub.zeroed or any(i < 0 or i > n for i in sub.zeroed):
        raise ValueError(f"zeroed coordinates out of range for P^{n}: {sorted(sub.zeroed)}")


def vanishing_basis(n: int, d: int, subspaces) -> MonomialBasis:
    """Basis of degree-d forms on P^n vanishing on the given coordinate subspaces.

    A monomial vanishes on a coordinate subspace iff it involves at least one
    of its zeroed coordinates, so the basis is the full homogeneous basis
    filtered by that condition for every subspace.  Its size obeys inclusion-
    exclusion over subsets of the (pairwise disjoint) zeroed sets.
    """
    subspaces = tuple(subspaces)
    seen = set()
    for s in subspaces:
        _check_zeroed(n, s)
        if seen & s.zeroed:
            raise ValueError("zeroed coordinate sets must be pairwise disjoint")
        seen |= s.zeroed
    full = build_basis(HOMOGENEOUS, n, d)
    keep = tuple(
        e
        for e in full.exponents
        if all(any(e[i] for i in s.zeroed) for s in subspaces)
    )
    return MonomialBasis(HOMOGENEOUS, n, d, keep)
