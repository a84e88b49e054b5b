"""Dense exact linear algebra: rank, nullspace dimension, square solving.

Matrices are plain sequences of rows (or numpy int arrays).  Pass
``prime=p`` for GF(p) arithmetic; leave it out for exact rational
arithmetic on int/Fraction entries.  Elimination always pivots on the
first nonzero entry in column order, so results are deterministic.

The GF(p) rank of the verification sweeps dispatches to the compiled
kernel when the extension is built and the numpy fallback otherwise
(``KERNEL`` says which one is active).  It is one of three layers of a sweep,
beside drawing the instances and building their condition matrices; which
one dominates depends on the suite and the kernel.  Its int64 arithmetic
needs ``prime < MAX_PRIME``.
"""

from __future__ import annotations

import os
from fractions import Fraction

import numpy as np

from .gf import MAX_PRIME

if os.environ.get("PPINTERP_PURE"):
    from ._gfcore_py import rank_mod as _rank_mod

    KERNEL = "python"
else:
    try:
        from ._gfcore import rank_mod as _rank_mod

        KERNEL = "cython"
    except ImportError:  # extension not built
        from ._gfcore_py import rank_mod as _rank_mod

        KERNEL = "python"


class SingularSystemError(ValueError):
    """Square system with rank < order: an exceptional or degenerate configuration."""


class InconsistentSystemError(ValueError):
    """Overdetermined/rank-deficient system whose right-hand side is unreachable."""


def _shape(rows):
    rows = [list(r) for r in rows]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows, len(rows), len(rows[0]) if rows else 0


def rank(matrix, prime: int | None = None) -> int:
    """Row rank by exact Gaussian elimination."""
    if prime is None:
        return rank_rows(matrix)
    if prime >= MAX_PRIME:
        raise ValueError(f"prime {prime} must be below 2**26 for the int64 rank kernel")
    arr = np.asarray(matrix, dtype=np.int64)
    if arr.ndim != 2 or arr.size == 0:
        return 0
    return _rank_mod(arr, prime)


def rank_rows(matrix, prime: int | None = None) -> int:
    """Row rank by elimination on Python rows: Fractions over Q, ints mod ``prime``.

    Exact for a prime of any size.  On the few-row matrices of the draws'
    direction checks it is also cheaper than :func:`rank`, whose kernel pays
    a fixed numpy cost per call.
    """
    rows, m, n = _shape(matrix)
    if prime is not None:
        rows = [[int(a) % prime for a in row] for row in rows]
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        if prime is None:
            lead = Fraction(top[c])
        else:
            inv = pow(top[c], -1, prime)
        for i in range(r + 1, m):
            x = rows[i][c]
            if x == 0:
                continue
            if prime is None:
                f = Fraction(x) / lead
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
            else:
                f = x * inv % prime
                rows[i] = [(a - f * b) % prime for a, b in zip(rows[i], top)]
        r += 1
    return r


def nullspace_dim(matrix, prime: int | None = None) -> int:
    """Columns minus rank."""
    if prime is not None:
        arr = np.asarray(matrix, dtype=np.int64)
        cols = arr.shape[1] if arr.ndim == 2 else 0
        return cols - rank(arr, prime)
    rows, _, n = _shape(matrix)
    return n - rank(rows)


def _rref(rows, m, n, prime):
    """Reduced row echelon form in place; returns the pivot column list.

    Rows carry an appended right-hand side when solving, so callers pass
    n = number of coefficient columns and the reduction runs on all columns
    present in the rows.
    """
    width = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if prime is not None:
            inv = pow(rows[r][c], -1, prime)
            rows[r] = [a * inv % prime for a in rows[r]]
        else:
            lead = Fraction(rows[r][c])
            rows[r] = [Fraction(a) / lead for a in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                if prime is not None:
                    rows[i] = [(a - f * b) % prime for a, b in zip(rows[i], rows[r])]
                else:
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def solve_square(matrix, rhs, prime: int | None = None) -> list:
    """Unique solution of a nonsingular square system; SingularSystemError otherwise."""
    rows, m, n = _shape(matrix)
    if m != n:
        raise ValueError(f"square system expected, got {m}x{n}")
    if len(rhs) != m:
        raise ValueError("right-hand side length mismatch")
    aug = [row + [b] for row, b in zip(rows, rhs)]
    if prime is not None:
        aug = [[int(a) % prime for a in row] for row in aug]
    pivots = _rref(aug, m, n, prime)
    if len(pivots) < n:
        raise SingularSystemError(f"rank {len(pivots)} < order {n}")
    return [row[n] for row in aug]


def solve_any(matrix, rhs, prime: int | None = None) -> list:
    """Some exact solution of a consistent system, free variables set to 0.

    Raises InconsistentSystemError when no solution exists.
    """
    rows, m, n = _shape(matrix)
    if len(rhs) != m:
        raise ValueError("right-hand side length mismatch")
    aug = [row + [b] for row, b in zip(rows, rhs)]
    if prime is not None:
        aug = [[int(a) % prime for a in row] for row in aug]
    pivots = _rref(aug, m, n, prime)
    for i in range(len(pivots), m):
        if aug[i][n] != 0:
            raise InconsistentSystemError("no polynomial satisfies the assigned data")
    zero = 0 if prime is not None else Fraction(0)
    sol = [zero] * n
    for r, c in enumerate(pivots):
        sol[c] = aug[r][n]
    return sol
