"""Dense exact linear algebra: rank, nullspace dimension, solving.

Matrices are plain sequences of rows (or numpy int arrays).  Pass
``prime=p`` for GF(p) arithmetic on integer entries; leave it out for exact
rational arithmetic on int/Fraction entries.

One forward elimination, :func:`_echelon`, serves both fields on Python-int
rows.  It pivots on the first nonzero entry in column order, so results are
deterministic.  Over Q it is fraction-free (Bareiss 1968): each row is first
scaled by the lcm of its denominators, and every update divides exactly by
the previous pivot.  Over GF(p) the same update is reduced mod p.  The
elimination makes no ``Fraction`` and no modular inverse; only the solvers'
back-substitution does.

:func:`rank` picks its own path: over Q, and over GF(p) for matrices whose
work m*n*min(m, n) is at most ``_ROWS_WORK``, it runs :func:`_echelon`;
larger GF(p) matrices (the condition matrices of the verification sweeps)
go to the compiled kernel when the extension is built and the numpy
fallback otherwise (``KERNEL`` says which one is active).  The kernels'
int64 arithmetic needs ``prime < MAX_PRIME``, which ``rank`` checks first.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index

import numpy as np

from .gf import MAX_PRIME

try:
    from ._gfcore import rank_mod as _rank_mod

    KERNEL = "cython"
except ImportError:  # extension not built
    from ._gfcore_py import rank_mod as _rank_mod

    KERNEL = "python"

# Largest work m*n*min(m, n) that rank() eliminates on Python rows rather than
# in the kernel.  The numpy kernel pays a fixed cost per call and per column,
# and Python rows beat it up to about 10x10; the compiled kernel beats them at
# every order (benchmarks/bench_rank.py times all three).
_ROWS_WORK = 0 if KERNEL == "cython" else 1000


class SingularSystemError(ValueError):
    """Square system with rank < order: an exceptional or degenerate configuration."""


class InconsistentSystemError(ValueError):
    """Overdetermined/rank-deficient system whose right-hand side is unreachable."""


def _shape(matrix):
    rows = [list(r) for r in (matrix.tolist() if isinstance(matrix, np.ndarray) else matrix)]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows, len(rows), len(rows[0]) if rows else 0


def _int_rows(rows, prime):
    """Residues mod ``prime``, or over Q each row times the lcm of its denominators."""
    if prime is not None:
        # index() refuses a Fraction or a float instead of truncating it
        return [[index(a) % prime for a in row] for row in rows]
    out = []
    for row in rows:
        row = [Fraction(a) for a in row]
        scale = lcm(*(a.denominator for a in row))
        out.append([a.numerator * (scale // a.denominator) for a in row])
    return out


def _echelon(rows, ncols, prime):
    """Forward elimination of Python-int rows in place; returns the pivot columns.

    Columns past ``ncols`` (a right-hand side) are carried along.  A row below
    the pivot row ``top`` becomes ``lead*row - x*top``, divided exactly by the
    previous pivot over Q and reduced mod ``prime`` over GF(p).
    """
    m = len(rows)
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r][c:]
        lead = top[0]
        for row in rows[r + 1:]:
            x = row[c]
            if prime is None:
                row[c:] = [(lead * a - x * b) // prev for a, b in zip(row[c:], top)]
            elif x:
                row[c:] = [(lead * a - x * b) % prime for a, b in zip(row[c:], top)]
        prev = lead
        pivots.append(c)
    return pivots


def rank(matrix, prime: int | None = None) -> int:
    """Row rank by exact elimination, on Python rows or in the GF(p) kernel."""
    if prime is not None and prime >= MAX_PRIME:
        raise ValueError(f"prime {prime} must be below 2**26 for the int64 rank kernel")
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if prime is None or m * n * min(m, n) <= _ROWS_WORK:
        return rank_rows(matrix, prime)
    return _rank_mod(np.asarray(matrix, dtype=np.int64), prime)


def rank_rows(matrix, prime: int | None = None) -> int:
    """Row rank by :func:`_echelon` on Python rows; exact for a prime of any size."""
    rows, _, n = _shape(matrix)
    return len(_echelon(_int_rows(rows, prime), n, prime))


def nullspace_dim(matrix, prime: int | None = None) -> int:
    """Columns minus rank."""
    n = len(matrix[0]) if len(matrix) else 0
    return n - rank(matrix, prime)


def _reduce(matrix, rhs, prime):
    """Echelon form of the augmented system; returns (rows, pivots, columns)."""
    rows, m, n = _shape(matrix)
    if len(rhs) != m:
        raise ValueError("right-hand side length mismatch")
    rows = _int_rows([row + [b] for row, b in zip(rows, rhs)], prime)
    return rows, _echelon(rows, n, prime), n


def _back_substitute(rows, pivots, n, prime):
    """The solution with free variables 0 of consistent echelon rows.

    Over Q it solves for y = D*x in integers, where D is the last pivot (the
    determinant of the pivot rows and columns), so each division is exact
    and only the result is made a ``Fraction``.
    """
    scale = rows[len(pivots) - 1][pivots[-1]] if pivots and prime is None else 1
    x = [0] * n
    for k in reversed(range(len(pivots))):
        row, c = rows[k], pivots[k]
        s = scale * row[n] - sum(row[j] * x[j] for j in pivots[k + 1:])
        x[c] = s // row[c] if prime is None else s * pow(row[c], -1, prime) % prime
    return x if prime is not None else [Fraction(v, scale) for v in x]


def solve_square(matrix, rhs, prime: int | None = None) -> list:
    """Unique solution of a nonsingular square system; SingularSystemError otherwise."""
    if len(matrix) and len(matrix) != len(matrix[0]):
        raise ValueError(f"square system expected, got {len(matrix)}x{len(matrix[0])}")
    rows, pivots, n = _reduce(matrix, rhs, prime)
    if len(pivots) < n:
        raise SingularSystemError(f"rank {len(pivots)} < order {n}")
    return _back_substitute(rows, pivots, n, prime)


def solve_any(matrix, rhs, prime: int | None = None) -> list:
    """Some exact solution of a consistent system, free variables set to 0.

    Raises InconsistentSystemError when no solution exists.
    """
    rows, pivots, n = _reduce(matrix, rhs, prime)
    if any(row[n] for row in rows[len(pivots):]):
        raise InconsistentSystemError("no polynomial satisfies the assigned data")
    return _back_substitute(rows, pivots, n, prime)
