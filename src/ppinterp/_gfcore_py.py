"""Row reduction over GF(p): the shared ``echelon_mod`` and the batched ``rank_mod``.

``echelon_mod`` serves every GF(p) elimination of the package: the rank of
a larger matrix (``linalg.rank``), the GF(p) solvers and Dixon's inverse.
Its inner loop is ``echelon_inplace``: the compiled one of the optional
``ppinterp._gfcore`` extension (built from the hand-written ``_gfcore.c``)
when it is built, the numpy loop :func:`_echelon_numpy` otherwise; ``KERNEL``
says which one.  Both take the same arguments, pivot by the same rule and
give the same bytes.  ``rank_mod`` ranks a stack of same-shape matrices at
once, in one float64 elimination.  Entries stay below p < MAX_PRIME = 2**26,
so products fit comfortably in int64.
"""

from __future__ import annotations

import numpy as np


def _echelon_numpy(arr, ncols: int, p: int):
    """The numpy loop of :func:`echelon_mod`: eliminates ``arr`` in place, returns the pivots."""
    pivots = []
    m = arr.shape[0]
    r = 0
    for c in range(ncols):
        if r == m:
            break
        nz = np.nonzero(arr[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            arr[[r, piv], c:] = arr[[piv, r], c:]
        inv = pow(int(arr[r, c]), -1, p)
        arr[r, c:] = arr[r, c:] * inv % p
        f = arr[r + 1 :, c]
        if f.any():
            arr[r + 1 :, c:] = (arr[r + 1 :, c:] - f[:, None] * arr[r, c:]) % p
        pivots.append(c)
        r += 1
    return pivots


try:
    from ._gfcore import echelon_inplace

    KERNEL = "c"
except ImportError:  # extension not built, or built from an older source
    echelon_inplace = _echelon_numpy
    KERNEL = "python"


def echelon_mod(a, ncols: int, p: int):
    """Forward elimination mod the prime p of an augmented integer matrix ``[A | B]``.

    ``A`` is the first ``ncols`` columns; ``B`` (any number of columns, maybe
    none) is carried along.  Pivots are the first nonzero entry in column
    order, as in ``linalg._echelon``.  Returns ``(rows, pivots)``: the reduced
    int64 array, whose pivot rows come first and have their pivot scaled to 1,
    and the pivot columns.
    """
    arr = np.array(a, dtype=np.int64, order="C", copy=True)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if arr.size == 0:
        return arr, []
    arr %= p
    return arr, echelon_inplace(arr, ncols, p)


def rank_mod(stack, p: int):
    """The rank mod p of each matrix of a ``(B, m, n)`` integer stack, as an int64 array.

    A wide stack is transposed first, so every matrix has at least as many
    rows as columns.  The stack is worked in ``(m, n, B)`` layout, the batch
    the contiguous inner axis, so each numpy call serves every matrix.  Step
    c pivots each matrix on its first nonzero entry in column c at or below
    row c (``argmax`` and a gathered row swap).  A matrix with none there has
    a column c that depends on the columns before it: its columns from c on
    rotate left, so that column goes last and is never pivoted again, and it
    has one live column fewer.  This repeats until column c of every matrix
    has a pivot or lies past its live columns; the rank is the number of
    live columns, and what a matrix computes past them is never read.

    The update ``lead*row - f*top`` runs in float64 and is reduced to the
    symmetric residue ``t - p*rint(t/p)``.  Entries start in [0, p) and stay
    below p in absolute value, with p < 2**26, so |t| < 2 p**2 < 2**53 and
    every product and difference is exact.  The rounded quotient ``t*(1/p)``
    is within 2**-25 of t/p, so a multiple of p is always reduced to exactly
    0; any other t lands within p/2 + 2 of 0.  A reduction by ``floor``
    instead would read some multiples of p as p, a nonzero pivot, and
    over-report the rank.
    """
    a = np.asarray(stack)
    if a.ndim != 3:
        raise ValueError("expected a (B, m, n) stack")
    if a.shape[1] < a.shape[2]:
        a = a.transpose(0, 2, 1)
    batch, m, n = a.shape
    live = np.full(batch, n, dtype=np.int64)
    if a.size == 0:
        return live
    a = np.ascontiguousarray((a % p).transpose(1, 2, 0), dtype=np.float64)
    inv = 1.0 / p
    lanes = np.arange(batch)
    scratch = np.empty((m - 1, n - 1, batch))
    for c in range(n):
        col = a[c:, c] != 0
        while not (has := col.any(axis=0)).all():
            dependent = np.flatnonzero(~has & (live > c))
            if not dependent.size:
                break
            a[c:, c:, dependent] = np.roll(a[c:, c:, dependent], -1, axis=1)
            live[dependent] -= 1
            col = a[c:, c] != 0
        piv = c + col.argmax(axis=0)
        if (piv != c).any():
            top = a[piv, c:, lanes]  # (B, n - c): each matrix's pivot row
            a[piv, c:, lanes] = a[c, c:].T
            a[c, c:] = top.T
        t, q = a[c + 1:, c + 1:], scratch[c:, c:]
        t *= a[c, c]
        np.multiply(a[c + 1:, c, None], a[c, c + 1:], out=q)
        t -= q
        np.multiply(t, inv, out=q)
        np.rint(q, out=q)
        q *= p
        t -= q
    return live
