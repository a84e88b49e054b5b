"""Row reduction over GF(p): the shared ``echelon_mod`` and the batched ``rank_mod``.

``echelon_mod`` serves every GF(p) elimination of the package: the rank of
a larger matrix (``linalg.rank``), the GF(p) solvers and Dixon's inverse.
Its inner loop is ``echelon_inplace``: the compiled one of the optional
``ppinterp._gfcore`` extension (built from the hand-written ``_gfcore.c``)
when it is built, the numpy loop :func:`_echelon_numpy` otherwise; ``KERNEL``
says which one.  Both take the same arguments, pivot by the same rule and
give the same bytes.  Entries stay below p < MAX_PRIME = 2**26, so products
fit comfortably in int64.  ``rank_mod`` ranks a stack of same-shape matrices
at once, in one float64 elimination whose reductions mod p are delayed
until its integers could pass 2**53.
"""

from __future__ import annotations

from functools import lru_cache

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


def _integer_array(a):
    """``a`` as a numpy array, refused with TypeError unless its dtype is an integer dtype.

    A float, bool, complex or object entry (a Python int beyond int64
    included) could be truncated or rounded on the way into the kernels.
    An empty array passes whatever its dtype: it has no entry to round.
    """
    arr = np.asarray(a)
    if arr.dtype.kind not in "iu" and arr.size:
        raise TypeError(f"GF(p) needs integer entries, not {arr.dtype}")
    return arr


def echelon_mod(a, ncols: int, p: int):
    """Forward elimination mod the prime p of an augmented integer matrix ``[A | B]``.

    ``A`` is the first ``ncols`` columns; ``B`` (any number of columns, maybe
    none) is carried along.  Pivots are the first nonzero entry in column
    order, as in ``linalg._echelon``.  Returns ``(rows, pivots)``: the reduced
    int64 array, whose pivot rows come first and have their pivot scaled to 1,
    and the pivot columns.
    """
    a = _integer_array(a)
    if a.dtype == np.uint64:  # reduced first, so an entry above 2**63 is not wrapped
        a = a % p
    arr = np.array(a, dtype=np.int64, order="C", copy=True)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if arr.size == 0:
        return arr, []
    arr %= p
    return arr, echelon_inplace(arr, ncols, p)


# Primes below this get a table of every inverse mod p, built on the first
# rank_mod call at that prime (8 bytes a residue: 256 KB at 31991); above it,
# rank_mod inverts each pivot with pow().
_TABLE_PRIMES = 1 << 16


@lru_cache(maxsize=4)
def _inverse_table(p: int):
    """x**-1 mod p for every residue x (0 for x = 0), as float64, by Fermat over all x at once."""
    x = np.arange(p, dtype=np.int64)
    out = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    out[0] = 0
    table = out.astype(np.float64)
    table.flags.writeable = False  # one cached array serves every call
    return table


def _inverses(x, p: int):
    """x**-1 mod p of each entry of the int array ``x`` (|x| < p), 0 for 0, as float64."""
    if p < _TABLE_PRIMES:
        return _inverse_table(p)[x]  # a negative x reads from the end: x + p
    return np.array([pow(v, -1, p) if v else 0 for v in x.tolist()], dtype=np.float64)


def rank_mod(stack, p: int):
    """The rank mod p of each matrix of a ``(B, m, n)`` integer stack, as an int64 array.

    A wide stack is transposed first, so every matrix has at least as many
    rows as columns.  The stack is worked in ``(m, n, B)`` layout, the batch
    the contiguous inner axis, so each numpy call serves every matrix.  Step
    c pivots each matrix on its first nonzero entry in column c at or below
    row c (``argmax`` and a gathered row swap).  A matrix with none there has
    a column c that depends on the columns before it, and is zero from row
    c down: the matrix drops it, as its last live column is copied over it
    from row c down (rows above c are never read again) and it has one
    live column fewer.  Neither dropping a zero column of the trailing
    block nor reordering its columns changes the rank.  This repeats until
    column c of every matrix has a pivot or lies past its live columns; the
    rank is the number of live columns, and what a matrix computes past
    them is never read.

    Arithmetic is float64 on integers with delayed reduction (the
    FFLAS-FFPACK scheme of Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).
    To reduce t is to replace it by ``t - p*rint(t/p)``, the quotient taken
    as ``t*(1/p)``.  While |t| <= 2**53 - p, that quotient is within 2/p of
    t/p (exact at p = 2; within 1/2 at p = 3, where 1/p rounds by only
    2**-54 of itself), so a multiple of p becomes exactly 0, any other t a
    nonzero residue of size at most h = p//2 + 2, and every product and
    difference on the way is exact.  A reduction by ``floor`` instead would
    read some multiples of p as p, a nonzero pivot, and over-report the
    rank.

    The entry is one cast and one reduction: the stack is cast into the
    float64 ``(m, n, B)`` buffer and reduced there, so every entry starts at
    most h.  Only a stack with an entry beyond +-(2**53 - p), which the cast
    could round, is first reduced in its integer dtype.  A dtype that is not
    an integer dtype raises TypeError: its entries could be truncated or
    rounded.

    Step c reduces only column c from row c down, before its pivot search,
    and the pivot row, which it scales by the inverse of its lead and
    reduces again.  The update ``t -= f*row`` of the trailing block is then
    two passes, an outer product and a subtraction, and adds at most h**2 to
    any entry.  The whole trailing block is reduced only when ``room``
    updates are pending, so |t| <= h + room*h**2 <= 2**53 - p throughout:
    never at p = 31991 below millions of columns, every 8 columns near
    p = 2**26.  The pivot row is reduced before it is scaled only when its
    entries could make the product with an inverse (below p) too large.
    """
    a = _integer_array(stack)
    if a.ndim != 3:
        raise ValueError("expected a (B, m, n) stack")
    if a.shape[1] < a.shape[2]:
        a = a.transpose(0, 2, 1)
    batch, m, n = a.shape
    live = np.full(batch, n, dtype=np.int64)
    if a.size == 0:
        return live
    h = p // 2 + 2
    limit = 2**53 - p
    room = (limit - h) // (h * h)
    inv = 1.0 / p
    lanes = np.arange(batch)
    scratch = np.empty((m, n, batch))

    def reduce(t, q):
        np.multiply(t, inv, out=q)
        np.rint(q, out=q)
        q *= p
        t -= q

    if int(a.min()) < -limit or int(a.max()) > limit:
        a = np.remainder(a, p)
    t, a = a.transpose(1, 2, 0), np.empty((m, n, batch))
    np.copyto(a, t)
    reduce(a, scratch)
    pending = 0  # trailing-block updates since its entries were last at most h
    for c in range(n):
        if pending:
            reduce(a[c:, c], scratch[c:, c])
        if not a[c, c].all():
            col = a[c:, c] != 0
            while not (has := col.any(axis=0)).all():
                dependent = np.flatnonzero(~has & (live > c))
                if not dependent.size:
                    break
                live[dependent] -= 1
                a[c:, c, dependent] = a[c:, live[dependent], dependent]
                reduce(a[c:, c], scratch[c:, c])
                col = a[c:, c] != 0
            piv = col.argmax(axis=0)
            if piv.any():
                piv += c
                top = a[piv, c:, lanes]  # (B, n - c): each matrix's pivot row
                a[piv, c:, lanes] = a[c, c:].T
                a[c, c:] = top.T
        if c + 1 == n:
            break
        row, q = a[c, c + 1:], scratch[c, c + 1:]
        if (h + pending * h * h) * p > limit:
            reduce(row, q)
        row *= _inverses(a[c, c].astype(np.intp), p)
        reduce(row, q)
        t, q = a[c + 1:, c + 1:], scratch[c + 1:, c + 1:]
        if pending == room:
            reduce(t, q)
            pending = 0
        np.multiply(a[c + 1:, c, None], row, out=q)
        t -= q
        pending += 1
    return live
