"""Dense exact linear algebra: rank, nullspace dimension, solving.

Matrices are plain sequences of rows (or numpy int arrays).  Pass
``prime=p`` for GF(p) arithmetic on integer entries; leave it out for exact
rational arithmetic on int/Fraction entries.  Nothing inexact is read in
either field: a bool, float or complex entry, or an array of such a dtype,
raises TypeError, and so does a Fraction entry over GF(p).  ``rank_rows``,
``rank``, ``ranks``, ``echelon_mod`` and the solvers read a matrix through
two functions: :func:`_rows`, the one gate for a matrix read as Python rows,
and :func:`_residue_array`, the one rule that turns a matrix into int64
residues mod p.  So each takes an array of any integer dtype, and a matrix
that is not 2-d raises ValueError.

One forward elimination, :func:`_echelon`, serves both fields on Python-int
rows.  It pivots on the first nonzero entry in column order, so results are
deterministic.  Over Q it is fraction-free (Bareiss 1968): each row is first
scaled by the lcm of its denominators, and every update divides exactly by
the previous pivot.  Over GF(p) the same update is reduced mod p.  The
elimination makes no ``Fraction`` and no modular inverse; only the rational
back-substitution makes a ``Fraction``.

Two int64 kernels serve GF(p).  :func:`echelon_mod` is the forward
elimination mod p of one matrix, with the same pivots as ``_echelon``.  Its
inner loop, :func:`_echelon_numpy`, takes residues in [0, p) and delays its
reductions mod p: it subtracts each pivot's update from the int64 trailing
block unreduced, reduces that block only once (2**63 - 1 - p) // (p - 1)**2 - 1
updates are pending (at least 2047 below 2**26), and reduces the whole
array once at the end.  :func:`rank_mod` ranks a stack of
same-shape matrices at once, in one float64 elimination whose reductions
mod p are delayed until its integers could pass 2**53.  ``KERNEL``, the
kernel name a report records, is always "python" (numpy).  Entries stay
below p < MAX_PRIME = 2**26, so products fit comfortably in int64.  Every GF(p)
entry point, the two kernels included, first reads the modulus through
``gf._check_prime``, which refuses one that is not a prime below that bound
and reads a numpy integer as a Python int, so a composite or too large
modulus is refused rather than given a wrong rank.  ``rank_rows``, the exact
reference, takes a prime of any size.

:func:`rank` picks its own path: over Q, and over GF(p) for matrices whose
work m*n*min(m, n) is at most ``_ROWS_WORK``, it runs :func:`_echelon`;
larger GF(p) matrices (the condition matrices of the verification sweeps)
go to ``echelon_mod``.  :func:`stack_ranks` takes a trial round's matrices
as same-shape stacks: it ranks each GF(p) stack of two or more matrices
together by ``rank_mod``, and sends a stack of one to :func:`rank`.
:func:`ranks` takes a list of matrices, stacks them by shape and hands
them to :func:`stack_ranks`.

The solvers pick theirs by field.  Over GF(p), systems are eliminated by
``echelon_mod`` and solved by one numpy back-substitution, whose reductions
mod p are delayed by the same rule.  Over Q,
nonsingular square systems of order at least ``_DIXON_ORDER`` are solved by
Dixon's p-adic lifting (Numer. Math. 40, 1982): A is inverted once, by
``echelon_mod``, modulo a word-size prime p, each lift solves
A x = r mod p and divides r - A x by p, and rational reconstruction (von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 5) turns the p-adic
approximation into numerators over one common denominator.  A and b are
split into signed base-p digits and r is kept as int64 limbs in base p, so a
lift is a few int64 products and one carry pass and makes no Python integer
(IML keeps its lift in machine words the same way; Chen and Storjohann,
ISSAC 2005).  The lifts' int64 digits join the approximation only when
reconstruction is tried, in one balanced tree of sums.  Each component's
Euclid stops at the numerator bound that the denominator found so far leaves
(Bright and Storjohann, ISSAC 2011, reconstruct a vector the same way), and
long remainders go in Lehmer's batches.  A candidate is returned only once
``A num == den b`` holds in Python integers.  Everything else over Q --
singular systems, ``solve_any``, small orders, orders above 2048 (past the
lift's int64 bound) and the rare system that is singular modulo both
lifting primes -- goes through
:func:`_echelon`, which alone decides singularity and consistency there.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import index, mul

import numpy as np

from .gf import _check_prime, is_prime


# The bound on |entry| of the int64 blocks of _echelon_numpy and
# _back_substitute_mod between two reductions.
_INT64_MAX = 2**63 - 1


def _echelon_numpy(arr, ncols: int, p: int):
    """The numpy loop of :func:`echelon_mod`: eliminates ``arr`` in place, returns the pivots.

    ``arr`` holds residues in [0, p).  Reductions mod p are delayed, as in
    :func:`rank_mod` but in int64: step c reduces column c from the pivot
    row down (only when updates are pending), scales the pivot row and
    reduces it, and subtracts ``f * row`` from the trailing block with no
    ``% p``.  Each update takes at most (p - 1)**2 from an entry, so the
    whole trailing block is reduced only once ``room`` updates are pending,
    and |entry| < 2**63 throughout (room >= 2047 for every p < 2**26).  The
    pivot row is reduced before it is scaled only when its product with an
    inverse could pass that bound.  One ``% p`` of the whole array ends the
    loop, which leaves the bytes of a loop that reduces every update.
    """
    square = (p - 1) ** 2
    room = (_INT64_MAX - p) // square - 1
    pending = 0  # trailing-block updates since its entries were last residues
    pivots = []
    m = arr.shape[0]
    r = 0
    for c in range(ncols):
        if r == m:
            break
        col = arr[r:, c]
        if pending:
            np.remainder(col, p, out=col)
        row = arr[r, c:]
        if not col[0]:
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue
            top = arr[r + int(nz[0]), c:]
            swap = top.copy()
            top[:] = row
            row[:] = swap
        if (p + pending * square) * p > _INT64_MAX:
            np.remainder(row, p, out=row)
        row *= pow(int(row[0]), -1, p)
        np.remainder(row, p, out=row)
        f = arr[r + 1:, c]
        if f.any():
            block = arr[r + 1:, c:]
            if pending == room:
                np.remainder(block, p, out=block)
                pending = 0
            block -= np.multiply.outer(f, row)
            pending += 1
        pivots.append(c)
        r += 1
    if pending:
        np.remainder(arr, p, out=arr)
    return pivots


# The kernel named in every report's config.
KERNEL = "python"


# Largest work m*n*min(m, n) that rank() eliminates on Python rows rather than
# by echelon_mod.  Its numpy loop pays a fixed cost per call and per column,
# and Python rows beat it up to 8x9 (work 576: 55-58 against 59-61 us), not at
# 9x10 (810: 71-74 against 67-69 us).  benchmarks/bench_rank.py times both;
# runs recorded in BENCH_9.json and BENCH_26.json.
_ROWS_WORK = 700

# Cells m*n*B of one rank_mod call in stack_ranks(): a stack is ranked in
# even parts of at most this many cells, so the float64 copy and its scratch
# stay about 2 MB each whatever the stack size.
# benchmarks/bench_rank.py (runs recorded in BENCH_12.json, 2-vCPU Xeon, numpy
# 2.4), stacks of 64 seeded residue matrices of orders 27, 36, 46 and 63: the
# batched elimination takes 40-48, 70-83, 139-142 and 303-386 us per matrix,
# echelon_mod's numpy loop alone 322-361, 458-630, 745-802 and 1333-1696.
# With its reductions delayed (BENCH_26.json, one run) that loop takes 230,
# 326, 457 and 710 us against rank_mod's 29, 47, 95 and 237, so stacks of
# two or more are still batched.
_SCREEN_CELLS = 1 << 18

# Smallest order that solve_square over Q lifts p-adically rather than
# eliminating by Bareiss.  benchmarks/bench_rank.py (run recorded in
# BENCH_6.json, 2-vCPU Xeon, numpy 2.4), integer rows of seeded square
# interpolation problems (entries in [-9, 9] or two-digit fractions): Bareiss
# wins at order 21 (1.1 vs 1.4 ms and 4.4 vs 5.7 ms), Dixon at order 28 (2.9 vs
# 2.1 ms and 13.4 vs 12.4 ms), and Dixon is 9-19x faster at order 66.
_DIXON_ORDER = 25

# The lifting primes: the two largest primes below 2**26.  A lift keeps its
# residual as int64 limbs in base p and multiplies in int64 only: the inverse
# mod p and the digits of A (each of absolute value at most p - 1) times a digit
# vector in [0, p), n products of at most (p - 1)**2 per entry.  After each
# carry pass a limb is its residue in [0, p) plus a carry c; if every limb had
# absolute value at most B = (n + 2) * p before the lift, it had at most
# B + n * (p - 1)**2 after the subtraction, so |c| <= n + 3 + n * (p - 2) and
# the limb's stays at most (n + 1) * p + 2 <= B.  So every int64 sum stays
# exact while n * (p - 1)**2 + (n + 2) * p < 2**63, which at p = 67108859
# holds up to n = 2048.
_DIXON_PRIMES = (67108859, 67108837)

# Rational reconstruction takes Lehmer's steps on the leading _LEHMER_LEAD
# bits (Python ints of at most three 30-bit digits) while the remainder is
# longer than _LEHMER_BITS bits, and plain Euclidean steps below that.  Euclid
# from random u mod m = p**k (p the first lifting prime) down to sqrt(m/2),
# best of 25 over five u (2-vCPU Xeon, Python 3.11): at a 988-bit m plain
# steps take 0.100 ms, and Lehmer's from 800 bits down 0.106-0.110 ms; at
# 1976 bits plain steps take 0.29-0.31 ms and Lehmer's from 1000 bits
# 0.25-0.26; at 5980 bits 2.03 against 0.86 ms, at 22,984 bits 27.4 against 4.7.
_LEHMER_LEAD = 62
_LEHMER_BITS = 1000


class SingularSystemError(ValueError):
    """Square system with rank < order: an exceptional or degenerate configuration."""


class InconsistentSystemError(ValueError):
    """Overdetermined/rank-deficient system whose right-hand side is unreachable."""


def _residues(values, prime):
    """Each value mod ``prime``; a bool, Fraction or float raises TypeError.

    ``index()`` refuses a Fraction or a float instead of truncating it, but
    reads a bool as 0 or 1, so bools are refused first, as a bool array is.
    """
    if bool in set(map(type, values)):
        raise TypeError("GF(p) needs integer entries, not bool")
    return [index(a) % prime for a in values]


def _int_rows(rows, prime):
    """Residues mod ``prime``, or over Q each row times the lcm of its denominators."""
    if prime is not None:
        return [_residues(row, prime) for row in rows]
    out = []
    for row in rows:
        if all(type(a) is int for a in row):
            out.append(row)
            continue
        # Fraction() would read a float in binary (0.1 as 3602879701896397/2**55)
        # and a bool as 0 or 1
        for a in row:
            if isinstance(a, (bool, float, complex, np.bool_, np.floating, np.complexfloating)):
                raise TypeError(f"Q needs exact entries, not {type(a).__name__}")
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


def _integer_array(a):
    """``a`` as a numpy array, refused with TypeError unless its dtype is an integer dtype.

    A float, bool, complex or object entry (a Python int beyond int64
    included) could be truncated or rounded on the way into the kernels.
    An empty array passes whatever its dtype, read as int64: it has no
    entry to round.
    """
    arr = np.asarray(a)
    if arr.dtype.kind not in "iu" and arr.size:
        raise TypeError(f"GF(p) needs integer entries, not {arr.dtype}")
    return arr if arr.dtype.kind in "iu" else arr.astype(np.int64)


def _rows(matrix, prime):
    """The rows of ``matrix`` as Python lists, and its shape ``(m, n)``.

    The one gate for a matrix read entry by entry: an array whose dtype
    holds no exact scalars (float, bool, complex, ...) raises TypeError, an
    array that is not 2-d, rows that are not sequences and ragged rows raise
    ValueError.
    """
    if isinstance(matrix, np.ndarray):
        if matrix.dtype.kind not in "iuO":
            field = "Q needs exact" if prime is None else "GF(p) needs integer"
            raise TypeError(f"{field} entries, not {matrix.dtype}")
        if matrix.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        return matrix.tolist(), matrix.shape
    try:
        rows = [list(r) for r in matrix]
    except TypeError:  # a row that is not a sequence: [1, 2, 3] is 1-d
        raise ValueError("expected a 2-d matrix") from None
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows, (len(rows), len(rows[0]) if rows else 0)


def _residue_array(matrix, p):
    """The matrix as a new C-ordered int64 array of its residues in [0, p).

    An integer array is widened to int64 by the one ``% p`` pass (a uint64
    one is reduced first, so an entry above 2**63 is not wrapped); any other
    matrix, Python rows and object arrays included, is read by :func:`_rows`
    and :func:`_int_rows`, which refuse a bool, a float or a Fraction.
    """
    if isinstance(matrix, np.ndarray) and matrix.dtype.kind in "iu" and matrix.ndim == 2:
        if matrix.dtype == np.uint64:
            matrix = matrix % p
        return np.remainder(matrix, p, dtype=np.int64, order="C")
    rows, shape = _rows(matrix, p)
    return np.array(_int_rows(rows, p), dtype=np.int64).reshape(shape)


def echelon_mod(a, ncols: int, p: int):
    """Forward elimination mod the prime p of an augmented integer matrix ``[A | B]``.

    ``A`` is the first ``ncols`` columns; ``B`` (any number of columns, maybe
    none) is carried along.  Pivots are the first nonzero entry in column
    order, as in :func:`_echelon`.  Returns ``(rows, pivots)``: the reduced
    int64 array, whose pivot rows come first and have their pivot scaled to 1,
    and the pivot columns.  A modulus that is not a prime below 2**26, or an
    ``ncols`` outside [0, columns], raises ValueError.
    """
    p = _check_prime(p)
    arr = _residue_array(_integer_array(a), p)
    if not 0 <= ncols <= arr.shape[1]:
        raise ValueError(f"ncols {ncols} is outside [0, {arr.shape[1]}]")
    if arr.size == 0:
        return arr, []
    return arr, _echelon_numpy(arr, ncols, p)


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
    rounded, and a modulus that is not a prime below 2**26 raises
    ValueError: past it the float64 block could pass 2**53 between
    reductions.

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
    p = _check_prime(p)
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


def rank(matrix, prime: int | None = None) -> int:
    """Row rank by exact elimination, on Python rows or in the GF(p) kernel.

    A bool, float or complex array or entry raises TypeError in either
    field, as a Fraction entry does over GF(p), on every path.
    """
    prime = _check_prime(prime)
    n, m = _width(matrix), len(matrix)  # _width refuses rows that are not sequences
    if prime is None or m * n * min(m, n) <= _ROWS_WORK:
        return rank_rows(matrix, prime)
    if not (isinstance(matrix, np.ndarray) and matrix.dtype.kind in "iu"):
        matrix = _residue_array(matrix, prime)  # echelon_mod reads an integer array itself
    return len(echelon_mod(matrix, n, prime)[1])


def ranks(matrices, prime: int | None = None) -> list:
    """The exact rank of each matrix, as :func:`rank` gives it.

    Over GF(p) the matrices are read as int64 residue arrays and stacked by
    shape, and :func:`stack_ranks` ranks the stacks; over Q each goes to
    ``rank``.
    """
    prime = _check_prime(prime)
    if prime is None:
        return [rank(matrix) for matrix in matrices]
    arrays = [_residue_array(matrix, prime) for matrix in matrices]
    groups = defaultdict(list)
    for i, a in enumerate(arrays):
        groups[a.shape].append(i)
    return stack_ranks([(group, np.stack([arrays[i] for i in group]))
                        for group in groups.values()], prime)


def stack_ranks(stacks, prime: int | None = None) -> list:
    """The exact rank of each matrix of ``(index, stack)`` pairs, listed by index.

    Member k of the (B, m, n) ``stack`` is matrix ``index[k]``; the indices
    of all the stacks together are 0, 1, ..., N-1.  An int64 stack of two or
    more matrices is ranked mod p by ``rank_mod``, in even parts of at most
    ``_SCREEN_CELLS`` cells; every other member (over Q, or in a stack of one
    or of another dtype) goes to ``rank``.
    """
    prime = _check_prime(prime)
    out = [None] * sum(len(index) for index, _ in stacks)
    for index, stack in stacks:
        if prime is not None and len(index) > 1 and stack.dtype == np.int64:
            count = max(1, -(-stack.size // _SCREEN_CELLS))
            values = [r for part in np.array_split(stack, count)
                      for r in rank_mod(part, prime).tolist()]
        else:
            values = [rank(matrix, prime) for matrix in stack]
        for i, r in zip(index, values):
            out[i] = r
    return out


def rank_rows(matrix, prime: int | None = None) -> int:
    """Row rank by :func:`_echelon` on Python rows; exact for a prime of any size.

    A modulus that is not a prime raises ValueError; a numpy integer one is
    read by ``operator.index``.
    """
    if prime is not None:
        prime = index(prime)
        if not is_prime(prime):
            raise ValueError(f"modulus {prime} is not a prime")
    rows, (_, n) = _rows(matrix, prime)
    return len(_echelon(_int_rows(rows, prime), n, prime))


def _width(matrix) -> int:
    """The column count of a 2-d array, or of Python rows (0 when there are none).

    An array that is not 2-d and rows that are not sequences raise ValueError.
    """
    if isinstance(matrix, np.ndarray):
        if matrix.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        return matrix.shape[1]
    try:
        return len(matrix[0]) if len(matrix) else 0
    except TypeError:  # matrix[0] is not a sequence
        raise ValueError("expected a 2-d matrix") from None


def nullspace_dim(matrix, prime: int | None = None) -> int:
    """Columns minus rank."""
    r = rank(matrix, prime)  # refuses an array that is not 2-d first
    return _width(matrix) - r


def _back_substitute(rows, pivots, n):
    """The rational solution with free variables 0 of consistent fraction-free echelon rows.

    It solves for y = D*x in integers, where D is the last pivot (the
    determinant of the pivot rows and columns), so each division is exact
    and only the result is made a ``Fraction``.
    """
    scale = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    x = [0] * n
    for k in reversed(range(len(pivots))):
        row, c = rows[k], pivots[k]
        s = scale * row[n] - sum(row[j] * x[j] for j in pivots[k + 1:])
        x[c] = s // row[c]
    return [Fraction(v, scale) for v in x]


def _back_substitute_mod(rows, pivots, n, p):
    """Solutions mod p, free variables 0, of the unit-pivot rows ``[U | B]`` of echelon_mod.

    One solution column per column of B.  Pivot k, last first, is final once
    the pivots after it are eliminated from its row; it is then reduced mod
    p and eliminated from the rows above, one product per entry, with no
    ``% p``.  Reductions are delayed as in :func:`_echelon_numpy`: each
    update takes at most (p - 1)**2 from an entry, so the rows above are
    reduced only once ``room`` updates are pending, and one ``% p`` ends
    the loop.
    """
    square = (p - 1) ** 2
    room = (_INT64_MAX - p) // square - 1
    pending = 0  # updates since the entries of x were last residues
    x = rows[:len(pivots), n:].copy()
    for k in range(len(pivots) - 1, 0, -1):
        xk = x[k]
        if pending:
            xk %= p
        if pending == room:
            x[:k] %= p
            pending = 0
        x[:k] -= np.multiply.outer(rows[:k, pivots[k]], xk)
        pending += 1
    if pending:
        x %= p
    out = np.zeros((n, x.shape[1]), dtype=np.int64)
    out[pivots] = x
    return out


def _inverse_mod(a, n, p):
    """A^-1 mod p of the (n, n) residues ``a``, or None when A is singular mod p."""
    rows, pivots = echelon_mod(np.hstack([a, np.eye(n, dtype=np.int64)]), n, p)
    return _back_substitute_mod(rows, pivots, n, p) if len(pivots) == n else None


def _digits(values, p, count=1):
    """Signed base-p digits of integers, least significant first.

    An int64 array of shape ``(k, len(values))``, k >= count, with
    ``values == sum_j out[j] * p**j``: digit j of v is the sign of v times
    digit j of |v|, so every digit lies strictly between -p and p.
    """
    neg = np.array([v < 0 for v in values])
    mags = [abs(v) for v in values] if neg.any() else values
    out = []
    while len(out) < count or any(mags):
        out.append([v % p for v in mags])
        mags = [v // p for v in mags]
    out = np.array(out, dtype=np.int64)
    out[:, neg] *= -1
    return out


def _rat_recon(u, m, nbound, dbound):
    """(a, b) with a = b*u mod m, |a| <= nbound and 0 < b <= dbound, or None.

    The extended Euclidean algorithm on (m, u), stopped at the first
    remainder within ``nbound`` (von zur Gathen and Gerhard, section 5.10);
    when 2*nbound*dbound < m, that finds the only such fraction there is.

    While the remainder r1 is longer than ``_LEHMER_BITS`` bits, the steps
    go in Lehmer's batches (Amer. Math. Monthly 45, 1938): Euclid runs on
    the leading ``_LEHMER_LEAD`` bits of r0 and the same bits of r1, and the
    cofactors of its steps are applied to the full remainders at once.  A
    step is kept only while Collins' quotient test holds (see Jebelean,
    DISCO 1993): the new remainder, and its gap to the one before, are at
    least as large as the cofactor of r1 that the dropped low bits could
    move them by, so its quotient is that of the full remainders.  The
    batches thus give the remainders of plain Euclid.  A batch that decides
    no quotient gives way to one plain step, and one that would pass
    ``nbound`` is dropped, after which plain steps finish.
    """
    r0, r1, t0, t1 = m, u, 0, 1
    lehmer = True
    while r1 > nbound:
        if lehmer and r1.bit_length() > _LEHMER_BITS:
            shift = r0.bit_length() - _LEHMER_LEAD
            x, y = r0 >> shift, r1 >> shift
            a, b, c, d = 1, 0, 0, 1  # x and y stand for a*r0 + b*r1 and c*r0 + d*r1
            while y:
                q = x // y
                z, f = x - q * y, b - q * d
                if z < abs(f) or y - z < abs(f - d):
                    break
                x, y, a, b, c, d = y, z, c, d, a - q * c, f
            s1 = c * r0 + d * r1
            if b and s1 > nbound:
                r0, r1, t0, t1 = a * r0 + b * r1, s1, a * t0 + b * t1, c * t0 + d * t1
                continue
            lehmer = not b
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 == 0 or t1 > dbound:
        return None
    return r1, t1


def _reconstruct(residues, m):
    """Numerators and one common denominator that match ``residues`` mod m, or None.

    Numerators and the denominator are bounded by sqrt(m/2), which makes the
    answer unique when one exists.  The denominator found so far usually
    clears the next component already, so most components cost one product.
    A component it does not clear needs a factor e <= dbound = bound // den,
    so its Euclid runs to the numerator bound (m - 1) // (2 * dbound) rather
    than sqrt(m/2): the answer there is still unique, and once ``den`` holds
    most of the common denominator that is a few steps, not half of m's
    bits.  A numerator found above sqrt(m/2) is refused.
    """
    bound = isqrt(m >> 1)
    half = m >> 1
    den, nums = 1, []
    for u in residues:
        v = u * den % m
        if v > half:
            v -= m
        if abs(v) > bound:
            dbound = bound // den  # at least 1: every factor e kept den * e <= bound
            got = _rat_recon(v % m, m, (m - 1) // (2 * dbound), dbound)
            if got is None or abs(got[0]) > bound:
                return None
            v, e = got
            nums = [t * e for t in nums]
            den *= e
        nums.append(v)
    return nums, den


def _dixon(rows, n):
    """Solution of the integer system ``[A | b]`` by p-adic lifting, or None.

    None when A is singular modulo both lifting primes, when n is too large
    for exact int64 lifts (see ``_DIXON_PRIMES``), or when the lift passes
    the Hadamard bound without a certified candidate.  Reconstruction is
    tried each time the modulus p**k grows by half its bit length,
    and once more past the bound 2*H**2, where H bounds det A and every
    Cramer numerator; there a solution is certain to be found if A is
    nonsingular.

    A lift makes no Python integer.  A and b are split into signed base-p
    digits, and the residual r = (b - A x) / p**k is kept as an int64 array
    of base-p limbs, r = sum_j R[j] p**j, whose limbs need not be digits.
    A lift takes the digit x_k = A^-1 R[0] mod p, subtracts the digits of A
    times x_k from the low limbs, and divides by p: the low limb is then a
    multiple of p, so one carry pass (each limb below the top keeps its
    residue mod p and passes the quotient up) leaves it 0, and the limbs
    shift down by one.  The int64 digits of the lifts since the last try are
    added into the p-adic approximation only at the next try, in a balanced
    tree of sums: each level adds neighbours in pairs, the upper one times p
    to the number of digits below it, so most products are of short integers.
    """
    if n * (_DIXON_PRIMES[0] - 1) ** 2 + (n + 2) * _DIXON_PRIMES[0] > _INT64_MAX:
        return None
    a = [row[:n] for row in rows]
    b = [row[n] for row in rows]
    for p in _DIXON_PRIMES:
        a_digits = _digits([v for row in a for v in row], p).reshape(-1, n, n)
        inv = _inverse_mod(a_digits[0] % p, n, p)  # digit 0 is A mod p, up to multiples of p
        if inv is not None:
            break
    else:
        return None
    count = len(a_digits)
    residual = _digits(b, p, count + 1)  # a limb above A's digits takes the carries
    h2 = 1
    for row, bi in zip(a, b):
        h2 *= sum(v * v for v in row) + bi * bi
    limit = (2 * h2).bit_length()
    approx = np.zeros(n, dtype=object)
    pk, folded, digits = 1, 1, []  # p**k; p to the digits already in approx
    next_try = p.bit_length()
    while True:
        digit = inv @ (residual[0] % p) % p
        residual[:count] -= a_digits @ digit
        carry, residual[:-1] = np.divmod(residual[:-1], p)
        residual[1:] += carry
        residual[:-1] = residual[1:]
        residual[-1] = 0
        digits.append(digit)
        pk *= p
        bits = pk.bit_length()
        if bits < next_try and bits <= limit:
            continue
        level, power = [x.astype(object) for x in digits], p
        while len(level) > 1:
            pairs = [lo + hi * power for lo, hi in zip(level[::2], level[1::2])]
            level, power = pairs + level[2 * len(pairs):], power * power
        approx += level[0] * folded
        folded, digits = pk, []
        candidate = _reconstruct(approx.tolist(), pk)
        if candidate is not None:
            nums, den = candidate
            if all(sum(map(mul, row, nums)) == den * bi for row, bi in zip(a, b)):
                return [Fraction(v, den) for v in nums]
        if bits > limit:
            return None
        # half rather than a quarter: fewer tries save more than the lifts past
        # the needed modulus cost.  Dixon on perfbench's systems at seeds 5 and
        # 11 took 82 and 81 ms against 91 and 90 ms (medians of 60 alternating
        # runs, one CPU of a 2-vCPU Xeon), and the same at seed 1.
        next_try = bits + bits // 2


def _augmented(matrix, rhs, prime):
    """``[A | b]`` of the system and its column count.

    Over GF(p) it is an int64 array of residues, as ``echelon_mod`` takes it;
    over Q it is integer rows.
    """
    if prime is None:
        rows, (m, n) = _rows(matrix, None)
    else:
        rows = _residue_array(matrix, prime)
        m, n = rows.shape
    if len(rhs) != m:
        raise ValueError("right-hand side length mismatch")
    if prime is None:
        return _int_rows([row + [b] for row, b in zip(rows, rhs)], None), n
    return np.column_stack([rows, np.array(_residues(rhs, prime), dtype=np.int64)]), n


def _solve(rows, n, prime, square):
    """Forward elimination of ``[A | b]`` and the solution with free variables 0."""
    if prime is not None:
        rows, pivots = echelon_mod(rows, n, prime)
        unreached = rows[len(pivots):, n].any()
    else:
        pivots = _echelon(rows, n, None)
        unreached = any(row[n] for row in rows[len(pivots):])
    if square and len(pivots) < n:
        raise SingularSystemError(f"rank {len(pivots)} < order {n}")
    if unreached:
        raise InconsistentSystemError("no polynomial satisfies the assigned data")
    if prime is not None:
        return _back_substitute_mod(rows, pivots, n, prime)[:, 0].tolist()
    return _back_substitute(rows, pivots, n)


def solve_square(matrix, rhs, prime: int | None = None) -> list:
    """Unique solution of a nonsingular square system; SingularSystemError otherwise."""
    prime = _check_prime(prime)
    rows, n = _augmented(matrix, rhs, prime)
    if len(rows) != n:
        raise ValueError(f"square system expected, got {len(rows)}x{n}")
    if prime is None and n >= _DIXON_ORDER:
        x = _dixon(rows, n)
        if x is not None:
            return x
    return _solve(rows, n, prime, square=True)


def solve_any(matrix, rhs, prime: int | None = None) -> list:
    """Some exact solution of a consistent system, free variables set to 0.

    Raises InconsistentSystemError when no solution exists.
    """
    prime = _check_prime(prime)
    rows, n = _augmented(matrix, rhs, prime)
    return _solve(rows, n, prime, square=False)
