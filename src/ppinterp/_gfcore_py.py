"""Pure-Python (numpy) row-reduction kernel over GF(p).

Fallback for the compiled ppinterp._gfcore extension; identical ``rank_mod``
contract.  ``echelon_mod`` exists only here: the exact solvers use it for
their GF(p) eliminations whichever rank kernel is active.
Entries stay below p < MAX_PRIME = 2**26, so products fit comfortably in int64.
"""

from __future__ import annotations

import numpy as np

KERNEL = "python"


def echelon_mod(a, ncols: int, p: int):
    """Forward elimination mod p of an augmented integer matrix ``[A | B]``.

    ``A`` is the first ``ncols`` columns; ``B`` (any number of columns, maybe
    none) is carried along.  Pivots are the first nonzero entry in column
    order, as in ``linalg._echelon``.  Returns ``(rows, pivots)``: the reduced
    int64 array, whose pivot rows come first and have their pivot scaled to 1,
    and the pivot columns.
    """
    arr = np.array(a, dtype=np.int64, order="C", copy=True)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    pivots = []
    if arr.size == 0:
        return arr, pivots
    arr %= p
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
    return arr, pivots


def rank_mod(a, p: int) -> int:
    """Rank of an integer matrix over GF(p)."""
    arr = np.asarray(a)
    return len(echelon_mod(arr, arr.shape[1] if arr.ndim == 2 else 0, p)[1])
