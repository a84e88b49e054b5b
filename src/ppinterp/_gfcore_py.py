"""Pure-Python (numpy) row-reduction kernel over GF(p).

Fallback for the compiled ppinterp._gfcore extension; identical contract.
Entries stay below p < MAX_PRIME = 2**26, so products fit comfortably in int64.
"""

from __future__ import annotations

import numpy as np

KERNEL = "python"


def rank_mod(a, p: int) -> int:
    """Rank of an integer matrix over GF(p)."""
    arr = np.array(a, dtype=np.int64, order="C", copy=True)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if arr.size == 0:
        return 0
    arr %= p
    m, n = arr.shape
    r = 0
    for c in range(n):
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
        r += 1
    return r
