#!/usr/bin/env python3
"""Benchmark the GF(p) rank paths: Python rows, the numpy kernel, the compiled one.

The rank of seeded random matrices over GF(31991) is one of the three
layers of every verification sweep (with drawing and building the
matrices).  This script times both kernels on the matrix orders the suites
produce (27, 36, 63, 126, 165) and on a full end-to-end sweep.  At the small
orders (k x (k+1) for k = 3..21: the draws' direction checks and the
smallest condition matrices) it also times ``linalg.rank_rows`` beside the
kernels, with the work m*n*min(m, n) that ``linalg._ROWS_WORK`` is set
against: ``linalg.rank`` eliminates on Python rows up to that work.

Usage: python benchmarks/bench_rank.py [--repeats 20] [--mats 10]
"""

import argparse
import random
import time

import numpy as np

from ppinterp._gfcore_py import rank_mod as rank_py
from ppinterp.gf import DEFAULT_PRIME
from ppinterp.linalg import _ROWS_WORK, rank_rows

try:
    from ppinterp._gfcore import rank_mod as rank_cy
except ImportError:
    rank_cy = None

SIZES = (27, 36, 63, 126, 165)
SMALL = (3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 17, 21)


def random_matrix(rng, size, cols=None):
    return np.array(
        [[rng.randrange(DEFAULT_PRIME) for _ in range(cols or size)] for _ in range(size)],
        dtype=np.int64,
    )


def bench_kernel(fn, mats, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for m in mats:
            fn(m, DEFAULT_PRIME)
        best = min(best, time.perf_counter() - t0)
    return best / len(mats)


def bench_small(rng, args):
    """Python rows against the kernels on k x (k+1) matrices; rows get the kernels' input."""
    print(f"\nsmall orders (linalg._ROWS_WORK = {_ROWS_WORK})")
    header = f"{'shape':>7} {'work':>6} {'rows (us)':>10} {'numpy (us)':>11}"
    if rank_cy is not None:
        header += f" {'cython (us)':>12}"
    print(header)
    for k in SMALL:
        mats = [random_matrix(rng, k, k + 1) for _ in range(args.mats)]
        times = [bench_kernel(fn, mats, args.repeats) * 1e6
                 for fn in (rank_rows, rank_py, rank_cy) if fn is not None]
        print(f"{f'{k}x{k + 1}':>7} {k * (k + 1) * k:>6} "
              + " ".join(f"{t:>{w}.1f}" for t, w in zip(times, (10, 11, 12))))


def bench_suite():
    from ppinterp.verify import TrialPolicy, verify_prop45

    t0 = time.perf_counter()
    reports = verify_prop45(TrialPolicy())
    dt = time.perf_counter() - t0
    return len(reports), dt


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--mats", type=int, default=10, help="matrices per size")
    args = parser.parse_args()

    rng = random.Random(1)
    print(f"prime {DEFAULT_PRIME}, {args.mats} matrices/size, best of {args.repeats}")
    header = f"{'order':>6} {'numpy (ms)':>12}"
    if rank_cy is not None:
        header += f" {'cython (ms)':>12} {'speedup':>8}"
    print(header)
    for size in SIZES:
        mats = [random_matrix(rng, size) for _ in range(args.mats)]
        t_py = bench_kernel(rank_py, mats, args.repeats) * 1000
        line = f"{size:>6} {t_py:>12.3f}"
        if rank_cy is not None:
            t_cy = bench_kernel(rank_cy, mats, args.repeats) * 1000
            line += f" {t_cy:>12.3f} {t_py / t_cy:>7.1f}x"
        print(line)
    if rank_cy is None:
        print("compiled kernel not built; numpy fallback only "
              "(pip install -e . --no-build-isolation to build it)")
    bench_small(rng, args)

    cases, dt = bench_suite()
    from ppinterp.linalg import KERNEL

    print(f"\nend to end: five-triple suite, {cases} cases in {dt:.2f}s "
          f"(active kernel: {KERNEL})")


if __name__ == "__main__":
    main()
