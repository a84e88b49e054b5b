#!/usr/bin/env python3
"""Benchmark the compiled GF(p) rank kernel against the numpy fallback.

The rank of seeded random square matrices over GF(31991) is one of the
three layers of every verification sweep (with drawing and building the
matrices); this script times both kernels on the matrix orders the suites
produce (27, 36, 63, 126, 165) and on a full end-to-end sweep.

Usage: python benchmarks/bench_rank.py [--repeats 50]
"""

import argparse
import random
import time

import numpy as np

from ppinterp._gfcore_py import rank_mod as rank_py
from ppinterp.gf import DEFAULT_PRIME

try:
    from ppinterp._gfcore import rank_mod as rank_cy
except ImportError:
    rank_cy = None

SIZES = (27, 36, 63, 126, 165)


def random_matrix(rng, size):
    return np.array(
        [[rng.randrange(DEFAULT_PRIME) for _ in range(size)] for _ in range(size)],
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

    cases, dt = bench_suite()
    from ppinterp.linalg import KERNEL

    print(f"\nend to end: five-triple suite, {cases} cases in {dt:.2f}s "
          f"(active kernel: {KERNEL})")


if __name__ == "__main__":
    main()
