#!/usr/bin/env python3
"""Benchmark the exact elimination paths: GF(p) rank kernels and both solvers.

The rank of seeded random matrices over GF(31991) is one of the three
layers of every verification sweep (with drawing and building the
matrices).  This script times ``echelon_mod``'s rank on both of its inner
loops -- numpy's and, when the extension is built, the compiled C loop --
on the matrix orders the suites produce (27, 36, 63, 126, 165) and on a
full end-to-end sweep.  At the small orders (k x (k+1) for k = 3..21: the
draws' direction checks and the smallest condition matrices) it also times
``linalg.rank_rows`` beside the loops, with the work m*n*min(m, n) that
``linalg._ROWS_WORK`` is set against: ``linalg.rank`` eliminates on Python
rows up to that work.  On stacks of the sweeps' square orders (27, 36, 46,
63) it times the batched exact rank ``rank_mod`` and ``linalg.ranks``
against ranking each matrix alone, which sets the routing rule in
``linalg.ranks``; ``rank_mod`` is timed on full-rank stacks and on stacks
whose every matrix has one dependent column, as a deficiency claim's do.
A stack-size table times ``rank_mod`` per matrix on stacks of 1, 10, 64
and 128 members at orders 36 and 63: its per-column numpy calls are paid
once a stack, which is why a sweep's trial rounds fill across triples.
On 128 seeded instances of the cubic sweeps at each of these orders it
times the batched draw and build ``schemes.condition_matrices``, with the
slot-product rule it takes and with the jacobian rule forced, against
drawing and building each instance alone, and checks that all three give
the same bytes.  An affine table times
the affine build per problem: ``condition_matrix_affine`` over GF(p) and
``integer_system_affine`` over Q (integer and two-digit fraction entries),
on the ``verify -n N -d D -a ...`` shapes of n = 1-4, d = 3-5 and on the
square solves of orders 45-126.

The solvers get two tables.  Over GF(p), ``solve_square`` (``echelon_mod``
and the numpy back-substitution) on random square systems, with the numpy
loop and with the C loop.  Over Q, Bareiss against Dixon lifting on the
integer rows of seeded square interpolation problems of orders 4-126
(small integers and two-digit fractions), which sets ``linalg._DIXON_ORDER``;
``--big`` adds orders 120-126 with 15-bit integer coordinates.  Both
paths must return the same solution.

Usage: python benchmarks/bench_rank.py [--repeats 20] [--mats 10] [--big]
"""

import argparse
import random
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

# time this checkout's package, whether or not one is installed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ppinterp import interp, linalg, schemes
from ppinterp.gf import DEFAULT_PRIME
from ppinterp.linalg import KERNEL, _ROWS_WORK, _echelon_numpy, rank_mod, rank_rows
from ppinterp.monomials import AFFINE, build_basis
from ppinterp.schemes import (
    InterpolationProblem,
    ProjectiveDraw,
    condition_matrices,
    condition_matrix_affine,
    integer_system_affine,
    random_affine_problem,
)

# echelon_mod's active inner loop: the compiled one when the extension is built
ACTIVE_LOOP = linalg.echelon_inplace


def rank_py(a, p):
    """The rank by echelon_mod's numpy loop (on a fresh residue copy, as echelon_mod makes)."""
    return len(_echelon_numpy(a % p, a.shape[1], p))


def rank_c(a, p):
    """The rank by echelon_mod's compiled loop."""
    return len(ACTIVE_LOOP(a % p, a.shape[1], p))


if KERNEL != "c":
    rank_c = None

SIZES = (27, 36, 63, 126, 165)
SMALL = (3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 17, 21)
# Square orders of the cubic sweeps' condition matrices, and the stack size:
# a trial round of a sweep ranks tens to a few hundred matrices of one shape.
SCREEN_ORDERS = (27, 36, 46, 63)
SCREEN_STACK = 64
# Stack sizes of the amortisation table: a lone case, a sampled triple's
# round, and full trial rounds (verify.ROUND_CASES is 128).
STACK_SIZES = (1, 10, 64, 128)
STACK_ORDERS = (36, 63)
# Instances per batched draw and build: one trial round (verify.ROUND_CASES).
DRAW_STACK = 128
# (n, d) of the affine build table: the verify -n N -d D -a ... grid, whose
# profiles cycle n, n-1, ..., 0 while the conditions fit, and the square
# solves of orders 45-126, filled by double points.
AFFINE_GRID = tuple((n, d) for n in (1, 2, 3, 4) for d in (3, 4, 5))
AFFINE_SOLVES = ((2, 8), (3, 5), (2, 10), (2, 11), (3, 6), (3, 7), (4, 5))
GF_SOLVE_ORDERS = (4, 6, 8, 9, 10, 11, 12, 16, 21, 45, 66, 126)
# (n, d) of the rational solves: orders C(n+d, d) = 4, 6, 8, 10, 12, 15, 21, 28, 36, 45,
# 56, 66, 84, 126.  Double points fill each order, so (n, d) avoids the
# Alexander-Hirschowitz exceptions, where those systems are always singular.
Q_SHAPES = ((1, 3), (1, 5), (1, 7), (2, 3), (1, 11), (1, 14), (2, 5), (2, 6), (2, 7), (2, 8),
            (3, 5), (2, 10), (3, 6), (4, 5))
Q_BIG_SHAPES = ((2, 14), (3, 7), (4, 5), (5, 4))
# Largest order the rational tables also solve by Bareiss: it takes 11-38 s a
# system at orders 120-126, where Dixon takes under 2 s.
BAREISS_MAX = 66


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
    """Python rows against the loops on k x (k+1) matrices; rows get the loops' input."""
    print(f"\nsmall orders (linalg._ROWS_WORK = {_ROWS_WORK})")
    header = f"{'shape':>7} {'work':>6} {'rows (us)':>10} {'numpy (us)':>11}"
    if rank_c is not None:
        header += f" {'c (us)':>12}"
    print(header)
    for k in SMALL:
        mats = [random_matrix(rng, k, k + 1) for _ in range(args.mats)]
        times = [bench_kernel(fn, mats, args.repeats) * 1e6
                 for fn in (rank_rows, rank_py, rank_c) if fn is not None]
        print(f"{f'{k}x{k + 1}':>7} {k * (k + 1) * k:>6} "
              + " ".join(f"{t:>{w}.1f}" for t, w in zip(times, (10, 11, 12))))


def bench_screen(rng, args):
    """The batched exact rank against ranking each matrix alone, per matrix of a stack.

    ``1 dep`` stacks are the full-rank ones with one column of each matrix
    replaced by a combination of two others, at a seeded position.
    """
    print(f"\nbatched rank, stacks of {SCREEN_STACK} (us per matrix)")
    header = f"{'order':>6} {'rank_mod':>9} {'1 dep':>8} {'ranks':>8} {'numpy':>8}"
    if rank_c is not None:
        header += f" {'c':>8}"
    print(header)
    for order in SCREEN_ORDERS:
        mats = [random_matrix(rng, order) for _ in range(SCREEN_STACK)]
        stack = np.array(mats)
        deficient = stack.copy()
        spots = random.Random(order)
        for a in deficient:
            j = spots.randrange(order)
            a[:, j] = (a[:, (j + 1) % order] + 2 * a[:, (j + 2) % order]) % DEFAULT_PRIME
        expected = [rank_py(m, DEFAULT_PRIME) for m in mats]
        assert linalg.ranks(mats, DEFAULT_PRIME) == expected
        assert rank_mod(stack, DEFAULT_PRIME).tolist() == expected
        assert rank_mod(deficient, DEFAULT_PRIME).tolist() == [
            rank_py(m, DEFAULT_PRIME) for m in deficient] == [order - 1] * SCREEN_STACK
        times = [_best(lambda: rank_mod(a, DEFAULT_PRIME), args.repeats)[0] / SCREEN_STACK
                 for a in (stack, deficient)]
        t_ranks, _ = _best(lambda: linalg.ranks(mats, DEFAULT_PRIME), args.repeats)
        times.append(t_ranks / SCREEN_STACK)
        times += [bench_kernel(fn, mats, args.repeats) for fn in (rank_py, rank_c) if fn]
        widths = (9, 8, 8, 8, 8)
        print(f"{order:>6} " + " ".join(f"{t * 1e6:>{w}.0f}" for t, w in zip(times, widths)))


def bench_stack_sizes(rng, args):
    """rank_mod's time per matrix as the stack grows: the per-column cost is paid once a stack."""
    print("\nrank_mod by stack size (us per matrix)")
    print(f"{'order':>6} " + " ".join(f"{f'B={b}':>8}" for b in STACK_SIZES))
    for order in STACK_ORDERS:
        stack = np.array([random_matrix(rng, order) for _ in range(max(STACK_SIZES))])
        assert rank_mod(stack, DEFAULT_PRIME).tolist() == [
            rank_py(m, DEFAULT_PRIME) for m in stack]
        times = [_best(lambda: rank_mod(stack[:b], DEFAULT_PRIME), args.repeats)[0] / b
                 for b in STACK_SIZES]
        print(f"{order:>6} " + " ".join(f"{t * 1e6:>8.0f}" for t in times))


def _sweep_groups():
    """(order, n, subspaces, families) of one cubic sweep per condition-matrix order.

    The first Prop. 4.5 triple (27 columns), the P^5 base sweeps on two
    subspaces (36) and on one (46, alpha = 0), and the first Prop. 4.8 triple (63).
    """
    from ppinterp.verify import (
        BASE_SUBSPACES, P8_LEFTOVER_TRIPLES, P8_SUBSPACES, P8_TRIPLES, _free_part,
        _on_subspace, _two_subspace_triples,
    )

    l5, m5, f5 = next(_two_subspace_triples(5))
    l8, m8, f8 = P8_LEFTOVER_TRIPLES[0]
    return [
        (27, 8, P8_SUBSPACES, [_on_subspace("", 8, i, x) for i, x in enumerate(P8_TRIPLES[0])]),
        (36, 5, BASE_SUBSPACES, [_on_subspace("", 5, 0, l5), _on_subspace("", 5, 1, m5),
                                 _free_part(5, f5)]),
        (46, 5, BASE_SUBSPACES[:1], [_on_subspace("", 5, 0, 10), _free_part(5, 36)]),
        (63, 8, P8_SUBSPACES[:2], [_on_subspace("", 8, 0, l8), _on_subspace("", 8, 1, m8),
                                   _free_part(8, f8)]),
    ]


def _jacobian_rule(draws):
    """``condition_matrices`` with the jacobian rule in every projective build."""
    slot_rule = schemes._slot_rule
    schemes._slot_rule = lambda *args: False
    try:
        return condition_matrices(draws, DEFAULT_PRIME)
    finally:
        schemes._slot_rule = slot_rule


def bench_draw_build(rng, args):
    """The batched draw and build of a trial round, by both row rules, against one at a time."""
    from ppinterp.monomials import vanishing_basis

    print(f"\ndraw and build, {DRAW_STACK} seeded sweep instances (us per instance)")
    print(f"{'order':>6} {'batched':>8} {'jacobian':>9} {'alone':>8} {'speedup':>8}")
    for order, n, subspaces, families in _sweep_groups():
        basis = vanishing_basis(n, 3, subspaces)
        assert len(basis) == order
        draws = []
        for _ in range(DRAW_STACK):
            parts = [rng.choice(family_parts) for _, family_parts, _ in families]
            specs = tuple(s for (_, _, specs_of), part in zip(families, parts)
                          for s in specs_of(part))
            draws.append((ProjectiveDraw(specs, subspaces, basis), rng.randrange(2**64)))

        def alone():
            return [build(seed, DEFAULT_PRIME) for build, seed in draws]

        def batched():
            return condition_matrices(draws, DEFAULT_PRIME)

        t_alone, expected = _best(alone, args.repeats)
        t_batched, got = _best(batched, args.repeats)
        t_jacobian, by_jacobian = _best(lambda: _jacobian_rule(draws), args.repeats)
        for matrices in (got, by_jacobian):
            assert [(m.dtype, m.shape, m.tobytes()) for m in matrices] == [
                (m.dtype, m.shape, m.tobytes()) for m in expected]
        print(f"{order:>6} {t_batched / DRAW_STACK * 1e6:>8.0f}"
              f" {t_jacobian / DRAW_STACK * 1e6:>9.0f}"
              f" {t_alone / DRAW_STACK * 1e6:>8.0f} {t_alone / t_batched:>7.1f}x")


def grid_profile(n, d):
    """Derivative counts cycling n, n-1, ..., 0 while the conditions fit C(n+d, d)."""
    a, k = [], n
    while sum(x + 1 for x in a) + k + 1 <= comb(n + d, d):
        a.append(k)
        k = k - 1 if k > 0 else n
    return sorted(a, reverse=True)


def square_profile(n, d):
    """Double points filling the order C(n+d, d), plus one point for the remainder."""
    full, rest = divmod(comb(n + d, d), n + 1)
    return [n] * full + ([rest - 1] if rest else [])


def bench_affine_build(rng, args):
    """The affine build per problem: condition_matrix_affine mod p and integer_system_affine."""
    print(f"\naffine build, {args.mats} seeded problems per shape (us per problem)")
    print(f"{'n':>2} {'d':>2} {'order':>6} {'rows':>5} {'gf':>8} {'q int':>8} {'q frac':>8}")
    shapes = ([(n, d, grid_profile(n, d)) for n, d in AFFINE_GRID]
              + [(n, d, square_profile(n, d)) for n, d in AFFINE_SOLVES])
    for n, d, profile in shapes:
        basis = build_basis(AFFINE, n, d)
        gf = [random_affine_problem(n, d, profile, DEFAULT_PRIME, rng.randrange(2**32))
              for _ in range(args.mats)]
        times = [_best(lambda: [condition_matrix_affine(p, basis, DEFAULT_PRIME) for p in gf],
                       args.repeats)[0]]
        for kind in ("int", "frac"):
            def scalar():
                return _scalar(rng, kind) or 1  # no zero direction

            q = [InterpolationProblem(
                n, d, [[scalar() for _ in range(n)] for _ in profile],
                [[[scalar() for _ in range(n)] for _ in range(a)] for a in profile],
                [[scalar() for _ in range(a + 1)] for a in profile]) for _ in range(args.mats)]
            times.append(_best(lambda: [integer_system_affine(p, basis) for p in q],
                               args.repeats)[0])
        print(f"{n:>2} {d:>2} {len(basis):>6} {sum(a + 1 for a in profile):>5} "
              + " ".join(f"{t / args.mats * 1e6:>8.0f}" for t in times))


def bench_suite():
    from ppinterp.verify import TrialPolicy, verify_prop45

    t0 = time.perf_counter()
    reports = verify_prop45(TrialPolicy())
    dt = time.perf_counter() - t0
    return len(reports), dt


def _best(fn, repeats):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _gf_solve(loop, a, rhs):
    linalg.echelon_inplace = loop
    try:
        return linalg.solve_square(a, rhs, DEFAULT_PRIME)
    finally:
        linalg.echelon_inplace = ACTIVE_LOOP


def bench_solve_gf(rng, args):
    """solve_square mod p on the numpy loop and on the C loop, random square systems."""
    print("\nGF(p) solve")
    header = f"{'order':>6} {'work':>8} {'numpy (ms)':>11}"
    print(header + (f" {'c (ms)':>9}" if rank_c is not None else ""))
    for n in GF_SOLVE_ORDERS:
        a, rhs = random_matrix(rng, n), random_matrix(rng, 1, n)[0].tolist()
        t_np, x_np = _best(lambda: _gf_solve(_echelon_numpy, a, rhs), args.repeats)
        line = f"{n:>6} {n ** 3:>8} {t_np * 1e3:>11.3f}"
        if rank_c is not None:
            t_c, x_c = _best(lambda: _gf_solve(ACTIVE_LOOP, a, rhs), args.repeats)
            assert x_c == x_np, n
            line += f" {t_c * 1e3:>9.3f}"
        print(line)


def _scalar(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "int15":
        return rng.randint(-(2**15) + 1, 2**15 - 1)
    return Fraction(rng.choice((-1, 1)) * rng.randint(10, 99), rng.randint(10, 99))


def square_problem(rng, n, d, kind):
    """A seeded square problem, nonsingular mod the default prime (hence over Q).

    Double points (n directions) fill the order, plus one point with fewer
    directions for the remainder.
    """
    order = comb(n + d, d)
    profile = square_profile(n, d)
    for _ in range(50):
        prob = InterpolationProblem(
            n, d,
            [[_scalar(rng, kind) for _ in range(n)] for _ in profile],
            [[[_scalar(rng, kind) for _ in range(n)] for _ in range(a)] for a in profile],
            [[_scalar(rng, kind) for _ in range(a + 1)] for a in profile],
        )
        reduced = interp._reduce_problem(prob, DEFAULT_PRIME)
        try:
            matrix = condition_matrix_affine(reduced)
        except ValueError:  # a zero direction mod p
            continue
        if linalg.rank(matrix, DEFAULT_PRIME) == order:
            return prob
    raise ValueError(f"no nonsingular draw for n={n}, d={d}")


def bench_solve_q(rng, shapes, kinds):
    """Bareiss against Dixon on the integer rows the rational solve builds."""
    print(f"\nrational solve (linalg._DIXON_ORDER = {linalg._DIXON_ORDER}; "
          f"Bareiss only up to order {BAREISS_MAX})")
    print(f"{'n':>2} {'d':>3} {'order':>6} {'kind':>6} {'bareiss (s)':>12} {'dixon (s)':>10}")
    for n, d in shapes:
        order = comb(n + d, d)
        for kind in kinds:
            prob = square_problem(rng, n, d, kind)
            rows, rhs = integer_system_affine(prob, build_basis(AFFINE, n, d))
            aug = [row + [b] for row, b in zip(rows, rhs)]
            repeats = 1 if order > 45 else 3
            t_dx, x_dx = _best(lambda: linalg._dixon(aug, order), repeats)
            assert x_dx is not None, (n, d, kind)
            line = f"{n:>2} {d:>3} {order:>6} {kind:>6} "
            if order <= BAREISS_MAX:
                t_br, x_br = _best(
                    lambda: linalg._solve([r[:] for r in aug], order, None, True), repeats)
                assert x_br == x_dx, (n, d, kind)
                line += f"{t_br:>12.4f}"
            else:
                line += f"{'-':>12}"
            print(line + f" {t_dx:>10.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--mats", type=int, default=10, help="matrices per size")
    parser.add_argument("--big", action="store_true",
                        help="add rational solves at orders 120-126 with 15-bit coordinates")
    args = parser.parse_args()

    rng = random.Random(1)
    print(f"prime {DEFAULT_PRIME}, {args.mats} matrices/size, best of {args.repeats}")
    header = f"{'order':>6} {'numpy (ms)':>12}"
    if rank_c is not None:
        header += f" {'c (ms)':>12} {'speedup':>8}"
    print(header)
    for size in SIZES:
        mats = [random_matrix(rng, size) for _ in range(args.mats)]
        t_py = bench_kernel(rank_py, mats, args.repeats) * 1000
        line = f"{size:>6} {t_py:>12.3f}"
        if rank_c is not None:
            t_c = bench_kernel(rank_c, mats, args.repeats) * 1000
            line += f" {t_c:>12.3f} {t_py / t_c:>7.1f}x"
        print(line)
    if rank_c is None:
        print("compiled loop not built; numpy loop only "
              "(python setup.py build_ext --inplace to build it)")
    bench_small(rng, args)
    bench_screen(rng, args)
    bench_stack_sizes(rng, args)
    bench_draw_build(rng, args)
    bench_solve_gf(rng, args)
    bench_solve_q(rng, Q_SHAPES, ("int", "frac"))
    if args.big:
        bench_solve_q(rng, Q_BIG_SHAPES, ("int15",))
    bench_affine_build(rng, args)

    cases, dt = bench_suite()
    print(f"\nend to end: five-triple suite, {cases} cases in {dt:.2f}s "
          f"(active kernel: {KERNEL})")


if __name__ == "__main__":
    main()
