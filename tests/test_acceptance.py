"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 2 is expected to fail its enumeration clause:
the degree-2 classification criterion provably admits three P^4 profiles
beyond the published 36-row fixture (each measures dim 1 with a matching
cone lower bound, i.e. the deficiency is certified, not a sampling
artifact).  The assertion is kept as stated rather than weakened.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from ppinterp import theory, verify
from ppinterp.gf import DEFAULT_PRIME
from ppinterp.interp import residuals, solve
from ppinterp.linalg import rank, solve_square
from ppinterp.monomials import AFFINE, HOMOGENEOUS, build_basis, derivative_row, eval_row, jacobian_block
from ppinterp.schemes import InterpolationProblem, random_affine_problem
from ppinterp.verify import EXPECTED_QUADRIC_EXCEPTIONS, TrialPolicy

P = DEFAULT_PRIME
POLICY = TrialPolicy(trials=3, prime=P)


def _finish(name, t0, budget, ok, detail=""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"{name}: {status} ({elapsed:.2f}s, budget {budget}s){detail and ' - ' + detail}")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"
    return elapsed


def test_criterion_01_table_p3():
    t0 = time.perf_counter()
    reports = verify.verify_tables(POLICY, 3)
    rows = theory.enumerate_quadric_exceptions(3)
    profiles_ok = [r.lengths for r in rows] == [p for p, _ in EXPECTED_QUADRIC_EXCEPTIONS[3]]
    dims_ok = all(r.passed for r in reports[1:])
    assert len(reports) == 8
    _finish("criterion 01 (P3 table)", t0, 5, profiles_ok and dims_ok)
    assert profiles_ok and dims_ok


def test_criterion_02_table_p4():
    t0 = time.perf_counter()
    reports = verify.verify_tables(POLICY, 4)
    dim_reports = reports[1:]
    dims_ok = all(r.passed for r in dim_reports) and len(dim_reports) == 36
    spot = {tuple(r.extra["profile"]): r.measured for r in dim_reports}
    dims_ok = dims_ok and spot[(5, 5)] == [6] * 3 and spot[(5, 5, 5, 5)] == [1] * 3
    enumerated = [r.lengths for r in theory.enumerate_quadric_exceptions(4)]
    fixture = [p for p, _ in EXPECTED_QUADRIC_EXCEPTIONS[4]]
    enum_ok = enumerated == fixture
    _finish(
        "criterion 02 (P4 table)", t0, 30, dims_ok and enum_ok,
        detail=f"dims 36/36 {'ok' if dims_ok else 'MISMATCH'}; "
               f"enumeration {len(enumerated)} vs fixture {len(fixture)}",
    )
    assert dims_ok
    # Known red: the criterion classifies (5,4,4,4), (5,4,4,3), (5,4,3,3) as
    # deficient (measured dim 1, cone bound 1 -- certified), but the fixture
    # omits them.  Kept as stated; see the repo notes for the analysis.
    assert enum_ok, (
        "classification has 39 rows, published fixture has 36: extras "
        f"{sorted(set(enumerated) - set(fixture), reverse=True)} are certified "
        "deficient (measured dim 1 in all trials, cone lower bound 1)"
    )


def test_criterion_03_exception_patterns_dim_one():
    t0 = time.perf_counter()
    reports = verify.verify_ah_exceptions(POLICY)
    ok = len(reports) == 5 and all(
        r.measured == [1] * POLICY.trials and r.passed for r in reports
    )
    _finish("criterion 03 (five deficient patterns)", t0, 5, ok)
    assert ok


def test_criterion_04_nonexceptional_sweep():
    t0 = time.perf_counter()
    reports = verify.sweep_nonexceptional(POLICY, count=200)
    ok = len(reports) == 200 and all(r.passed for r in reports)
    _finish("criterion 04 (200-config sweep)", t0, 60, ok)
    assert ok


def test_criterion_05_p8_triples():
    t0 = time.perf_counter()
    reports = verify.verify_prop45(POLICY)
    triples = {r.case.split(" ")[1] for r in reports}
    ok = len(triples) == 5 and all(r.predicted == 27 and r.passed for r in reports)
    _finish("criterion 05 (five triples)", t0, 60, ok,
            detail=f"{len(reports)} partition combos")
    assert ok


def test_criterion_06_boundary_configuration():
    t0 = time.perf_counter()
    by_case = {r.case: r for r in verify.verify_remark46(POLICY)}
    ok = (
        by_case["4.6 (0,6,21)"].measured == [2] * POLICY.trials
        and by_case["4.6 (0,0,27)"].measured[-1] == 27
        and all(r.passed for r in by_case.values())
    )
    _finish("criterion 06 (boundary cases)", t0, 30, ok)
    assert ok


def test_criterion_07_p8_leftover_triples():
    t0 = time.perf_counter()
    reports = verify.verify_prop48_leftovers(POLICY)
    triples = {r.case.split(" ")[1] for r in reports}
    ok = len(triples) == 9 and all(r.predicted == 63 and r.passed for r in reports)
    _finish("criterion 07 (nine leftover triples)", t0, 300, ok,
            detail=f"{len(reports)} partition combos")
    assert ok


def test_criterion_08_base_cases_n5():
    t0 = time.perf_counter()
    reports = verify.verify_props47_413_base(POLICY, 5)
    two_subspace = [r for r in reports if r.case.startswith(("4.7", "4.8"))]
    one_subspace = [r for r in reports if r.case.startswith("4.13")]
    ok = (
        all(r.predicted == 36 and r.passed for r in two_subspace)
        and all(r.predicted == 46 and r.passed for r in one_subspace)
        and two_subspace and one_subspace
    )
    _finish("criterion 08 (base cases n=5)", t0, 300, ok,
            detail=f"{len(two_subspace)}+{len(one_subspace)} instances")
    assert ok


def test_criterion_09_quadric_bruteforce_equivalence():
    t0 = time.perf_counter()
    reports = verify.quadric_bruteforce(POLICY)
    ok = all(r.passed for r in reports)
    total = sum(r.predicted for r in reports)
    _finish("criterion 09 (exhaustive degree-2 equivalence)", t0, 120, ok,
            detail=f"{total} profiles")
    assert ok


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(2024)

    # delta bridge identity, exhaustive for n <= 6 and profiles of size <= 8
    for n in range(1, 7):
        for k in range(9):
            for a in combinations_with_replacement(range(n + 1), k):
                prof = tuple(sorted(a, reverse=True))
                lengths = tuple(x + 1 for x in prof)
                for i in range(1, n + 1):
                    assert theory.delta_affine(n, prof, i) == theory.delta_scheme(n, lengths, i)

    # Euler identity on random points
    for n, d in ((2, 2), (3, 3), (8, 3)):
        basis = build_basis(HOMOGENEOUS, n, d)
        for _ in range(20):
            pt = [rng.randrange(P) for _ in range(n + 1)]
            jac = jacobian_block(basis, pt, prime=P)
            row = eval_row(basis, pt, prime=P)
            for j in range(len(basis)):
                assert sum(pt[k] * jac[k][j] for k in range(n + 1)) % P == d * row[j] % P

    # exact degree-1 Taylor coefficient via interpolation at t = 0..d
    n, d = 2, 5
    basis = build_basis(AFFINE, n, d)
    for _ in range(5):
        coeffs = [rng.randrange(P) for _ in basis.exponents]
        pt = [rng.randrange(P) for _ in range(n)]
        v = [rng.randrange(1, P) for _ in range(n)]
        samples = [
            sum(c * m for c, m in zip(coeffs, eval_row(basis, [(x + t * y) % P for x, y in zip(pt, v)], prime=P))) % P
            for t in range(d + 1)
        ]
        poly = solve_square([[pow(t, j, P) for j in range(d + 1)] for t in range(d + 1)],
                            samples, prime=P)
        drow = derivative_row(basis, pt, v, prime=P)
        assert poly[1] == sum(c * m for c, m in zip(coeffs, drow)) % P

    # solver round trip and zero residuals, rational and mod p
    basis23 = build_basis(AFFINE, 2, 3)
    g = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in basis23.exponents]
    pts = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(2)],
           [Fraction(-1), Fraction(3)], [Fraction(2), Fraction(-1)]]
    dirs = [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
            [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]],
            [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]], []]
    values = []
    for p, ds in zip(pts, dirs):
        vals = [sum(c * v for c, v in zip(g, eval_row(basis23, p)))]
        vals += [sum(c * w for c, w in zip(g, derivative_row(basis23, p, v))) for v in ds]
        values.append(vals)
    prob = InterpolationProblem(2, 3, pts, dirs, values)
    f = solve(prob)
    assert f.coefficients == g
    assert all(r == 0 for r in residuals(prob, f))

    gf_prob = random_affine_problem(3, 3, (3, 3, 3, 3, 2, 0), prime=P, seed=77)
    g2 = [rng.randrange(P) for _ in range(comb(6, 3))]
    basis33 = build_basis(AFFINE, 3, 3)
    gf_values = []
    for p, ds in zip(gf_prob.points, gf_prob.directions):
        vals = [sum(c * v for c, v in zip(g2, eval_row(basis33, p, prime=P))) % P]
        vals += [sum(c * w for c, w in zip(g2, derivative_row(basis33, p, v, prime=P))) % P
                 for v in ds]
        gf_values.append(vals)
    gf_prob.values = gf_values
    f2 = solve(gf_prob)
    assert f2.coefficients == g2
    assert all(r == 0 for r in residuals(gf_prob, f2))

    _finish("criterion 10 (property suites)", t0, 60, True)
