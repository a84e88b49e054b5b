import json
import random
from fractions import Fraction

import pytest

from ppinterp.gf import DEFAULT_PRIME
from ppinterp.interp import (
    InconsistentProblemError,
    Interpolant,
    NoResidueError,
    SingularProblemError,
    predict_then_solve,
    problem_from_json,
    residuals,
    solve,
)
from ppinterp.monomials import AFFINE, build_basis, derivative_row, eval_row
from ppinterp.schemes import InterpolationProblem, random_affine_problem

P = DEFAULT_PRIME


def hermite_line_problem():
    # f(0)=0, f'(0)=1, f(1)=1, f'(1)=1 -> the line f(x)=x through cubics
    return InterpolationProblem(1, 3, [[0], [1]], [[[1]], [[1]]], [[0, 1], [1, 1]])


def test_solve_hermite_line():
    f = solve(hermite_line_problem())
    assert f.coefficients == [0, 1, 0, 0]
    assert residuals(hermite_line_problem(), f) == [0, 0, 0, 0]


def test_solve_affine_degree_one():
    # two values plus one directional derivative pin an affine function
    prob = InterpolationProblem(
        2, 1,
        [[0, 0], [1, 2]],
        [[[1, 0]], []],
        [[3, 2], [4]],  # f(0,0)=3, df/dx1=2, f(1,2)=4 -> f = 3 + 2x1 - (1/2)x2
    )
    f = solve(prob)
    assert f.coefficients == [3, 2, Fraction(-1, 2)]
    assert residuals(prob, f) == [0, 0, 0]


def problem_from_polynomial(n, d, a_profile, seed, prime=None):
    """Induce assigned values from a random polynomial g (round-trip oracle)."""
    rng = random.Random(seed)
    basis = build_basis(AFFINE, n, d)
    if prime is None:
        g = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in basis.exponents]
        pts = []
        while len(pts) < len(a_profile):
            p = [Fraction(rng.randint(-20, 20)) for _ in range(n)]
            if p not in pts:
                pts.append(p)
        dirs = [[[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(a)]
                for a in a_profile]
    else:
        g = [rng.randrange(prime) for _ in basis.exponents]
        base = random_affine_problem(n, d, a_profile, prime, seed)
        pts, dirs = base.points, base.directions
    values = []
    for p, ds in zip(pts, dirs):
        row = eval_row(basis, p, prime)
        vals = [sum(c * v for c, v in zip(g, row))]
        for v in ds:
            drow = derivative_row(basis, p, v, prime)
            vals.append(sum(c * w for c, w in zip(g, drow)))
        if prime is not None:
            vals = [x % prime for x in vals]
        values.append(vals)
    return InterpolationProblem(n, d, pts, dirs, values, prime), g


def test_round_trip_rational():
    prob, g = problem_from_polynomial(2, 3, (2, 2, 2, 0), seed=6)
    assert prob.condition_count() == 10
    f = solve(prob)
    assert [Fraction(c) for c in f.coefficients] == g
    assert all(r == 0 for r in residuals(prob, f))


def test_round_trip_mod_p():
    prob, g = problem_from_polynomial(3, 2, (3, 2, 1, 0), seed=6, prime=P)
    assert prob.condition_count() == 10
    f = solve(prob)
    assert f.coefficients == g
    assert all(r == 0 for r in residuals(prob, f))


def test_permutation_invariance():
    prob, g = problem_from_polynomial(2, 3, (2, 2, 2, 0), seed=8)
    order = [2, 0, 3, 1]
    shuffled = InterpolationProblem(
        prob.n, prob.d,
        [prob.points[i] for i in order],
        [prob.directions[i] for i in order],
        [prob.values[i] for i in order],
    )
    assert solve(prob).coefficients == solve(shuffled).coefficients


@pytest.mark.parametrize("n, d, a_profile, seed, pattern", [
    (2, 4, (2,) * 5, 2, "a"),
    (3, 4, (3,) * 8 + (2,), 4, "b'"),
    (4, 3, (4,) * 7, 3, "c"),  # seven points with full tangent data in four variables
    (4, 4, (4,) * 14, 5, "d"),
], ids=["a", "b_prime", "c", "d"])
def test_singular_exception(n, d, a_profile, seed, pattern):
    prob, _ = problem_from_polynomial(n, d, a_profile, seed=seed, prime=P)
    # perturb one value so the data is generic rather than induced
    prob.values[0][0] = (prob.values[0][0] + 1) % P
    with pytest.raises(SingularProblemError) as err:
        solve(prob)
    assert err.value.exception_id == pattern


def test_overdetermined_exception_b_is_named():
    # nine double points in three variables: 36 conditions on the 35 quartics
    prob, _ = problem_from_polynomial(3, 4, (3,) * 9, seed=6, prime=P)
    prob.values[0][0] = (prob.values[0][0] + 1) % P
    result = predict_then_solve(prob)
    assert result.prediction.exception_id == "b"
    assert result.interpolant is None
    assert result.diagnosis == "assigned values are unreachable (b)"


def test_degenerate_data_diagnosis():
    # coincident points make a square system singular without a pattern match
    prob = InterpolationProblem(1, 1, [[0], [0]], [[], []], [[1], [2]])
    with pytest.raises(SingularProblemError) as err:
        solve(prob)
    assert err.value.exception_id is None
    assert "degenerate data" in str(err.value)


def test_quadric_two_tangent_planes_inconsistent():
    # degree 2, two points with full tangent data: 8 conditions in 10-dim
    # space, but generic data is unreachable (the deficiency is structural)
    rng = random.Random(9)
    prob = InterpolationProblem(
        3, 2,
        [[rng.randrange(P) for _ in range(3)] for _ in range(2)],
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]] * 2,
        [[rng.randrange(P) for _ in range(4)] for _ in range(2)],
        prime=P,
    )
    result = predict_then_solve(prob)
    assert result.prediction.exceptional
    assert result.prediction.exception_id == "quadric-delta"
    assert result.interpolant is None
    assert "unreachable" in result.diagnosis


def test_quadric_two_tangent_lines_square_singular():
    # the n=2 version is square (6 = 6) and singular
    rng = random.Random(10)
    prob = InterpolationProblem(
        2, 2,
        [[rng.randrange(P) for _ in range(2)] for _ in range(2)],
        [[[1, 0], [0, 1]]] * 2,
        [[rng.randrange(P) for _ in range(3)] for _ in range(2)],
        prime=P,
    )
    with pytest.raises(SingularProblemError) as err:
        solve(prob)
    assert err.value.exception_id == "quadric-delta"


def test_predict_then_solve_generic():
    prob, g = problem_from_polynomial(2, 3, (2, 2, 2, 0), seed=12)
    result = predict_then_solve(prob)
    assert not result.prediction.exceptional
    assert result.interpolant.coefficients == g
    assert result.diagnosis is None


def test_predict_then_solve_empty_problem():
    prob = InterpolationProblem(2, 0, [], [], [])
    result = predict_then_solve(prob)
    assert result.prediction.expected_codim == 0
    assert result.interpolant.coefficients == [0]


def test_overdetermined_inconsistent():
    prob = InterpolationProblem(1, 1, [[0], [1], [2]], [[], [], []], [[0], [1], [3]])
    with pytest.raises(InconsistentProblemError):
        solve(prob, mode="any")
    # consistent overdetermined data is fine
    prob2 = InterpolationProblem(1, 1, [[0], [1], [2]], [[], [], []], [[0], [1], [2]])
    f = solve(prob2, mode="any")
    assert f.coefficients == [0, 1]


def test_unique_mode_rejects_nonsquare():
    prob = InterpolationProblem(1, 2, [[0]], [[]], [[1]])
    with pytest.raises(ValueError):
        solve(prob)
    f = solve(prob, mode="any")
    assert all(r == 0 for r in residuals(prob, f))


def test_gf_and_rational_paths_agree():
    rng = random.Random(14)
    basis = build_basis(AFFINE, 2, 2)
    g = [rng.randint(-9, 9) for _ in basis.exponents]
    pts = [[0, 0], [1, 2], [3, 1]]
    dirs = [[[1, 0], [0, 1]], [[2, 1]], []]
    values = []
    for p, ds in zip(pts, dirs):
        vals = [sum(c * v for c, v in zip(g, eval_row(basis, p)))]
        for v in ds:
            vals.append(sum(c * w for c, w in zip(g, derivative_row(basis, p, v))))
        values.append(vals)
    f_rat = solve(InterpolationProblem(2, 2, pts, dirs, values))
    prob_gf = InterpolationProblem(
        2, 2,
        [[x % P for x in p] for p in pts],
        [[[x % P for x in v] for v in ds] for ds in dirs],
        [[x % P for x in vs] for vs in values],
        prime=P,
    )
    f_gf = solve(prob_gf)
    assert f_gf.coefficients == [int(c) % P for c in f_rat.coefficients]


def test_rational_data_embeds_in_gf():
    # {f(1/2)=1/4, f'(1/2)=1, f(2)=4, f'(2)=4} comes from f(x)=x^2; the
    # finite-field solve embeds the fractions as num * den^-1
    prob = InterpolationProblem(
        1, 3,
        [[Fraction(1, 2)], [2]],
        [[[1]], [[1]]],
        [[Fraction(1, 4), 1], [4, 4]],
    )
    f = solve(prob, prime=P)
    assert f.coefficients == [0, 0, 1, 0]
    assert residuals(prob, f) == [0, 0, 0, 0]


def test_problem_json_round_trip():
    # f = 1 + x**2 through value and slope at 0 and at 1/2, as a file holds it
    doc = {"n": 1, "d": 3, "mode": "affine", "points": [[0], ["1/2"]],
           "directions": [[[1]], [[1]]], "values": [[1, 0], ["5/4", 1]]}
    prob = problem_from_json(json.loads(json.dumps(doc)))
    assert prob == InterpolationProblem(1, 3, [[0], [Fraction(1, 2)]], [[[1]], [[1]]],
                                        [[1, 0], [Fraction(5, 4), 1]])
    assert solve(prob).coefficients == [1, 0, 1, 0]


def test_problem_file_keeps_exact_scalars_and_records_the_prime():
    doc = {"n": 1, "d": 1, "points": [[0], ["1/3"]], "directions": [[], []],
           "values": [["1/2"], [1]], "prime": 31991}
    prob = problem_from_json(doc)
    assert prob.points == [[0], [Fraction(1, 3)]]
    assert prob.values == [[Fraction(1, 2)], [1]]
    assert prob.prime == 31991
    assert solve(prob).prime == 31991
    # f = 1/2 + 3x/2, and 1/2 = 4, 3/2 = 5 mod 7
    assert solve(prob, prime=7).coefficients == [4, 5]


def test_interpolant_json_scalars():
    f = Interpolant(1, 1, [Fraction(1, 2), Fraction(2)], None)
    doc = f.to_json()
    assert doc["coefficients"] == ["1/2", 2]
    assert doc["monomials"] == [[0], [1]]


def test_interpolant_evaluate():
    f = solve(hermite_line_problem())
    assert f.evaluate([Fraction(7, 2)]) == Fraction(7, 2)


def test_interpolant_evaluate_reads_points_exactly():
    f = Interpolant(1, 2, [Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)])
    # over Q a float point used to be evaluated in floating point
    exact = Fraction(1, 3) + Fraction(1, 2) / 10 + Fraction(5, 7) / 100
    assert f.evaluate([Fraction(1, 10)]) == f.evaluate(["1/10"]) == exact
    for bad in (0.1, True):
        with pytest.raises(TypeError):
            f.evaluate([bad])
    # over GF(p) a rational point is reduced as solve reduces problem scalars
    g = Interpolant(1, 2, [1, 2, 3], P)
    half = pow(2, -1, P)
    assert g.evaluate([Fraction(1, 2)]) == (1 + 2 * half + 3 * half * half) % P
    assert type(g.evaluate([Fraction(1, 2)])) is int
    assert g.evaluate([-1]) == g.evaluate([P - 1]) == 2
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            g.evaluate([bad])
    with pytest.raises(NoResidueError):
        g.evaluate([Fraction(1, P)])


def test_residuals_do_not_share_the_solvers_evaluator(monkeypatch):
    # a fault in the one condition-row evaluator (monomial columns 1 and 2
    # swapped) makes solve return x^2 for the line f(x) = x, over Q and mod p;
    # the residuals, evaluated by the reference rows, show it
    from ppinterp import schemes

    real = schemes._projective_rows

    def swapped(*args, **kwargs):
        rows = real(*args, **kwargs)
        rows[:, [1, 2]] = rows[:, [2, 1]]
        return rows

    monkeypatch.setattr(schemes, "_projective_rows", swapped)
    for prime in (None, P):
        f = solve(hermite_line_problem(), prime)
        assert f.coefficients == [0, 0, 1, 0]
        assert residuals(hermite_line_problem(), f) == [0, -1 if prime is None else P - 1, 0, 1]
