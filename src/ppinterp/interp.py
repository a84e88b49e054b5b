"""Exact solver for the affine partial interpolation problem.

Given points, direction sets and assigned values (value at the point plus
one derivative per direction), the solver returns the interpolating
polynomial of degree <= d, or raises with a structural diagnosis when the
system is singular.  Rational arithmetic is the default; pass a prime for
the (much faster) finite-field path -- the choice is always explicit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg, theory
from .gf import as_fraction, check_modulus, inv_mod, scalar_to_json
from .monomials import AFFINE, build_basis, derivative_row, eval_row
from .schemes import (
    InterpolationProblem,
    _affine_rows,
    condition_rhs,
    integer_system_affine,
)


class SingularProblemError(linalg.SingularSystemError):
    """Square system with no unique interpolant; carries a structural diagnosis."""

    def __init__(self, exception_id, diagnosis):
        super().__init__(diagnosis)
        self.exception_id = exception_id
        self.diagnosis = diagnosis


class InconsistentProblemError(linalg.InconsistentSystemError):
    """The assigned values admit no polynomial of the requested degree."""


class NoResidueError(ValueError):
    """A problem scalar has no residue mod the chosen prime: the prime divides its denominator."""


@dataclass
class Interpolant:
    n: int
    d: int
    coefficients: list  # graded-lex order, matching build_basis(AFFINE, n, d)
    prime: int | None = None

    def basis(self):
        return build_basis(AFFINE, self.n, self.d)

    def evaluate(self, point):
        """The exact value at ``point``, read as ``solve`` reads problem scalars."""
        row = eval_row(self.basis(), [_residue(x, self.prime) for x in point], self.prime)
        total = sum(c * r for c, r in zip(self.coefficients, row))
        return total % self.prime if self.prime is not None else total

    def to_json(self):
        return {
            "schema_version": 1,
            "n": self.n,
            "d": self.d,
            "prime": self.prime,
            "monomials": [list(e) for e in self.basis().exponents],
            "coefficients": [scalar_to_json(c) for c in self.coefficients],
        }


def _residue(v, p: int | None):
    # rationals embed in GF(p) as num * den^-1 when p does not divide den;
    # over Q (p None) the scalar is read exactly
    f = as_fraction(v)
    if p is None:
        return f
    if f.denominator % p == 0:
        raise NoResidueError(f"{f} has no residue mod {p}")
    return f.numerator * inv_mod(f.denominator, p) % p


def _reduce_problem(prob: InterpolationProblem, p: int | None) -> InterpolationProblem:
    return InterpolationProblem(
        prob.n, prob.d,
        [[_residue(x, p) for x in pt] for pt in prob.points],
        [[[_residue(x, p) for x in v] for v in ds] for ds in prob.directions],
        [[_residue(x, p) for x in vs] for vs in prob.values],
        prime=p,
    )


def diagnose_profile(n: int, d: int, a) -> str:
    """Name the structural reason a square system can be singular, if any."""
    prediction = theory.predict_profile(n, d, a)
    return prediction.exception_id if prediction.exceptional else "degenerate data"


def solve(prob: InterpolationProblem, prime: int | None = None,
          mode: str = "unique") -> Interpolant:
    """Solve the interpolation problem exactly.

    ``mode='unique'`` requires as many conditions as coefficients and raises
    SingularProblemError (with the matching structural diagnosis) when the
    square matrix is rank deficient.  ``mode='any'`` accepts under- and
    overdetermined data: it returns some solution of a consistent system
    (free coefficients zero) and raises InconsistentProblemError otherwise.
    """
    if prob.values is None:
        raise ValueError("solving needs assigned values")
    if prime is None:
        prime = prob.prime
    basis = build_basis(AFFINE, prob.n, prob.d)
    if prime is not None:
        check_modulus(prime)
        prob = _reduce_problem(prob, prime)
        matrix = _affine_rows(prob, basis, prime)[0]
        rhs = condition_rhs(prob)
    else:
        matrix, rhs = integer_system_affine(prob, basis)

    if mode == "unique":
        if len(matrix) != len(basis):
            raise ValueError(
                f"unique mode needs {len(basis)} conditions, got {len(matrix)}"
                " (use mode='any' for non-square problems)"
            )
        try:
            coeffs = linalg.solve_square(matrix, rhs, prime)
        except linalg.SingularSystemError:
            diag = diagnose_profile(prob.n, prob.d, prob.a_profile)
            raise SingularProblemError(
                diag if diag != "degenerate data" else None,
                f"no unique interpolant: {diag}",
            ) from None
    elif mode == "any":
        if not len(matrix):
            zero = 0 if prime is not None else Fraction(0)
            return Interpolant(prob.n, prob.d, [zero] * len(basis), prime)
        try:
            coeffs = linalg.solve_any(matrix, rhs, prime)
        except linalg.InconsistentSystemError:
            diag = diagnose_profile(prob.n, prob.d, prob.a_profile)
            raise InconsistentProblemError(
                f"assigned values are unreachable ({diag})"
            ) from None
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return Interpolant(prob.n, prob.d, coeffs, prime)


@dataclass
class PredictSolveResult:
    prediction: theory.Prediction
    interpolant: Interpolant | None
    diagnosis: str | None


def predict_then_solve(prob: InterpolationProblem, prime: int | None = None) -> PredictSolveResult:
    """Run the structural predictor, then attempt the solve and report both.

    A unique solution is attempted only when the prediction supports one
    (square and not exceptional); otherwise the solver runs in 'any' mode so
    that the actual outcome (solution or inconsistency) is still reported.
    """
    prediction = theory.predict_profile(prob.n, prob.d, prob.a_profile)
    square = prob.condition_count() == comb(prob.n + prob.d, prob.d)
    mode = "unique" if square and not prediction.exceptional else "any"
    try:
        interpolant = solve(prob, prime, mode)
        return PredictSolveResult(prediction, interpolant, None)
    except (SingularProblemError, InconsistentProblemError) as err:
        return PredictSolveResult(prediction, None, str(err))


def residuals(prob: InterpolationProblem, f: Interpolant) -> list:
    """Exact residuals of every assigned condition against the interpolant.

    Each condition is evaluated by the reference rows of ``monomials``
    (``eval_row``, ``derivative_row``) on the problem read as ``solve``
    reads it, so the check does not share the evaluator of the matrix the
    solver eliminated.
    """
    if (prob.n, prob.d) != (f.n, f.d):
        raise ValueError("basis/problem mismatch")
    condition_rhs(prob)  # a problem without values is refused first
    prob, basis, p = _reduce_problem(prob, f.prime), f.basis(), f.prime
    rows, out = [], []
    for pt, ds in zip(prob.points, prob.directions):
        rows += [eval_row(basis, pt, p)] + [derivative_row(basis, pt, v, p) for v in ds]
    for row, b in zip(rows, condition_rhs(prob)):
        r = sum(c * v for c, v in zip(f.coefficients, row)) - b
        out.append(r % p if p is not None else r)
    return out


# ---------------------------------------------------------------------------
# JSON problem shape: {n, d, mode, points, directions, values, prime?}

def problem_from_json(doc) -> InterpolationProblem:
    """The problem with exact scalars; a ``"prime"`` is recorded, and the solve reduces."""
    if doc.get("mode", AFFINE) != AFFINE:
        raise ValueError("only affine problems are solvable")
    n, d = doc["n"], doc["d"]
    for name, value in (("n", n), ("d", d)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    points = [[as_fraction(x) for x in p] for p in doc["points"]]
    directions = [[[as_fraction(x) for x in v] for v in ds] for ds in doc["directions"]]
    values = doc.get("values")
    if values is not None:
        values = [[as_fraction(x) for x in vs] for vs in values]
    prime = doc.get("prime")
    if prime is not None and (isinstance(prime, bool) or not isinstance(prime, int)):
        raise TypeError(f"prime must be an integer, got {prime!r}")
    return InterpolationProblem(n, d, points, directions, values, prime)


def problem_to_json(prob: InterpolationProblem) -> dict:
    doc = {
        "n": prob.n,
        "d": prob.d,
        "mode": AFFINE,
        "points": [[scalar_to_json(x) for x in p] for p in prob.points],
        "directions": [[[scalar_to_json(x) for x in v] for v in ds] for ds in prob.directions],
    }
    if prob.values is not None:
        doc["values"] = [[scalar_to_json(x) for x in vs] for vs in prob.values]
    if prob.prime is not None:
        doc["prime"] = prob.prime
    return doc


def load_problem(path) -> InterpolationProblem:
    with open(path) as fh:
        return problem_from_json(json.load(fh))
