import math
import os
import random
import re
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppinterp import linalg
from ppinterp.gf import DEFAULT_PRIME, MAX_PRIME
from ppinterp.linalg import (
    InconsistentSystemError,
    SingularSystemError,
    echelon_mod,
    nullspace_dim,
    rank,
    rank_mod,
    rank_rows,
    solve_any,
    solve_square,
)
from ppinterp.monomials import AFFINE, build_basis
from ppinterp.schemes import _affine_rows, random_affine_problem

P = DEFAULT_PRIME


def test_rank_identity_and_zero():
    assert rank(np.eye(5, dtype=np.int64), P) == 5
    assert rank(np.zeros((4, 6), dtype=np.int64), P) == 0
    assert rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2
    assert rank([[0, 0, 0]]) == 0


def test_rank_row_permutation_and_scaling_invariance():
    rng = random.Random(21)
    for _ in range(200):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(m)])
        r = rank(a, P)
        perm = list(range(m))
        rng.shuffle(perm)
        b = a[perm].copy()
        i = rng.randrange(m)
        b[i] = b[i] * rng.randrange(1, P) % P
        assert rank(b, P) == r


def test_rank_transpose():
    rng = random.Random(22)
    for _ in range(50):
        m = rng.randint(1, 10)
        n = rng.randint(1, 10)
        a = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(m)])
        assert rank(a, P) == rank(a.T, P)


def _loop_ranks(rows, p):
    """The rank mod p by echelon_mod on the active loop (compiled when built) and on numpy's."""
    a = np.array(rows, dtype=np.int64)
    return [len(echelon_mod(a, a.shape[1], p)[1]),
            len(linalg._echelon_numpy(a % p, a.shape[1], p))]


def test_kernel_parity():
    # the active loop (compiled when built) and the numpy loop, each against
    # Python-int elimination
    rng = random.Random(23)
    for _ in range(100):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        a = [[rng.randrange(P) for _ in range(n)] for _ in range(m)]
        # low-rank products too, so that deficient ranks are exercised
        if rng.random() < 0.5:
            k = rng.randint(1, min(m, n))
            b = [[rng.randrange(P) for _ in range(k)] for _ in range(m)]
            c = [[rng.randrange(P) for _ in range(n)] for _ in range(k)]
            a = [[sum(x * y for x, y in zip(row, col)) % P for col in zip(*c)] for row in b]
        assert _loop_ranks(a, P) == [rank_rows(a, P)] * 2


def test_rational_rank_with_fractions():
    a = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(2, 1)],
        [Fraction(2, 1), Fraction(7, 3)],
    ]
    # row3 = row1 + row2, rows 1 and 2 independent
    assert rank(a) == 2


def test_solve_square_identity():
    rhs = [3, 1, 4]
    assert solve_square([[1, 0, 0], [0, 1, 0], [0, 0, 1]], rhs, P) == rhs


def test_solve_square_singular():
    with pytest.raises(SingularSystemError):
        solve_square([[0]], [1], P)
    with pytest.raises(SingularSystemError):
        solve_square([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], [1, 1])


def test_solve_square_hermite_fixture():
    # value/derivative conditions of the cubic through (0,0) and (1,1) with
    # slope 1 at both: the line f(x) = x
    m = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [1, 1, 1, 1],
        [0, 1, 2, 3],
    ]
    assert solve_square(m, [0, 1, 1, 1]) == [0, 1, 0, 0]


def test_solve_square_exactness():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
             for _ in range(n)]
        rhs = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        try:
            x = solve_square(m, rhs)
        except SingularSystemError:
            continue
        for row, b in zip(m, rhs):
            assert sum(c * v for c, v in zip(row, x)) == b


def test_solve_square_mod_p_exactness():
    rng = random.Random(32)
    for _ in range(20):
        n = rng.randint(1, 8)
        m = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
        rhs = [rng.randrange(P) for _ in range(n)]
        try:
            x = solve_square(m, rhs, P)
        except SingularSystemError:
            continue
        for row, b in zip(m, rhs):
            assert sum(c * v for c, v in zip(row, x)) % P == b


def test_nullspace_dim():
    assert nullspace_dim(np.eye(4, dtype=np.int64), P) == 0
    assert nullspace_dim(np.zeros((3, 7), dtype=np.int64), P) == 7
    assert nullspace_dim([[Fraction(1), Fraction(1)]]) == 1
    # an array with no rows keeps its columns: both fields read the width from its shape
    for prime in (P, None):
        assert nullspace_dim(np.zeros((0, 3), dtype=np.int64), prime) == 3


def test_solve_any_underdetermined():
    x = solve_any([[1, 1, 0]], [5], P)
    assert len(x) == 3 and (x[0] + x[1]) % P == 5 and x[2] == 0


def test_solve_any_inconsistent():
    with pytest.raises(InconsistentSystemError):
        solve_any([[1, 0], [1, 0]], [1, 2], P)
    with pytest.raises(InconsistentSystemError):
        solve_any([[Fraction(1)], [Fraction(1)]], [Fraction(0), Fraction(1)])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, P - 1), min_size=n, max_size=n),
            min_size=1, max_size=6,
        )
    ),
    st.integers(1, P - 1),
)
def test_rank_scaling_invariance_hypothesis(rows, scale):
    a = np.array(rows, dtype=np.int64)
    b = a.copy()
    b[0] = b[0] * scale % P
    assert rank(a, P) == rank(b, P)


# the largest prime below MAX_PRIME, where the int64 kernels have the least headroom
WORD_PRIMES = (3, P, 65521, 67108859)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(WORD_PRIMES).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(1, 7).flatmap(
                lambda n: st.lists(
                    st.lists(st.sampled_from((0, 1, p - 1, p // 2)) | st.integers(0, p - 1),
                             min_size=n, max_size=n),
                    min_size=1, max_size=7,
                )
            ),
        )
    )
)
def test_rank_matches_python_int_elimination_up_to_max_prime(case):
    # the loops directly: rank() itself sends matrices this small to rank_rows
    p, rows = case
    assert _loop_ranks(rows, p) == [rank_rows(rows, p)] * 2


def test_rank_refuses_primes_beyond_word_size():
    # 2**61 - 1 is prime, but (p-1)**2 overflows int64 and the rank came out wrong
    big = 2**61 - 1
    with pytest.raises(ValueError, match="2\\*\\*26"):
        rank([[1, 2], [3, 4]], big)
    with pytest.raises(ValueError):
        nullspace_dim([[1, 2]], MAX_PRIME)
    assert rank_rows([[1, 2], [2, 4]], big) == 1
    # the kernels called directly: rank_mod over-reported rank 20 at 2**31 - 1 (its
    # float64 block passed 2**53), and echelon_mod's int64 products wrapped at 2**61 - 1
    stack = np.random.default_rng(20).integers(0, 2**31 - 1, size=(8, 20, 20))
    stack[:, :, -1] = stack[:, :, 0] + stack[:, :, 1]
    assert [rank_rows(m.tolist(), big) for m in stack] == [19] * 8
    with pytest.raises(ValueError, match="2\\*\\*26"):
        rank_mod(stack, 2**31 - 1)
    for matrix in stack:
        with pytest.raises(ValueError, match="2\\*\\*26"):
            echelon_mod(matrix, 20, big)


def test_numpy_integer_primes_are_read_exactly():
    # the gate reads a numpy prime by operator.index: pow() in is_prime takes no numpy modulus
    rng = np.random.default_rng(22)
    stack = rng.integers(0, 67108859, size=(4, 12, 12))
    stack[:, :, -1] = stack[:, :, 0] + stack[:, :, 1]
    for p in (P, 67108859):
        for prime in (np.int64(p), np.uint32(p)):
            assert rank(np.eye(3, dtype=np.int64), prime) == 3
            assert rank_rows([[1, 2], [2, 4]], prime) == 1
            assert rank_mod(stack, prime).tolist() == rank_mod(stack, p).tolist() == [11] * 4
            assert echelon_mod(stack[0], 12, prime)[0].tolist() == (
                echelon_mod(stack[0], 12, p)[0].tolist())
            assert linalg.ranks(list(stack), prime) == [11] * 4
            assert solve_square([[2, 1], [1, 1]], [1, 2], prime) == solve_square(
                [[2, 1], [1, 1]], [1, 2], p)
    assert rank_rows([[1, 2], [2, 4]], np.int64(2**61 - 1)) == 1
    for bad in (9.0, 31991.0, "31991"):
        with pytest.raises(TypeError):
            rank([[1]], bad)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_solve_square_exact_or_singular_hypothesis(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    rhs = [Fraction(1), Fraction(2), Fraction(3)]
    try:
        x = solve_square(m, rhs)
    except SingularSystemError:
        assert rank(m) < 3
        return
    for row, b in zip(m, rhs):
        assert sum(c * v for c, v in zip(row, x)) == b


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 2), (4, 5), (10, 10), (11, 11),
                                   (20, 21)])
def test_rank_picks_its_path_by_work(monkeypatch, shape):
    m, n = shape
    seen = []
    monkeypatch.setattr(linalg, "echelon_mod",
                        lambda a, cols, p: seen.append(a.shape) or echelon_mod(a, cols, p))
    assert rank(np.eye(m, n, dtype=np.int64), P) == min(m, n)
    assert rank(np.eye(m, n, dtype=np.int64).tolist(), P) == min(m, n)
    kernel = m * n * min(m, n) > linalg._ROWS_WORK
    assert seen == ([shape, shape] if kernel else [])
    # the rationals never reach the int64 kernel
    eye = [[Fraction(v) for v in row] for row in np.eye(m, n, dtype=int).tolist()]
    assert rank(eye) == min(m, n)
    assert len(seen) == (2 if kernel else 0)


def test_prime_path_refuses_non_integer_entries():
    # a Fraction used to be truncated by int() before reduction mod p
    with pytest.raises(TypeError):
        rank_rows([[Fraction(1, 2), 1]], P)
    with pytest.raises(TypeError):
        solve_square([[Fraction(1, 2)]], [1], P)
    # Python bools are refused as a bool array is, on Python rows and in the kernels
    bools = [[True, False, True, True]] * 3 + [[False, True, False, False]]
    message = re.escape("GF(p) needs integer entries, not bool")
    for matrix in (bools, np.array(bools), bools * 3, [row * 3 for row in bools] * 3):
        with pytest.raises(TypeError, match=message):
            rank(matrix, 7)
        with pytest.raises(TypeError, match=message):
            linalg.ranks([matrix, matrix], 7)
    with pytest.raises(TypeError, match=message):
        rank_rows(bools, 7)
    with pytest.raises(TypeError, match=message):
        rank([[1, 2, 3, True] * 3] * 12, 7)  # mixed with ints, past the Python-row work
    with pytest.raises(TypeError, match=message):
        solve_square(bools, [1, 0, 1, 0], 7)
    with pytest.raises(TypeError, match=message):
        solve_square([[1, 0], [0, 1]], [True, 0], 7)
    assert rank([[int(v) for v in row] for row in bools], 7) == 2


def test_rational_path_refuses_inexact_entries():
    # Fraction() read 0.1 in binary: this rank was 2 and this solution 7205759403792793/2**55
    message = "Q needs exact entries"
    for bad in (0.1, np.float32(0.5), True, np.True_, 1j, np.complex128(1)):
        matrix = [[1, bad], [3, 1]]
        for call in (lambda: rank(matrix), lambda: rank_rows(matrix),
                     lambda: nullspace_dim(matrix), lambda: linalg.ranks([matrix, matrix]),
                     lambda: solve_square(matrix, [0, 1]), lambda: solve_any(matrix, [0, 1]),
                     lambda: solve_square([[1, 0], [0, 1]], [bad, 1]),
                     lambda: solve_any([[1, 0], [0, 1]], [0, bad])):
            with pytest.raises(TypeError, match=message):
                call()
    for dtype in (np.float64, np.float32, np.bool_, np.complex128):
        array = np.eye(3).astype(dtype)
        for call in (lambda: rank(array), lambda: rank_rows(array), lambda: nullspace_dim(array),
                     lambda: solve_square(array, [1, 2, 3]), lambda: solve_any(array, [1, 2, 3])):
            with pytest.raises(TypeError, match=f"{message}, not {array.dtype}"):
                call()
    with pytest.raises(TypeError, match=message):
        solve_square([[1] * 30 for _ in range(29)] + [[0.5] * 30], [1] * 30)  # the Dixon order
    # everything exact is still taken: ints, numpy ints, Fractions and integer arrays
    assert rank([[1, Fraction(1, 10)], [3, Fraction(3, 10)]]) == 1
    assert solve_square([[1, Fraction(1, 10)], [0, 1]], [Fraction(3, 10), 1]) == [Fraction(1, 5), 1]
    assert rank([[np.int64(2), np.uint8(1)], [np.int32(4), 2]]) == 1
    assert rank(np.array([[2, 1], [4, 3]], dtype=np.int16)) == 2
    assert rank(np.array([[Fraction(1, 2), 1], [1, 2]], dtype=object)) == 1
    assert solve_any(np.array([[2, 4]]), [np.int64(2)]) == [1, 0]


def _gauss_jordan(matrix, rhs):
    """Reference: Fraction Gauss-Jordan; (rank, solution with free variables 0 or None)."""
    n = len(matrix[0])
    rows = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [a / rows[r][c] for a in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [a - f * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    if any(row[n] for row in rows[len(pivots):]):
        return len(pivots), None
    x = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        x[c] = row[n]
    return len(pivots), x


def test_fraction_free_pivots_are_minors():
    # dividing each update by the previous pivot keeps every entry a minor of
    # the input, so the last pivot of a square matrix is its determinant
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 7)
        a = [[rng.randint(-9, 9) if rng.random() < 0.8 else 0 for _ in range(n)]
             for _ in range(n)]
        rows = [row[:] for row in a]
        pivots = linalg._echelon(rows, n, None)
        det = Fraction(1)
        m = [[Fraction(v) for v in row] for row in a]
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c]), None)
            if piv is None:
                det = 0
                break
            m[c], m[piv] = m[piv], m[c]
            det *= m[c][c] if piv == c else -m[c][c]
            for i in range(c + 1, n):
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        assert (len(pivots) == n) == (det != 0)
        if det:
            assert abs(rows[n - 1][n - 1]) == abs(det)


SCALARS = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=5)


@st.composite
def rational_systems(draw):
    """Rectangular or square, full rank or a product of rank k, maybe a zero column,
    with a reachable or an arbitrary right-hand side."""
    m = draw(st.integers(1, 6))
    n = m if draw(st.booleans()) else draw(st.integers(1, 6))
    cells = lambda rows, cols: draw(st.lists(st.lists(SCALARS, min_size=cols, max_size=cols),
                                             min_size=rows, max_size=rows))
    if draw(st.booleans()):
        a = cells(m, n)
    else:
        k = draw(st.integers(0, min(m, n)))
        b, c = cells(m, k), cells(k, n)
        a = [[sum((row[t] * c[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
             for row in b]
    zero = draw(st.none() | st.integers(0, n - 1))
    if zero is not None:
        for row in a:
            row[zero] = 0
    if draw(st.booleans()):
        x0 = cells(1, n)[0]
        rhs = [sum((v * w for v, w in zip(row, x0)), Fraction(0)) for row in a]
    else:
        rhs = cells(1, m)[0]
    return a, rhs


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_fraction_free_elimination_matches_gauss_jordan(system):
    a, rhs = system
    r, x = _gauss_jordan(a, rhs)
    assert rank(a) == r
    if x is None:
        with pytest.raises(InconsistentSystemError):
            solve_any(a, rhs)
    else:
        assert solve_any(a, rhs) == x
    if len(a) == len(a[0]):
        if r < len(a):
            with pytest.raises(SingularSystemError):
                solve_square(a, rhs)
        else:
            assert solve_square(a, rhs) == x


# ---------------------------------------------------------------------------
# Dixon lifting over Q and the echelon_mod path over GF(p)

def _augment(a, rhs):
    return linalg._int_rows([list(row) + [b] for row, b in zip(a, rhs)], None)


def _bareiss(a, rhs):
    return linalg._solve(_augment(a, rhs), len(a), None, square=True)


@st.composite
def nonsingular_rational_systems(draw):
    """Square systems just above the Dixon cut: integer or Fraction entries."""
    n = draw(st.integers(linalg._DIXON_ORDER, linalg._DIXON_ORDER + 3))
    scalars = draw(st.sampled_from([
        st.integers(-2**40, 2**40),
        st.integers(-9, 9),
        st.fractions(-99, 99, max_denominator=99),
    ]))
    a = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n))
    rhs = draw(st.lists(scalars, min_size=n, max_size=n))
    return a, rhs


@settings(max_examples=30, deadline=None)
@given(nonsingular_rational_systems())
def test_dixon_matches_bareiss(system):
    a, rhs = system
    try:
        expected = _bareiss(a, rhs)
    except SingularSystemError:
        with pytest.raises(SingularSystemError):
            solve_square(a, rhs)
        return
    assert linalg._dixon(_augment(a, rhs), len(a)) == expected
    assert solve_square(a, rhs) == expected


def _diagonal_system(lead):
    n = linalg._DIXON_ORDER
    a = [[lead if i == j == 0 else int(i == j) + (j == i + 1) for j in range(n)]
         for i in range(n)]
    rhs = list(range(1, n + 1))
    return a, rhs


@pytest.mark.parametrize("lead", [67108859, 67108859 * 67108837],
                         ids=["singular-mod-first-prime", "singular-mod-both-primes"])
def test_singular_mod_the_lifting_primes_but_not_over_q(lead):
    a, rhs = _diagonal_system(lead)
    x = solve_square(a, rhs)
    assert x == _bareiss(a, rhs)
    for row, b in zip(a, rhs):
        assert sum(c * v for c, v in zip(row, x)) == b
    # the next prime down lifts the first; Bareiss takes the second
    assert (linalg._dixon(_augment(a, rhs), len(a)) is None) == (lead % 67108837 == 0)


def test_singular_over_q_raises_the_bareiss_error():
    n = linalg._DIXON_ORDER + 3
    rng = random.Random(51)
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]
    a.append([x + 2 * y for x, y in zip(a[0], a[1])])
    rhs = [rng.randint(-9, 9) for _ in range(n)]
    with pytest.raises(SingularSystemError) as dixon_path:
        solve_square(a, rhs)
    with pytest.raises(SingularSystemError) as bareiss:
        _bareiss(a, rhs)
    assert str(dixon_path.value) == str(bareiss.value) == f"rank {n - 1} < order {n}"


def test_a_wrong_reconstruction_is_never_returned(monkeypatch):
    rng = random.Random(52)
    n = linalg._DIXON_ORDER + 2
    a = [[Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n)] for _ in range(n)]
    rhs = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n)]
    expected = _bareiss(a, rhs)
    proposed = []

    def wrong(residues, m):
        # the true numerators, but the last one off by one
        den = lcm(*(x.denominator for x in expected))
        nums = [int(x * den) for x in expected]
        nums[-1] += 1
        proposed.append(m)
        return nums, den

    monkeypatch.setattr(linalg, "_reconstruct", wrong)
    assert linalg._dixon(_augment(a, rhs), n) is None
    assert proposed, "the candidate was never proposed"
    assert solve_square(a, rhs) == expected


SMALL_P = 7


@st.composite
def gf_systems(draw):
    """Square, rank-deficient and inconsistent systems over GF(7)."""
    m = draw(st.integers(1, 12))
    n = m if draw(st.booleans()) else draw(st.integers(1, 12))
    residues = st.integers(0, SMALL_P - 1)
    if draw(st.booleans()):
        a = draw(st.lists(st.lists(residues, min_size=n, max_size=n), min_size=m, max_size=m))
    else:
        k = draw(st.integers(0, min(m, n)))
        b = draw(st.lists(st.lists(residues, min_size=k, max_size=k), min_size=m, max_size=m))
        c = draw(st.lists(st.lists(residues, min_size=n, max_size=n), min_size=k, max_size=k))
        a = [[sum(row[t] * c[t][j] for t in range(k)) % SMALL_P for j in range(n)] for row in b]
    rhs = draw(st.lists(residues, min_size=m, max_size=m))
    return a, rhs


def _back_substitute_rows(rows, pivots, n, p):
    """Reference: the solution mod p, free variables 0, of consistent rows from _echelon."""
    x = [0] * n
    for k in reversed(range(len(pivots))):
        row, c = rows[k], pivots[k]
        s = row[n] - sum(row[j] * x[j] for j in pivots[k + 1:])
        x[c] = s * pow(row[c], -1, p) % p
    return x


def _outcome(solver, *args):
    try:
        return solver(*args)
    except (SingularSystemError, InconsistentSystemError) as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(gf_systems())
def test_echelon_mod_matches_rows_elimination(system):
    a, rhs = system
    n = len(a[0])
    rows = [row + [b] for row, b in zip(a, rhs)]
    reduced, pivots = echelon_mod(np.array(rows, dtype=np.int64), n, SMALL_P)
    assert pivots == linalg._echelon(rows, n, SMALL_P)
    consistent = not any(row[n] for row in rows[len(pivots):])
    assert consistent == (not reduced[len(pivots):, n].any())
    # the public solvers, which eliminate by echelon_mod, against Python rows
    if consistent:
        x = _back_substitute_rows(rows, pivots, n, SMALL_P)
        assert linalg._back_substitute_mod(reduced, pivots, n, SMALL_P)[:, 0].tolist() == x
    else:
        x = (InconsistentSystemError, "no polynomial satisfies the assigned data")
    assert _outcome(solve_any, a, rhs, SMALL_P) == x
    if len(a) == n:
        singular = (SingularSystemError, f"rank {len(pivots)} < order {n}")
        assert _outcome(solve_square, a, rhs, SMALL_P) == (singular if len(pivots) < n else x)


# ---------------------------------------------------------------------------
# the batched exact rank

# The largest primes below 2**26 fill the delayed-reduction room of rank_mod
# in 8 updates, so matrices with 18 columns or more reduce their trailing
# block at least twice.
SCREEN_PRIMES = (2, 3, 5, 31991, 67104601, 67108859)


@st.composite
def residue_stacks(draw):
    """Same-shape stacks mod p: random members, products of rank-k factors
    (their columns shuffled, so dependent columns come at several steps),
    copies of earlier columns, and columns that are zero in every member;
    wide, tall (as the draw checks make them), square, 1x1, and orders from
    16 to 24; stacks of one member and of several."""
    p = draw(st.sampled_from(SCREEN_PRIMES))
    m, n = draw(st.sampled_from([(1, 1), (1, 4), (4, 1), (3, 7), (7, 3), (6, 6), (3, 2), (5, 3),
                                 (16, 16), (18, 18), (24, 20), (19, 24)])
                | st.tuples(st.integers(1, 8), st.integers(1, 8))
                | st.tuples(st.integers(16, 24), st.integers(16, 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "product", "copies"]))
        if kind == "product":
            k = draw(st.integers(0, min(m, n)))
            a = rng.integers(0, p, size=(m, k)) @ rng.integers(0, p, size=(k, n)) % p
            a = a[:, rng.permutation(n)]
        else:
            a = rng.integers(0, p, size=(m, n))
            if kind == "copies":  # some columns a multiple of an earlier one
                for j in range(1, n):
                    if rng.random() < 0.4:
                        a[:, j] = a[:, rng.integers(0, j)] * rng.integers(0, p) % p
        members.append(a)
    stack = np.array(members, dtype=np.int64)
    stack[:, :, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0
    return p, stack


@settings(max_examples=300, deadline=None)
@given(residue_stacks())
def test_full_rank_screen_matches_rows_elimination(case):
    p, stack = case
    expected = [rank_rows(a.tolist(), p) for a in stack]
    got = rank_mod(stack, p)
    assert got.dtype == np.int64 and got.tolist() == expected
    assert linalg.ranks(list(stack), p) == expected


def test_rank_mod_counts_dependent_columns_at_every_step():
    # column j of member k depends on the earlier ones iff j is in dead[k]
    p = 7
    rng = np.random.default_rng(4)
    dead = [(), (0,), (2,), (1, 2, 3), (4, 5), (0, 5), tuple(range(6))]
    stack = np.zeros((len(dead), 6, 6), dtype=np.int64)
    for k, cols in enumerate(dead):
        a = np.eye(6, dtype=np.int64)[:, rng.permutation(6)]
        for j in cols:
            a[:, j] = a[:, :j] @ rng.integers(0, p, size=j) % p if j else 0
        stack[k] = a
    assert rank_mod(stack, p).tolist() == [6 - len(cols) for cols in dead]
    assert rank_mod(stack.transpose(0, 2, 1), p).tolist() == [6 - len(cols) for cols in dead]
    # tall stacks of r rows over fewer columns, and empty ones, rank at most the columns
    assert rank_mod(np.ones((3, 4, 2), dtype=np.int64), p).tolist() == [1, 1, 1]
    assert rank_mod(np.zeros((2, 3, 0), dtype=np.int64), p).tolist() == [0, 0]
    assert rank_mod(np.zeros((0, 3, 3), dtype=np.int64), p).tolist() == []


@pytest.mark.parametrize("p", [7, 31991, 67108859])
def test_rank_mod_replaces_a_dependent_column_with_the_last_live_one(p):
    # A dependent column is overwritten by its matrix's last live column.
    # Members: dependent column first (zero), in the middle, at the last live
    # position (a copy onto itself), and two in one step (column 2 and the
    # column 7 that replaces it both depend on columns 0 and 1, so step 2
    # drops two); then three in one step, and the moved column dependent
    # only at a later step.
    rng = np.random.default_rng(p)
    n = 8

    def member(deps):
        a = rng.integers(0, p, size=(n + 2, n))
        for j, over in deps:
            a[:, j] = a[:, over] @ rng.integers(1, p, size=len(over)) % p if over else 0
        return a

    deps = [
        [(0, [])],
        [(4, [0, 1, 2, 3])],
        [(7, [0, 1, 2, 3, 4, 5, 6])],
        [(2, [0, 1]), (7, [0, 1])],
        [(2, [0, 1]), (7, [0, 1]), (6, [1])],
        [(2, [0, 1]), (7, [0, 1, 3])],
        [(0, []), (7, []), (3, [1, 2]), (6, [1, 2])],
        [],
    ]
    stack = np.array([member(d) for d in deps])
    expected = [rank_rows(a.tolist(), p) for a in stack]
    assert expected == [n - len(d) for d in deps]
    assert rank_mod(stack, p).tolist() == expected
    assert rank_mod(stack.transpose(0, 2, 1), p).tolist() == expected
    for a, r in zip(stack, expected):
        assert rank_mod(a[None], p).tolist() == [r]


@settings(max_examples=100, deadline=None)
@given(st.lists(residue_stacks(), min_size=1, max_size=4))
def test_ranks_of_mixed_shapes_match_rows_elimination(cases):
    # one prime per call: groups of one and several shapes in the same call
    p = cases[0][0]
    matrices = [a % p for _, stack in cases for a in stack]
    matrices += [a.tolist() for a in matrices[:2]]
    assert linalg.ranks(matrices, p) == [rank_rows(a, p) for a in matrices]


def test_screen_reads_multiples_of_p_near_2_52_as_zero():
    # The singular members' first updates are (p-1)**2 - 1 = p(p-2) and
    # (p-1)(p-2) - 2 = p(p-3), just below 2**52.  At p = 67104601, 1/p rounds
    # down and t*(1/p) lands below the quotient, so a reduction by floor would
    # read these multiples of p as p, a nonzero pivot, and certify them.
    p = 67104601
    t = (p - 1) ** 2 - 1
    assert t % p == 0 and t - p * math.floor(t * (1.0 / p)) == p
    for p in (67104601, 67108859):
        square = np.array([[[p - 1, 1], [1, p - 1]], [[p - 1, 2], [1, p - 2]],
                           [[p - 1, 1], [1, p - 2]]], dtype=np.int64)
        assert rank_mod(square, p).tolist() == [1, 1, 2]
        assert linalg.ranks(list(square), p) == [1, 1, 2]
        wide = np.array([[[p - 1, 1, 0], [1, p - 1, 0]], [[p - 1, 1, 1], [1, p - 1, 0]]],
                        dtype=np.int64)
        assert rank_mod(wide, p).tolist() == [1, 2]
        assert linalg.ranks(list(wide), p) == [1, 2]


@pytest.mark.parametrize("p", [67104601, 67108859])
def test_screen_reduces_the_trailing_block_exactly_near_2_26(p):
    # At these primes rank_mod reduces its trailing block after every 8
    # updates, so the order-24 stacks are reduced at columns 8 and 16.
    # Worst growth: A = L U with unit diagonals and (p-1)/2 off them, so each
    # update adds ((p-1)/2)**2 to every trailing entry; without those
    # reductions the entries pass 2**53 and the dependent columns read nonzero.
    rng = np.random.default_rng(p)
    half = (p - 1) // 2
    lower = np.tril(np.full((24, 24), half, dtype=object), -1) + np.eye(24, dtype=int)
    lu = (lower @ lower.T % p).astype(np.int64)
    worst = np.array([lu] * 3)
    worst[1, :, 18] = (lu[:, 3] + lu[:, 17]) % p
    worst[2, :, 23] = (lu[:, 0] + half * lu[:, 22]) % p
    stacks = [worst, np.full((2, 24, 24), p - 1), np.full((1, 24, 24), half)]
    grown = np.full((3, 24, 24), half)
    grown[:, np.arange(24), np.arange(24)] = [[p - 1], [half + 1], [1]]
    stacks.append(grown)
    mixed = rng.choice([half, half + 1, p - 1, 1], size=(4, 24, 20))
    mixed[1, :, 19] = (mixed[1, :, 3] + mixed[1, :, 17]) % p  # dependent after the reductions
    mixed[2, :, 11] = mixed[2, :, 2] * half % p
    stacks.append(mixed)
    product = rng.integers(0, p, size=(3, 24, 22)) @ rng.integers(0, p, size=(3, 22, 24)) % p
    stacks.append(product)  # rank 22 with its dependent columns at the end
    for stack in stacks:
        expected = [rank_rows(a.tolist(), p) for a in stack]
        assert rank_mod(stack, p).tolist() == expected
        assert rank_mod(stack.transpose(0, 2, 1), p).tolist() == expected
    assert rank_mod(worst, p).tolist() == [24, 23, 23]


@pytest.mark.parametrize("p", [2, 3, 31991, 67108859])
def test_rank_mod_entry_reduces_entries_of_any_size(p):
    # rank_mod casts its entries to float64 and reduces them there, unless one
    # lies beyond +-(2**53 - p): then it reduces them in int64 first.  Each
    # member's residues (random, a dependent row, a dependent column, all
    # zero) are lifted to integers of either sign near a top: 2**53 - p, the
    # largest the float path takes, or 2**62.  Some entries are then set to
    # small negative values and values >= p, and the random member gets
    # entries at exactly +-top.  A dependency survives only if every multiple
    # of p reads as exactly 0.
    rng = np.random.default_rng(p)
    limit = 2**53 - p

    def lift(r, top):
        """Integers congruent to the residues r, within 4p below top, of random sign."""
        sign = rng.choice([1, -1], size=r.shape)
        r = np.where(sign > 0, r, -r % p)
        return sign * (r + p * ((top - r) // p - rng.integers(0, 4, size=r.shape)))

    for m, n in ((7, 4), (4, 7), (6, 6), (1, 3), (3, 1)):
        for top in (limit, 2**62):
            residues = rng.integers(0, p, size=(5, m, n))
            residues[1, -1] = residues[1, 0] * 2 % p
            residues[2, :, -1] = residues[2, :, 0] * (p - 1) % p
            residues[3] = 0
            stack = lift(residues, top)
            small = rng.random(stack.shape) < 0.2
            stack[small] = residues[small] + p * rng.integers(-3, 4, size=small.sum())
            edge = rng.random((m, n)) < 0.3
            stack[4][edge] = rng.choice([top, -top], size=edge.sum())
            assert np.abs(stack).max() <= top
            expected = [rank_rows(a.tolist(), p) for a in stack]
            assert expected[3] == 0
            assert (m == 1 or expected[1] < m) and (n == 1 or expected[2] < n)
            assert rank_mod(stack, p).tolist() == expected
            assert rank_mod(stack.transpose(0, 2, 1), p).tolist() == expected
            for one_sign in (np.abs(stack), -np.abs(stack)):  # the min or the max alone is large
                assert rank_mod(one_sign, p).tolist() == [rank_rows(a.tolist(), p)
                                                          for a in one_sign]


def test_gf_kernels_refuse_inexact_dtypes():
    # rank_mod once read 0.5 as a residue and gave rank 2; echelon_mod truncated it to 0
    halves = [[0.5, 1.0], [1.0, 2.0]]
    with pytest.raises(TypeError):
        rank_mod(np.array([halves]), 7)
    with pytest.raises(TypeError):
        echelon_mod(halves, 2, 7)
    for dtype in (np.float64, np.float32, np.bool_, np.complex128, object):
        matrix = np.array(halves).astype(dtype)
        with pytest.raises(TypeError):
            rank_mod(matrix[None], 7)
        with pytest.raises(TypeError):
            echelon_mod(matrix, 2, 7)
    with pytest.raises(TypeError):  # a Python int beyond int64 makes an object array
        echelon_mod([[2**70, 1], [1, 1]], 2, 7)
    # integer dtypes of every width pass, and uint64 above 2**63 is reduced, not wrapped
    ones = np.array([[1, 2], [2, 4]])
    for dtype in (np.int8, np.uint8, np.int16, np.uint32, np.int64, np.uint64):
        assert rank_mod(ones.astype(dtype)[None], 7).tolist() == [1]
        assert echelon_mod(ones.astype(dtype), 2, 7)[1] == [0]
    top = np.array([[2**64 - 1, 1], [1, 1]], dtype=np.uint64)  # 2**64 - 1 = 1 mod 7, rank 1
    assert rank_rows(top.tolist(), 7) == 1  # wrapped to -1, the first row would be independent
    assert rank_mod(top[None], 7).tolist() == [1]
    assert echelon_mod(top, 2, 7)[1] == [0]
    # an empty matrix has no entry to round, whatever its dtype
    assert rank_mod(np.zeros((2, 0, 3)), 7).tolist() == [0, 0]
    assert echelon_mod(np.zeros((0, 2)), 2, 7)[1] == []


@pytest.mark.parametrize("p", [2, 7, 31991, 65521])
def test_inverse_table_matches_pow(p):
    # every residue, as the symmetric lead x - p and as x itself
    x = np.arange(1, p)
    expected = [pow(v, -1, p) for v in x.tolist()]
    assert linalg._inverses(x, p).tolist() == expected
    assert linalg._inverses(x - p, p).tolist() == expected
    assert linalg._inverses(np.zeros(3, dtype=np.intp), p).tolist() == [0, 0, 0]


@pytest.mark.parametrize("p", [65537, 1000003, 67104601, 67108859])
def test_inverses_above_the_table_cap_match_pow(p):
    assert p >= linalg._TABLE_PRIMES
    x = np.random.default_rng(p).integers(-(p // 2), p // 2 + 1, size=500)
    x[:3] = [0, 1, -1]
    tables = linalg._inverse_table.cache_info().misses
    got = linalg._inverses(x, p)
    assert got.tolist() == [pow(int(v), -1, p) if v else 0 for v in x]
    assert linalg._inverse_table.cache_info().misses == tables  # no table above the cap


def test_importing_the_package_builds_no_inverse_table():
    import subprocess
    import sys

    code = ("import ppinterp, ppinterp.cli;"
            "from ppinterp.linalg import _inverse_table;"
            "assert _inverse_table.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


@pytest.mark.parametrize("order", [3, 11])  # Python rows and the kernel
def test_rank_refuses_non_integer_dtypes(order):
    # float entries used to be truncated on the kernel path: 0.5 read as 0, rank 0
    for dtype in (np.float64, np.float32, np.bool_, np.complex128):
        matrix = np.full((order, order), 0.5).astype(dtype)
        with pytest.raises(TypeError):
            rank(matrix, P)
        with pytest.raises(TypeError):
            linalg.ranks([matrix, matrix], P)
    halves = np.full((order, order), 0.5).tolist()
    with pytest.raises(TypeError):
        rank(halves, P)
    with pytest.raises(TypeError):
        linalg.ranks([halves, halves], P)
    fractions = np.full((order, order), Fraction(1, 2), dtype=object)
    with pytest.raises(TypeError):
        rank(fractions, P)
    with pytest.raises(TypeError):
        linalg.ranks([fractions, fractions], P)


def test_rank_reads_wide_integers_exactly():
    # uint64 entries above 2**63 and Python ints beyond int64 are reduced, not wrapped
    rng = random.Random(5)
    rows = [[rng.randrange(2**64) for _ in range(12)] for _ in range(11)]
    rows[10] = [(a + b) % 2**64 for a, b in zip(rows[0], rows[1])]  # dependent mod 2**64, not mod P
    expected = rank_rows(rows, P)
    assert rank(np.array(rows, dtype=np.uint64), P) == expected
    assert linalg.ranks([np.array(rows, dtype=np.uint64)] * 2, P) == [expected] * 2
    big = [[v << 70 for v in row] for row in rows]
    assert rank(np.array(big, dtype=object), P) == rank(big, P) == rank_rows(big, P)
    # two same-shape object matrices beyond int64 are ranked together, not skipped
    pair = [np.array(big, dtype=object), np.array(big[::-1][:10] + [big[3]], dtype=object)]
    assert linalg.ranks(pair, P) == [rank_rows(a.tolist(), P) for a in pair]
    halves = np.array(big, dtype=object)
    halves[2, 3] = Fraction(1, 2)
    with pytest.raises(TypeError):
        linalg.ranks([halves, halves.copy()], P)
    # narrow integer dtypes are widened, not reduced in their own width
    small = np.array(rows, dtype=np.uint64) % 100
    expected = rank_rows(small.tolist(), P)
    for dtype in (np.int8, np.uint8, np.int16, np.uint32):
        assert rank(small.astype(dtype), P) == expected
        assert linalg.ranks([small.astype(dtype)] * 2, P) == [expected] * 2


def test_ranks_screens_only_numpy_gf_groups(monkeypatch):
    # the batched rank runs on the numpy kernel only: pinned, so a built checkout tests it too
    monkeypatch.setattr(linalg, "KERNEL", "python")
    screened = []
    monkeypatch.setattr(linalg, "rank_mod",
                        lambda stack, p: screened.append(stack.shape) or rank_mod(stack, p))
    eye, other = np.eye(4, dtype=np.int64), np.eye(3, 5, dtype=np.int64)
    assert linalg.ranks([eye, other, eye.tolist()], P) == [4, 3, 4]
    assert screened == [(2, 4, 4)]  # the 3x5 is alone in its shape
    # over Q and on the compiled kernel rank decides; non-integer entries are refused
    screened.clear()
    fractions = [[Fraction(1, 2), 0], [0, 1]]
    assert linalg.ranks([eye.tolist(), eye.tolist()]) == [4, 4]
    with pytest.raises(TypeError):
        linalg.ranks([fractions, fractions], P)
    monkeypatch.setattr(linalg, "KERNEL", "c")
    assert linalg.ranks([eye, eye], P) == [4, 4]
    assert screened == []
    with pytest.raises(ValueError, match="2\\*\\*26"):
        linalg.ranks([eye, eye], MAX_PRIME + 1)


def test_ranks_chunks_large_groups(monkeypatch):
    monkeypatch.setattr(linalg, "KERNEL", "python")
    screened = []
    monkeypatch.setattr(linalg, "_SCREEN_CELLS", 100)
    monkeypatch.setattr(linalg, "rank_mod",
                        lambda stack, p: screened.append(len(stack)) or rank_mod(stack, p))
    stack = [np.eye(5, dtype=np.int64)] * 9
    assert linalg.ranks(stack, P) == [5] * 9
    assert screened == [3, 3, 3]


def test_gf_solvers_take_integer_arrays():
    rng = np.random.default_rng(3)
    a = rng.integers(0, P, size=(6, 6))
    rhs = rng.integers(0, P, size=6).tolist()
    for solver in (solve_square, solve_any):
        x = solver(a, rhs, P)
        assert x == solver(a.tolist(), rhs, P)
        assert x == solver(a.astype(np.int32) - P, rhs, P)  # reduced by one % p
        with pytest.raises(TypeError):
            solver(a.astype(float), rhs, P)
    # every integer dtype, as rank takes it: int8 and uint8 arrays failed at both
    # primes, and int16 ones at 65521, when the prime was cast to the array's dtype
    small = rng.integers(0, 100, size=(6, 6))
    for p in (31991, 65521):
        for solver in (solve_square, solve_any):
            expected = solver(small.tolist(), rhs, p)
            for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint64):
                assert solver(small.astype(dtype), rhs, p) == expected, (p, dtype)


def test_every_entry_refuses_a_matrix_that_is_not_2d():
    # a (1, 2, 2) array gave TypeError from rank, rank_rows and solve_any, and
    # ValueError from ranks and solve_square
    for bad in (np.arange(4), np.arange(4).reshape(1, 2, 2), np.zeros((12, 12, 12), dtype=np.int32)):
        for prime in (None, P):
            calls = [lambda: rank(bad, prime), lambda: linalg.ranks([bad, bad], prime),
                     lambda: rank_rows(bad, prime), lambda: nullspace_dim(bad, prime),
                     lambda: solve_square(bad, [1] * len(bad), prime),
                     lambda: solve_any(bad, [1] * len(bad), prime)]
            for call in calls:
                with pytest.raises(ValueError, match="expected a 2-d matrix"):
                    call()
        with pytest.raises(ValueError, match="expected a 2-d matrix"):
            echelon_mod(bad, 1, P)


# ---------------------------------------------------------------------------
# moduli that are not primes

@pytest.mark.parametrize("modulus", [0, 1, 9, -7])
def test_every_gf_entry_point_refuses_a_non_prime_modulus(modulus):
    # a composite modulus used to give silent wrong ranks: rank(I_12, 0) == 0,
    # rank(3 I_2, 9) == 2, and rank(3 I_12, 9) == 12 on the compiled kernel
    small, big = [[3, 0], [0, 3]], 3 * np.eye(12, dtype=np.int64)
    calls = [lambda: rank(small, modulus), lambda: rank(big, modulus),
             lambda: rank(np.eye(12, dtype=np.int64), modulus),
             lambda: linalg.ranks([big, big], modulus), lambda: rank_rows(small, modulus),
             lambda: nullspace_dim(small, modulus), lambda: nullspace_dim(big, modulus),
             lambda: solve_square(small, [1, 1], modulus),
             lambda: solve_any(small, [1, 1], modulus),
             lambda: solve_square(big, [1] * 12, modulus),
             lambda: rank_mod(np.stack([big, big]), modulus),
             lambda: echelon_mod(big, 12, modulus)]
    for call in calls:
        with pytest.raises(ValueError, match=f"modulus {modulus} "):
            call()


# ---------------------------------------------------------------------------
# the compiled loop of echelon_mod, built from _gfcore.c for this test

@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The extension built from the shipped C source, loaded under a private name."""
    import importlib.util
    import shutil
    import sysconfig
    from pathlib import Path

    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build _gfcore.c")
    from setuptools import Distribution, Extension

    out = tmp_path_factory.mktemp("gfcore")
    source = Path(linalg.__file__).with_name("_gfcore.c")
    dist = Distribution({"ext_modules": [Extension("_gfcore", [str(source)])]})
    build = dist.get_command_obj("build_ext")
    build.build_lib, build.build_temp = str(out), str(out / "tmp")
    build.ensure_finalized()
    build.run()
    spec = importlib.util.spec_from_file_location("_ppinterp_parity._gfcore",
                                                  build.get_ext_fullpath("_gfcore"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.echelon_inplace


def _matrices(rng, p):
    """Random, low-rank and structured residue matrices mod p, with their ncols."""
    for _ in range(60):
        m, n = rng.randint(0, 11), rng.randint(0, 11)
        a = np.array([[0 if rng.random() < 0.4 else rng.randrange(p) for _ in range(n)]
                      for _ in range(m)], dtype=np.int64).reshape(m, n)
        yield a, rng.randint(0, n)
        if m and n:
            k = rng.randint(1, min(m, n))
            b = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(m)], dtype=object)
            c = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(k)], dtype=object)
            yield (b @ c % p).astype(np.int64), n
    yield np.eye(5, 9, dtype=np.int64), 9
    yield np.full((6, 4), p - 1, dtype=np.int64), 4
    yield np.zeros((3, 7), dtype=np.int64), 7
    yield np.zeros((0, 0), dtype=np.int64), 0


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 31991, 67108859])
def test_compiled_loop_matches_the_numpy_loop(compiled, p):
    rng = random.Random(p)
    for a, ncols in _matrices(rng, p):
        c_rows, np_rows = a.copy(), a.copy()
        pivots = compiled(c_rows, ncols, p)
        assert pivots == linalg._echelon_numpy(np_rows, ncols, p)
        assert c_rows.tobytes() == np_rows.tobytes()
        assert len(pivots) == rank_rows(a[:, :ncols].tolist(), p)


def _reducing_loop(arr, ncols, p):
    """echelon_mod's numpy loop as it was before its reductions were delayed: every
    update reduced mod p.  The byte oracle of the delayed loop."""
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


@pytest.fixture(scope="module")
def condition_rows():
    """Condition matrices mod P: ``verify -n 4 -d 5`` with 25 full tangents
    (125x126), n = 3, d = 5 (54x56), and pattern a, five double points on
    quartics in the plane (15x15, rank 14)."""
    out = []
    for n, d, profile in ((4, 5, (4,) * 25), (3, 5, (3,) * 13 + (1,)), (2, 4, (2,) * 5)):
        prob = random_affine_problem(n, d, profile, prime=P, seed=1)
        out.append(_affine_rows(prob, build_basis(AFFINE, n, d), P)[0])
    assert [a.shape for a in out] == [(125, 126), (54, 56), (15, 15)]
    assert rank_rows(out[2], P) == 14
    return out


def _oracle_cases(condition_rows, p):
    """The condition matrices read mod p, augmented [A | b] and [A | I] systems,
    tall, wide, zero-column and empty matrices, each with its ncols."""
    big, mid, quartic = (a % p for a in condition_rows)
    rng = np.random.default_rng(p)
    yield big, 126
    yield mid, 56
    yield quartic, 15
    for a in (big[:, :125], quartic):
        k = len(a)
        yield np.hstack([a, rng.integers(0, p, size=(k, 1))]), k
        yield np.hstack([a, np.eye(k, dtype=np.int64)]), k
    yield np.ascontiguousarray(big.T), 125
    yield mid[:20].copy(), 56
    zeros = mid.copy()
    zeros[:, [0, 7, 30, 55]] = 0
    yield zeros, 56
    for shape in ((0, 0), (0, 7), (7, 0)):
        yield np.zeros(shape, dtype=np.int64), shape[1]


@pytest.mark.parametrize("room", [None, 1, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 31991, 65521, 67108859])
def test_numpy_loop_matches_the_reducing_loop(condition_rows, monkeypatch, p, room):
    # at the real bound the trailing block is reduced only after 2047 or more
    # updates; a bound with room for 1 or 2 updates reduces it every step or two
    if room is not None:
        monkeypatch.setattr(linalg, "_INT64_MAX", p + (room + 1) * (p - 1) ** 2)
    for a, ncols in _oracle_cases(condition_rows, p):
        delayed, reduced = a.copy(), a.copy()
        assert linalg._echelon_numpy(delayed, ncols, p) == _reducing_loop(reduced, ncols, p)
        assert delayed.tobytes() == reduced.tobytes()


def _refuses_bad_ncols():
    for a, ncols in ((np.eye(3, dtype=np.int64), -1), (np.zeros((4, 3), dtype=np.int64), 5)):
        with pytest.raises(ValueError, match=f"ncols {ncols} is outside \\[0, 3\\]"):
            echelon_mod(a, ncols, 7)


def test_echelon_mod_refuses_ncols_outside_the_columns(monkeypatch):
    # the numpy loop read ncols -1 as no column (rank 0 for the identity) and
    # raised IndexError past the last column; the compiled loop refused both
    monkeypatch.setattr(linalg, "echelon_inplace", linalg._echelon_numpy)
    _refuses_bad_ncols()


def test_compiled_echelon_mod_refuses_ncols_outside_the_columns(compiled, monkeypatch):
    monkeypatch.setattr(linalg, "echelon_inplace", compiled)
    _refuses_bad_ncols()


def test_compiled_loop_refuses_bad_buffers(compiled):
    read_only = np.zeros((3, 3), dtype=np.int64)
    read_only.flags.writeable = False
    for bad in (np.zeros(3, dtype=np.int64), np.zeros((3, 6), dtype=np.int64)[:, ::2],
                np.zeros((3, 3), dtype=np.int64).T[:2], read_only,
                np.zeros((3, 3), dtype=np.int32), np.zeros((3, 3)), [[1, 0], [0, 1]]):
        with pytest.raises(ValueError):
            compiled(bad, 1, 7)
    square = np.eye(3, dtype=np.int64)
    for p in (0, 1, -7, 2**26, 2**61 - 1):
        with pytest.raises(ValueError):
            compiled(square, 3, p)
    for ncols in (-1, 4):
        with pytest.raises(ValueError):
            compiled(square, ncols, 7)
    with pytest.raises(ValueError):
        compiled(square * 7, 3, 7)  # entries must already be residues
    assert square.tolist() == np.eye(3, dtype=int).tolist()


def test_public_entry_points_on_the_compiled_loop(compiled, monkeypatch):
    rng = np.random.default_rng(9)
    a = rng.integers(0, P, size=(14, 14))
    a[13] = (a[0] + 2 * a[1]) % P
    rhs = (a @ rng.integers(0, P, size=14) % P).tolist()
    expected = (rank(a, P), linalg.ranks([a, a[:12]], P), solve_square(a[:13, :13], rhs[:13], P),
                solve_any(a, rhs, P))
    monkeypatch.setattr(linalg, "echelon_inplace", compiled)
    monkeypatch.setattr(linalg, "KERNEL", "c")
    monkeypatch.setattr(linalg, "_ROWS_WORK", 0)
    assert (rank(a, P), linalg.ranks([a, a[:12]], P), solve_square(a[:13, :13], rhs[:13], P),
            solve_any(a, rhs, P)) == expected
    assert expected[0] == rank_rows(a, P) == 13


def test_a_stale_extension_falls_back_to_the_numpy_loop():
    # an extension without echelon_inplace (the old Cython build) must not be used
    import subprocess
    import sys

    code = ("import sys, types; sys.modules['ppinterp._gfcore'] = types.ModuleType('stale');"
            "from ppinterp import linalg;"
            "assert linalg.KERNEL == 'python';"
            "assert linalg.echelon_inplace is linalg._echelon_numpy;"
            "assert linalg.rank([[1, 2, 3]] * 11 + [[0, 0, 1]], 7) == 2")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
