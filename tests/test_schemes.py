import dataclasses
import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppinterp.gf import DEFAULT_PRIME
from ppinterp.linalg import nullspace_dim, rank, rank_rows, stack_ranks
from ppinterp.monomials import (
    AFFINE,
    HOMOGENEOUS,
    CoordinateSubspace,
    build_basis,
    derivative_row,
    eval_row,
    jacobian_block,
    vanishing_basis,
)
from ppinterp import schemes
from ppinterp.schemes import (
    GENERAL,
    _affine_rows,
    _randbelow_stream,
    _stream_is_randrange,
    ComponentInstance,
    ComponentSpec,
    DegenerateDrawError,
    InterpolationProblem,
    ProjectiveDraw,
    SchemeInstance,
    condition_matrices,
    condition_matrix_affine,
    condition_matrix_projective,
    condition_rhs,
    integer_system_affine,
    hilbert_function,
    random_affine_problem,
    random_instance,
)

P = DEFAULT_PRIME
L = CoordinateSubspace({0, 1, 2})
M = CoordinateSubspace({3, 4, 5})
N = CoordinateSubspace({6, 7, 8})


# ---------------------------------------------------------------------------
# affine condition matrices

def test_affine_full_double_point_rows():
    prob = random_affine_problem(3, 2, (3,), seed=1)
    m = condition_matrix_affine(prob, prime=P)
    assert len(m) == 4  # value row plus one per direction


def test_affine_lagrange_single_row():
    prob = random_affine_problem(3, 2, (0,), seed=1)
    assert len(condition_matrix_affine(prob, prime=P)) == 1


def test_affine_five_double_points_deficient():
    # the classical deficient quartic configuration: 15 conditions, rank 14
    for seed in (1, 2, 3):
        prob = random_affine_problem(2, 4, (2, 2, 2, 2, 2), seed=seed)
        m = condition_matrix_affine(prob, prime=P)
        assert len(m) == 15 and len(m[0]) == 15
        assert rank(m, P) == 14


def test_affine_direction_count_rejected():
    with pytest.raises(ValueError):
        InterpolationProblem(2, 3, [[0, 0]], [[[1, 0], [0, 1], [1, 1]]])


def test_affine_ah_setting_small_sweep():
    # every full-tangent configuration away from the known deficiencies fills
    # its conditions: n <= 3, d <= 4, k(n+1) <= C(n+d,d)
    from math import comb

    for n in range(1, 4):
        for d in range(1, 5):
            cap = comb(n + d, d)
            for k in range(1, cap // (n + 1) + 1):
                if d == 2 and k >= 2:
                    continue  # quadric deficiencies
                if (n, d, k) == (2, 4, 5):
                    continue  # the deficient quartic configuration
                prob = random_affine_problem(n, d, (n,) * k, seed=7)
                m = condition_matrix_affine(prob, prime=P)
                assert rank(m, P) == k * (n + 1), (n, d, k)


# ---------------------------------------------------------------------------
# component specs and random instances

def test_residual_windows():
    n = 3
    ComponentSpec(4, 0, 3).validate(n, 1)  # double point forces residual 3
    with pytest.raises(ValueError):
        ComponentSpec(4, 0, 2).validate(n, 1)
    ComponentSpec(3, 0, 2).validate(n, 1)
    ComponentSpec(3, 0, 3).validate(n, 1)
    with pytest.raises(ValueError):
        ComponentSpec(3, 0, 1).validate(n, 1)  # length n admits residual 2 or 3
    ComponentSpec(2, 0, 1).validate(n, 1)
    ComponentSpec(1, 0, 1).validate(n, 1)  # residual capped by min(3, length)
    with pytest.raises(ValueError):
        ComponentSpec(1, 0, 2).validate(n, 1)
    ComponentSpec(1, 0, 0).validate(n, 1)


def test_component_spec_validation():
    with pytest.raises(ValueError):
        ComponentSpec(10, residual=None).validate(8, 0)
    with pytest.raises(ValueError):
        ComponentSpec(9, 0, None).validate(8, 1)
    with pytest.raises(ValueError):
        ComponentSpec(9, 5, 3).validate(8, 1)
    with pytest.raises(ValueError):
        ComponentSpec(3, GENERAL, 2).validate(8, 0)


def test_random_instance_deterministic():
    specs = [ComponentSpec(9), ComponentSpec(9, 0, 3), ComponentSpec(7, 1, 2)]
    a = random_instance(8, specs, (L, M), P, seed=42)
    b = random_instance(8, specs, (L, M), P, seed=42)
    assert a == b
    c = random_instance(8, specs, (L, M), P, seed=43)
    assert a != c


def test_random_instance_zeroes_subspace_coordinates():
    inst = random_instance(8, [ComponentSpec(9, 1, 3)], (L, M), P, seed=5)
    pt = inst.components[0].point
    assert all(pt[i] == 0 for i in M.zeroed)
    assert any(pt[i] for i in range(9) if i not in M.zeroed)


def test_degenerate_draws_error_out():
    # 50 distinct points cannot exist in GF(3)^1
    with pytest.raises(DegenerateDrawError):
        random_affine_problem(1, 2, (0,) * 50, prime=3, seed=1)


def test_random_instance_gives_up_on_zero_points():
    # a stream that draws only zeros: the point draw gives up after its redraws
    # (GF(1), whose only point is zero, meets the modulus gate first)
    class Zeros:
        calls = 0

        def randrange(self, p):
            self.calls += 1
            return 0

    stream = Zeros()
    with pytest.raises(DegenerateDrawError, match="nonzero point"):
        schemes._draw_point(stream, 1, P, frozenset())
    assert stream.calls == 2 * (schemes.MAX_REDRAWS + 1)
    with pytest.raises(ValueError, match="not a prime"):
        random_instance(1, [ComponentSpec(1)], (), 1, 0)


# ---------------------------------------------------------------------------
# projective condition matrices

def test_double_point_contributes_full_jacobian():
    basis = build_basis(HOMOGENEOUS, 8, 3)
    inst = random_instance(8, [ComponentSpec(9)], (), P, seed=3)
    m = condition_matrix_projective(inst, basis)
    assert m.shape == (9, 165)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_double_point_keeps_its_value_row_where_p_divides_d(n):
    # Euler's relation d*F = sum x_i dF/dx_i spans the value row only when d
    # is a unit mod p: at d = 0 the jacobian rows are zero and the value row
    # is the one condition a double point imposes on the constants
    inst = random_instance(n, [ComponentSpec(n + 1)], (), P, seed=3)
    assert condition_matrix_projective(inst, build_basis(HOMOGENEOUS, n, 0)).shape == (n + 2, 1)
    assert hilbert_function(inst, 0) == 1


def test_double_point_at_d_equal_to_p():
    # at d = p = 3 in P^1 the point (1 : 0) has jacobian rows 3x^2, 2xy, y^2, 0 = 0
    # and 0, x^2, 2xy, 3y^2 = [0, 1, 0, 0]: the value row [1, 0, 0, 0] is a second condition
    inst = SchemeInstance(1, 3, 0, (), (ComponentInstance(ComponentSpec(2), (1, 0), None),))
    assert condition_matrix_projective(inst, build_basis(HOMOGENEOUS, 1, 3)).tolist() == [
        [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]]
    assert hilbert_function(inst, 3) == 2
    # at d = 4, a unit mod 3, the value row is dropped again
    assert condition_matrix_projective(inst, build_basis(HOMOGENEOUS, 1, 4)).shape == (2, 5)


def test_simple_point_contributes_eval_row():
    basis = build_basis(HOMOGENEOUS, 8, 3)
    inst = random_instance(8, [ComponentSpec(1)], (), P, seed=3)
    m = condition_matrix_projective(inst, basis)
    assert m.shape == (1, 165)
    exact = eval_row(basis, inst.components[0].point, prime=P)
    assert m[0].tolist() == exact


def test_row_count_accounting_random_specs():
    rng = random.Random(17)
    basis = vanishing_basis(8, 3, (L, M))
    for _ in range(500):
        specs = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            if kind < 0.5:
                specs.append(ComponentSpec(rng.randint(1, 9)))
            else:
                r = rng.randint(1, 3)
                specs.append(ComponentSpec(9 - (3 - r), rng.randint(0, 1), r))
        inst = random_instance(8, specs, (L, M), P, seed=rng.randrange(2**32))
        m = condition_matrix_projective(inst, basis)
        deg = sum(s.length for s in specs)
        absorbed = sum(
            s.length - s.residual for s in specs if s.support != GENERAL
        )
        assert m.shape[0] == deg - absorbed


def exact_projective_rows(inst, basis):
    """The projective build assembled from the exact symbolic rows, mod p."""
    p = inst.prime
    rows = []
    for comp in inst.components:
        jac = jacobian_block(basis, comp.point, prime=p)
        if comp.spec.support == GENERAL:
            double = comp.spec.length == basis.nvars
            # Euler: d*F = sum x_i dF/dx_i puts a double point's value row in
            # the span of its jacobian unless p divides d
            if not double or basis.d % p == 0:
                rows.append(eval_row(basis, comp.point, prime=p))
            if double:
                rows += jac
                continue
        for combo in comp.combo or ():
            rows.append([sum(c * jac[k][j] for k, c in enumerate(combo)) % p
                         for j in range(len(basis))])
    return rows


def assert_projective_build_exact(inst, basis):
    m = condition_matrix_projective(inst, basis)
    rows = exact_projective_rows(inst, basis)
    assert m.dtype == np.int64 and m.shape == (len(rows), len(basis))
    assert m.tolist() == rows


def test_fast_rows_match_exact_rows():
    # the vectorized GF(p) builder agrees with the exact symbolic rows
    basis = vanishing_basis(8, 3, (L, M))
    specs = [ComponentSpec(9), ComponentSpec(6), ComponentSpec(9, 0, 3),
             ComponentSpec(8, 1, 2), ComponentSpec(1), ComponentSpec(5, 0, 0),
             ComponentSpec(2, 1, 1)]
    assert_projective_build_exact(random_instance(8, specs, (L, M), P, seed=11), basis)


@st.composite
def projective_cases(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 5))
    coords = draw(st.permutations(range(n + 1)))
    subspaces = []
    while coords and len(subspaces) < 2 and draw(st.booleans()):
        codim = draw(st.integers(1, min(n, len(coords))))
        subspaces.append(CoordinateSubspace(coords[:codim]))
        coords = coords[codim:]
    specs = []
    for _ in range(draw(st.integers(0, 6))):
        if not subspaces or draw(st.integers(0, 2)) == 0:
            specs.append(ComponentSpec(draw(st.integers(1, n + 1))))
            continue
        # residual r needs max(1, r) <= length <= n - 2 + r (ComponentSpec.validate)
        idx = draw(st.integers(0, len(subspaces) - 1))
        r = draw(st.integers(0, min(3, subspaces[idx].codim)))
        if max(1, r) <= min(n + 1, n - 2 + r):
            length = draw(st.integers(max(1, r), min(n + 1, n - 2 + r)))
            specs.append(ComponentSpec(length, idx, r))
    return n, d, tuple(subspaces), specs, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=150, deadline=None)
@given(projective_cases())
def test_projective_build_equals_exact_rows(case):
    # free, double and subspace components (residual 0 included), empty instances
    n, d, subspaces, specs, seed = case
    if subspaces:
        basis = vanishing_basis(n, d, subspaces)
    else:
        basis = build_basis(HOMOGENEOUS, n, d)
    inst = random_instance(n, specs, subspaces, P, seed=seed)
    assert_projective_build_exact(inst, basis)


@pytest.mark.parametrize("p", [2, 3, 5, P, 67108859])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_slot_rows_equal_jacobian_rows_and_exact_rows(monkeypatch, p, d):
    # d*(p-1)**d < 2**63, so one reduction per row, everywhere but at 67108859
    # with d >= 3, where every product is reduced; the slot rule runs where d < nv
    rng = np.random.default_rng(10 * p + d)
    for n in range(1, 9):
        basis = build_basis(HOMOGENEOUS, n, d)
        layout, nv = schemes._slot_layout(basis), n + 1
        assert schemes._slot_rule(d, nv, p) == (d < nv)
        owner = np.repeat(np.arange(4), [0, 1, 3, nv])  # no combination, one, three, all nv
        with_value = np.array([True, False, True, False])
        for worst in (False, True):  # uniform residues, or p-1 everywhere
            points = rng.integers(0, p, size=(4, nv))
            coeffs = rng.integers(0, p, size=(len(owner), nv))
            if worst:
                points[:], coeffs[:] = p - 1, p - 1
            coeffs[-nv:] = np.eye(nv, dtype=np.int64)  # a double point's full jacobian
            slots = schemes._projective_rows(layout, points, with_value, coeffs, owner, p)
            with monkeypatch.context() as patched:
                patched.setattr(schemes, "_slot_rule", lambda *args: False)
                jacobian = schemes._projective_rows(layout, points, with_value, coeffs, owner, p)
            exact = []
            for c, point in enumerate(points.tolist()):
                block = jacobian_block(basis, point, prime=p)
                if with_value[c]:
                    exact.append(eval_row(basis, point, prime=p))
                exact += [[sum(a * block[k][j] for k, a in enumerate(coeffs[r].tolist())) % p
                           for j in range(len(basis))] for r in np.flatnonzero(owner == c)]
            assert slots.dtype == jacobian.dtype == np.int64
            assert slots.tolist() == jacobian.tolist() == exact, (n, worst)


@pytest.mark.parametrize("prime", [P, 67108859])
def test_projective_build_p8_three_subspaces_equals_exact_rows(prime):
    # 67108859 is the largest prime below MAX_PRIME: the int64 build is exact there
    from ppinterp.verify import specs_on_subspace

    basis = vanishing_basis(8, 3, (L, M, N))
    specs = (specs_on_subspace(8, 0, (1, 1, 1)) + specs_on_subspace(8, 1, (0, 2, 3))
             + specs_on_subspace(8, 2, (2, 0, 1)))
    for seed in range(3):
        assert_projective_build_exact(random_instance(8, specs, (L, M, N), prime, seed), basis)


# ---------------------------------------------------------------------------
# the batched projective draw and build

BATCH_PRIMES = (3, 5, 7, P, 67108859)


def _outcome(build):
    """Each matrix as (dtype, shape, bytes), or the (type, message) of the error raised."""
    try:
        return [(m.dtype, m.shape, m.tobytes()) for m in build()]
    except (ValueError, DegenerateDrawError) as err:
        return type(err), str(err)


def assert_batched_equals_sequential(subspaces, basis, prime, draws):
    sequential = _outcome(lambda: [
        condition_matrix_projective(random_instance(basis.n, specs, subspaces, prime, seed), basis)
        for specs, seed in draws
    ])
    builders = [(ProjectiveDraw(tuple(specs), subspaces, basis), seed) for specs, seed in draws]
    assert _outcome(lambda: condition_matrices(builders, prime)) == sequential
    return sequential


@st.composite
def batched_draws(draw):
    n = draw(st.integers(1, 8))
    d = draw(st.integers(0, 3 if n <= 5 else 2))
    coords = draw(st.permutations(range(n + 1)))
    subspaces = []
    while coords and len(subspaces) < 3 and draw(st.booleans()):
        codim = draw(st.integers(1, min(n, len(coords))))
        subspaces.append(CoordinateSubspace(coords[:codim]))
        coords = coords[codim:]

    def components():
        specs = []
        for _ in range(draw(st.integers(0, 5))):
            length = draw(st.integers(1, n + 1))  # free: every length, n+1 a double point
            lo, hi = max(0, length + 2 - n), min(3, length)  # ComponentSpec.validate
            if not subspaces or lo > hi or draw(st.booleans()):
                specs.append(ComponentSpec(length))
            else:
                # a residual above the codimension can never be drawn: both paths raise
                specs.append(ComponentSpec(length, draw(st.integers(0, len(subspaces) - 1)),
                                           draw(st.integers(lo, hi))))
        return specs

    shared = components()
    draws = [(shared if draw(st.booleans()) else components(), draw(st.integers(0, 2**64 - 1)))
             for _ in range(draw(st.integers(1, 6)))]
    prime = draw(st.sampled_from(BATCH_PRIMES))
    return n, d, tuple(subspaces), draws, prime


@settings(max_examples=200, deadline=None)
@given(batched_draws())
def test_batched_projective_build_equals_sequential(case):
    # free components of every length, double points, subspace components with
    # residual 0-3, empty specs; primes where draws are often degenerate
    n, d, subspaces, draws, prime = case
    if subspaces:
        basis = vanishing_basis(n, d, subspaces)
    else:
        basis = build_basis(HOMOGENEOUS, n, d)
    assert_batched_equals_sequential(subspaces, basis, prime, draws)


@pytest.mark.parametrize("prime", [3, 5])
def test_batched_build_redraws_degenerate_draws_sequentially(monkeypatch, prime):
    # ten points of P^2 over GF(p) often coincide, and two directions in
    # GF(p)^3 are often dependent: those draws go to the sequential path
    redrawn = []
    real = schemes.random_instance
    monkeypatch.setattr(schemes, "random_instance",
                        lambda *args: redrawn.append(args[-1]) or real(*args))
    specs = [ComponentSpec(1)] * 6 + [ComponentSpec(3)] * 2 + [ComponentSpec(2)] * 2
    draws = [(specs, seed) for seed in range(40)]
    basis = build_basis(HOMOGENEOUS, 2, 3)
    assert isinstance(assert_batched_equals_sequential((), basis, prime, draws), list)
    assert 0 < len(redrawn) < len(draws)  # the reference calls random_instance unpatched


def test_batched_build_raises_what_the_sequential_path_raises():
    good = [ComponentSpec(9), ComponentSpec(9, 0, 3), ComponentSpec(5)]
    p8 = vanishing_basis(8, 3, (L, M))
    full = build_basis(HOMOGENEOUS, 8, 3)
    cases = [
        ((L, M), p8, P, [ComponentSpec(10)]),  # length above n + 1
        ((L, M), p8, P, [ComponentSpec(9, 0, None)]),  # no residual on a subspace
        ((L, M), p8, P, [ComponentSpec(9, 5, 3)]),  # unknown subspace
        ((L, M), p8, P, [ComponentSpec(3, GENERAL, 1)]),  # residual on a free component
        ((L,), build_basis(HOMOGENEOUS, 2, 3), P, [ComponentSpec(1)]),  # codimension 3 > n
        ((L, M), full, P, good),  # basis not vanishing on the subspaces
        ((L, M), p8, 67108879, good),  # prime above MAX_PRIME: the modulus gate refuses it
        ((), build_basis(HOMOGENEOUS, 1, 3), 3, [ComponentSpec(1)] * 9),  # 8 points in P^1
        ((CoordinateSubspace({0}),), vanishing_basis(3, 3, (CoordinateSubspace({0}),)), P,
         [ComponentSpec(3, 0, 2)]),  # two transversal directions to a hyperplane
        # zeroed sets not in P^4: a coordinate above n, a negative one, none at all
        *(((CoordinateSubspace(zeroed),), build_basis(HOMOGENEOUS, 4, 3), P,
           [ComponentSpec(2, 0, 1)]) for zeroed in ({7}, {-1}, ())),
    ]
    for subspaces, basis, prime, specs in cases:
        draws = [(good[:1], 1), (specs, 2), (good[:1], 3)]
        sequential = assert_batched_equals_sequential(subspaces, basis, prime, draws)
        assert isinstance(sequential, tuple), specs
        if basis.n == 4:
            assert sequential == (ValueError, "zeroed coordinates out of range for P^4: "
                                  f"{sorted(subspaces[0].zeroed)}")
    # one draw with two faults: both paths check its specs before its prime
    assert assert_batched_equals_sequential((L, M), p8, 9, [([ComponentSpec(10)], 1)]) == (
        ValueError, "length must lie in [1, 9]: 10")
    # above MAX_PRIME both paths refuse schemes without directions too
    draws = [([ComponentSpec(9), ComponentSpec(1)], seed) for seed in range(3)]
    assert assert_batched_equals_sequential((), full, 67108879, draws) == (
        ValueError, "modulus 67108879 is not a prime below 2**26, as the int64 kernels need")
    # two faulty draws of one key: both paths raise the first draw's fault,
    # though the second draw's spec fault comes before a prime fault in a draw
    cubics, quadrics = build_basis(HOMOGENEOUS, 2, 3), build_basis(HOMOGENEOUS, 2, 2)
    assert assert_batched_equals_sequential(
        (), cubics, 9, [([ComponentSpec(1)], 1), ([ComponentSpec(7)], 2)]) == (
        ValueError, "modulus 9 is not a prime below 2**26, as the int64 kernels need")
    # faulty draws of two keys: both paths raise the fault of the first in input order
    round_ = [(ProjectiveDraw((ComponentSpec(length),), (), basis), seed)
              for seed, (length, basis) in enumerate([(1, cubics), (5, quadrics), (7, cubics)])]
    sequential = _outcome(lambda: [build(seed, P) for build, seed in round_])
    assert _outcome(lambda: condition_matrices(round_, P)) == sequential == (
        ValueError, "length must lie in [1, 3]: 5")


def test_a_draw_whose_redraws_give_up_raises_before_a_later_fault():
    # the sequential path draws a round in input order, so a draw whose
    # redraws give up (nine distinct points of P^1 over GF(3), which has
    # eight nonzero vectors) raises before the spec fault of a later draw
    # and before the fault of its own basis, an affine one
    cubics = build_basis(HOMOGENEOUS, 1, 3)
    crowded = (ComponentSpec(1),) * 9
    rounds = [
        [(ProjectiveDraw(crowded, (), cubics), 1),
         (ProjectiveDraw((ComponentSpec(5),), (), cubics), 2)],
        [(ProjectiveDraw(crowded, (), build_basis(AFFINE, 1, 3)), 1)],
    ]
    for round_ in rounds:
        sequential = _outcome(lambda: [build(seed, 3) for build, seed in round_])
        assert _outcome(lambda: condition_matrices(round_, 3)) == sequential == (
            DegenerateDrawError, "could not draw distinct support points over GF(3)")


@pytest.mark.parametrize("n, d, prime",[(1, 0, P), (2, 0, 5), (3, 0, 3), (1, 3, 3), (2, 3, 3),
                                         (2, 5, 5)])
def test_batched_double_points_where_p_divides_d(n, d, prime):
    # double points keep their value row in the batch as in the sequential build
    specs = [ComponentSpec(n + 1), ComponentSpec(1), ComponentSpec(n + 1)]
    draws = [(specs, seed) for seed in range(8)]
    basis = build_basis(HOMOGENEOUS, n, d)
    built = assert_batched_equals_sequential((), basis, prime, draws)
    assert {shape for _, shape, _ in built} == {(2 * (n + 2) + 1, len(basis))}


def _count_paths(monkeypatch):
    """The batch sizes ``_draw_layout`` lays out and the seeds drawn one at a time."""
    layouts, alone = [], []
    layout, draw = schemes._draw_layout, schemes.random_instance
    monkeypatch.setattr(schemes, "_draw_layout",
                        lambda *args: layouts.append(len(args[4])) or layout(*args))
    monkeypatch.setattr(schemes, "random_instance",
                        lambda *args: alone.append(args[-1]) or draw(*args))
    return layouts, alone


def test_an_invalid_draw_raises_the_sequential_error_from_the_batch(monkeypatch):
    # a round of valid draws and invalid ones: the batch raises what the
    # sequential path raises for the first invalid draw, after building the
    # draw before it as a batch of one and then calling the invalid draw's
    # own builder, which draws it alone
    layouts, alone = _count_paths(monkeypatch)
    p8 = vanishing_basis(8, 3, (L, M))
    on_p8 = ProjectiveDraw((ComponentSpec(9), ComponentSpec(9, 0, 3)), (L, M), p8)
    # free components need no vanishing basis, so the full basis serves them
    free = ProjectiveDraw((ComponentSpec(9), ComponentSpec(5)), (L, M),
                          build_basis(HOMOGENEOUS, 8, 3))
    cases = [
        (on_p8, on_p8._replace(specs=(ComponentSpec(5), ComponentSpec(9, 5, 3))),
         "unknown subspace index 5"),
        (free, free._replace(specs=on_p8.specs),
         "components on a subspace need a basis of forms vanishing on it"),
    ]
    for valid, invalid, message in cases:
        draws = [(valid, 1), (invalid, 2), (valid, 3), (invalid, 4)]
        with pytest.raises(ValueError) as batched:
            condition_matrices(draws, P)
        assert (layouts, alone) == ([1], [2])
        with pytest.raises(ValueError) as sequential:
            invalid(2, P)
        assert str(batched.value) == str(sequential.value) == message
        layouts.clear()
        alone.clear()


def test_condition_matrices_batches_a_key_of_two_or_more(monkeypatch):
    layouts, alone = _count_paths(monkeypatch)
    plane = build_basis(HOMOGENEOUS, 2, 3)
    first = ProjectiveDraw((ComponentSpec(3), ComponentSpec(2)), (), plane)
    second = first._replace(specs=(ComponentSpec(1),) * 4)
    condition_matrices([(first, 1), (second, 2), (first, 3)], P)
    assert (layouts, alone) == ([3], [])


def test_condition_matrices_builds_lone_draws_and_other_builders_alone(monkeypatch):
    layouts, alone = _count_paths(monkeypatch)
    called = []

    def affine(seed, prime):
        called.append(seed)
        return np.eye(3, dtype=np.int64)

    plane = build_basis(HOMOGENEOUS, 2, 3)
    lone = ProjectiveDraw((ComponentSpec(3),), (), plane)
    other = lone._replace(basis=build_basis(HOMOGENEOUS, 2, 2))  # another key
    got = condition_matrices([(affine, 1), (lone, 2), (affine, 3), (other, 4)], P)
    # a key with one draw is a batch of one; other builders are called alone
    assert (layouts, alone, called) == ([1, 1], [], [1, 3])
    assert [m.tobytes() for m in got] == [m.tobytes() for m in (
        np.eye(3, dtype=np.int64), lone(2, P), np.eye(3, dtype=np.int64), other(4, P))]


def test_condition_matrices_mixed_round_keeps_input_order(monkeypatch):
    from ppinterp.verify import _affine_builder, specs_on_subspace

    p8 = vanishing_basis(8, 3, (L, M))
    on_p8 = [ProjectiveDraw(tuple(specs_on_subspace(8, 0, tdu) + specs_on_subspace(8, 1, tdu)),
                            (L, M), p8) for tdu in ((1, 1, 1), (2, 0, 1), (0, 3, 0))]
    space = build_basis(HOMOGENEOUS, 3, 3)
    free = [ProjectiveDraw(tuple(ComponentSpec(l) for l in lengths), (), space)
            for lengths in ((4, 4, 2), (3, 3, 3, 1))]
    lone = ProjectiveDraw((ComponentSpec(4),) * 3, (), build_basis(HOMOGENEOUS, 3, 2))
    affine = [_affine_builder(2, 3, (2, 1, 0)), _affine_builder(3, 5, (3, 3))]
    builders = [affine[0], on_p8[0], free[0], lone, on_p8[1], affine[1], free[1], on_p8[2]]
    draws = [(build, 1000 + i) for i, build in enumerate(builders)]
    expected = [build(seed, P) for build, seed in draws]
    layouts, alone = _count_paths(monkeypatch)
    got = condition_matrices(draws, P)
    assert [(m.dtype, m.shape, m.tobytes()) for m in got] == [
        (m.dtype, m.shape, m.tobytes()) for m in expected]
    assert (layouts, alone) == ([3, 2, 1], [])


def test_condition_stacks_members_equal_their_builds(monkeypatch):
    # A round of batched draws (some fail the batch's checks at p = 3 and are
    # redrawn alone), lone draws, affine builders and a builder of Python
    # ints beyond int64.  The 6 x 10 matrices of the affine builder on P^2
    # cubics share one stack with batched ones.  At p = d = 3 a double point
    # keeps its value row: 4 rows.
    from ppinterp.verify import _affine_builder

    plane = build_basis(HOMOGENEOUS, 2, 3)
    crowded = ProjectiveDraw((ComponentSpec(1),) * 6 + (ComponentSpec(3),) * 2
                             + (ComponentSpec(2),) * 2, (), plane)
    pair = crowded._replace(specs=(ComponentSpec(3), ComponentSpec(2)))
    lone = crowded._replace(specs=(ComponentSpec(2),), basis=build_basis(HOMOGENEOUS, 2, 2))
    affine = _affine_builder(2, 3, (2, 1, 0))

    def wide(seed, prime):
        return np.array([[2**70 + seed, 1], [3, 4]], dtype=object)

    builders = [crowded, affine, pair, wide, crowded, lone, pair, affine] + [crowded] * 8
    draws = [(build, 100 + i) for i, build in enumerate(builders)]
    expected = [build(seed, 3) for build, seed in draws]
    layouts, alone = _count_paths(monkeypatch)
    stacks = schemes.condition_stacks(draws, 3)
    assert layouts == [12, 1] and len(alone) > 0  # some crowded draws were redrawn alone
    assert sorted(i for index, _ in stacks for i in index) == list(range(len(draws)))
    for index, stack in stacks:
        assert stack.ndim == 3 and len(stack) == len(index)
        for i, member in zip(index, stack):
            want = expected[i]
            assert (member.dtype, member.shape, member.tolist()) == (
                want.dtype, want.shape, want.tolist())
            if want.dtype == np.int64:
                assert member.tobytes() == want.tobytes()
    shapes = [stack.shape[1:] for _, stack in stacks if stack.dtype == np.int64]
    assert len(shapes) == len(set(shapes)) == 3  # one stack per shape: 18 x 10, 6 x 10, 2 x 6
    assert [len(index) for index, stack in stacks if stack.shape[1:] == (6, 10)] == [4]
    assert stack_ranks(stacks, 3) == [rank_rows(np.asarray(m).tolist(), 3) for m in expected]

    def failing(seed, prime):
        raise DegenerateDrawError("could not draw distinct points over GF(3)")

    with pytest.raises(DegenerateDrawError):
        schemes.condition_stacks(draws[:3] + [(failing, 1)] + draws[3:], 3)


@pytest.mark.parametrize("prime", BATCH_PRIMES)
def test_randbelow_stream_replays_randrange(prime):
    # randrange(p) keeps the getrandbits(p.bit_length()) values below p
    assert _stream_is_randrange()
    for seed in (0, 1, 2**64 - 1):
        rng = random.Random(seed)
        expected = [rng.randrange(prime) for _ in range(500)]
        assert _randbelow_stream(random.Random(seed), prime, 500).tolist() == expected
        rng = random.Random(seed)
        bits = [rng.getrandbits(prime.bit_length()) for _ in range(1500)]
        assert [b for b in bits if b < prime][:500] == expected


def exact_affine_rows(prob, prime):
    basis = build_basis(AFFINE, prob.n, prob.d)
    rows = []
    for pt, ds in zip(prob.points, prob.directions):
        rows.append(eval_row(basis, pt, prime))
        rows += [derivative_row(basis, pt, v, prime) for v in ds]
    return rows


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 5), st.lists(st.integers(0, n), max_size=8),
    st.integers(0, 2**32 - 1))))
def test_affine_build_equals_exact_rows(case):
    # the homogenised build sums n+1 partials: 67108859 checks its int64 bound
    n, d, a, seed = case
    for prime in (P, 67108859):
        prob = random_affine_problem(n, d, a, prime, seed=seed)
        rows = condition_matrix_affine(prob, prime=prime)
        assert rows == exact_affine_rows(prob, prime)
        assert all(type(v) is int for row in rows for v in row)


def test_affine_build_reduces_entries_and_rejects_zero_directions():
    big = 2**70 + 3
    prob = InterpolationProblem(2, 4, [[-3, big], [5, -big]],
                                [[[-1, big], [P, 2]], [[0, -7]]])
    assert condition_matrix_affine(prob, prime=P) == exact_affine_rows(prob, P)
    assert condition_matrix_affine(InterpolationProblem(2, 3, [], []), prime=P) == []
    with pytest.raises(ValueError, match="zero direction"):
        condition_matrix_affine(InterpolationProblem(2, 3, [[1, 2]], [[[0, 0]]]), prime=P)
    # a rational entry is not a residue: refused rather than truncated to 0
    with pytest.raises(TypeError):
        condition_matrix_affine(InterpolationProblem(1, 2, [[Fraction(1, 2)]], [[]]), prime=P)


@pytest.mark.parametrize("modulus", [9, 31991 * 3, 2**26 - 1, 67108879])
def test_builders_refuse_a_composite_modulus(monkeypatch, modulus):
    # the affine problem was built as [[1, 2, 4], [0, 1, 4]] mod 9 and the points
    # drawn mod 9, where every GF(p) entry point of linalg refuses the modulus;
    # 67108879, the first prime above 2**26, is a prime no kernel takes
    with pytest.raises(ValueError, match="not a prime"):
        condition_matrix_affine(InterpolationProblem(1, 2, [[2]], [[[1]]]), prime=modulus)
    inst = dataclasses.replace(random_instance(2, [ComponentSpec(3)], (), 7, 1), prime=modulus)
    with pytest.raises(ValueError, match="not a prime"):
        condition_matrix_projective(inst, build_basis(HOMOGENEOUS, 2, 2))
    # the draws refuse before drawing, whatever components the scheme holds
    assert _stream_is_randrange()  # cached before random goes: the batch's own probe
    monkeypatch.setattr(schemes, "random", None)
    for specs in ([ComponentSpec(3), ComponentSpec(1)], [ComponentSpec(2)]):
        with pytest.raises(ValueError, match="not a prime"):
            random_instance(2, specs, (), modulus, 1)
        draws = [(ProjectiveDraw(tuple(specs), (), build_basis(HOMOGENEOUS, 2, 3)), 1)]
        with pytest.raises(ValueError, match="not a prime"):
            condition_matrices(draws, modulus)
    with pytest.raises(ValueError, match="not a prime"):
        random_affine_problem(2, 3, (1, 0), modulus, 1)


@pytest.mark.parametrize("a_profile", [(-1,), (1, 3), (2, -2, 0)])
def test_random_affine_problem_refuses_counts_outside_zero_to_n(monkeypatch, a_profile):
    # refused before any draw: redrawing could only end in a degenerate-draw error
    monkeypatch.setattr(schemes, "random", None)
    with pytest.raises(ValueError, match=r"direction counts must lie in \[0, n=2\]"):
        random_affine_problem(2, 3, a_profile)


def test_numpy_integer_primes_are_read_exactly():
    # the batch reads the prime's bit length, which a numpy integer does not have
    specs = (ComponentSpec(3), ComponentSpec(2), ComponentSpec(1))
    basis = build_basis(HOMOGENEOUS, 2, 3)
    for prime in (np.int64(P), np.uint32(7)):
        inst = random_instance(2, specs, (), prime, 5)
        assert inst == random_instance(2, specs, (), int(prime), 5)
        assert type(inst.prime) is int
        built = condition_matrix_projective(inst, basis)
        [batched] = condition_matrices([(ProjectiveDraw(specs, (), basis), 5)], prime)
        assert batched.tobytes() == built.tobytes()
        assert random_affine_problem(2, 3, (2, 1), prime, 5) == random_affine_problem(
            2, 3, (2, 1), int(prime), 5)


def test_affine_coordinates_are_read_exactly():
    # over Q as values are read: a float point used to be read in binary
    for point, direction in (([0.1], [1]), ([0], [0.5]), ([True], [1]), ([0], [True])):
        prob = InterpolationProblem(1, 1, [[0], point], [[], [direction]], [[0], [1, 1]])
        with pytest.raises(TypeError):
            condition_matrix_affine(prob)
        with pytest.raises(TypeError):
            integer_system_affine(prob, build_basis(AFFINE, 1, 1))
    assert condition_matrix_affine(InterpolationProblem(1, 2, [["1/2"]], [[["2"]]])) == [
        [1, Fraction(1, 2), Fraction(1, 4)], [0, 2, 2]]
    numpy_ints = InterpolationProblem(1, 1, [[np.int64(3)]], [[[np.int8(2)]]])
    assert condition_matrix_affine(numpy_ints) == [[1, 3], [0, 2]]
    # over GF(p) a bool is refused before index() reads it as 0 or 1
    for point, direction in (([True], [1]), ([1], [True]), ([np.True_], [1])):
        with pytest.raises(TypeError):
            condition_matrix_affine(InterpolationProblem(1, 1, [point], [[direction]]), prime=P)
    for point in ([0.5], ["1"]):
        with pytest.raises(TypeError):
            condition_matrix_affine(InterpolationProblem(1, 1, [point], [[]]), prime=P)
    assert condition_matrix_affine(InterpolationProblem(1, 1, [[np.int64(-1)]], [[[1]]]),
                                   prime=P) == [[1, P - 1], [0, 1]]


RATIONALS = st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=7)


@st.composite
def rational_affine_problems(draw):
    """Rational points (zero coordinates included) with nonzero rational directions."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 6))
    vector = st.lists(RATIONALS, min_size=n, max_size=n)
    points = draw(st.lists(vector, max_size=4))
    directions = [draw(st.lists(vector.filter(any), max_size=n)) for _ in points]
    return InterpolationProblem(n, d, points, directions)


@settings(max_examples=100, deadline=None)
@given(rational_affine_problems())
def test_homogenised_integer_rows_equal_exact_rows(prob):
    # the rational build evaluates the homogenised basis at (X, D) in Python
    # ints; dividing out each row's scale gives eval_row/derivative_row exactly
    basis = build_basis(AFFINE, prob.n, prob.d)
    rows, scales = _affine_rows(prob, basis, None)
    rows = rows.tolist()
    assert all(type(v) is int for row in rows for v in row)
    assert all(type(s) is int and s > 0 for s in scales)
    exact = exact_affine_rows(prob, None)
    assert [[Fraction(v, s) for v in row] for row, s in zip(rows, scales)] == exact
    assert condition_matrix_affine(prob) == exact


def test_random_instance_draw_stream_is_pinned():
    # digest of these draws as the first release made them: the draw stream
    # (and with it every report's cases payload) must not drift
    from ppinterp.verify import P8_SUBSPACES, specs_free, specs_on_subspace

    draws = [
        random_instance(8, specs_on_subspace(8, 0, (1, 1, 1)) + specs_on_subspace(8, 1, (0, 2, 3))
                        + specs_on_subspace(8, 2, (2, 0, 1)), P8_SUBSPACES, P, seed=101),
        random_instance(8, specs_on_subspace(8, 0, (2, 1, 0)) + specs_on_subspace(8, 1, (1, 1, 1))
                        + specs_free(8, (2, 1, 0, 1, 1, 0, 0, 0, 2)), (L, M), P, seed=2**63 + 5),
        random_instance(5, specs_on_subspace(5, 0, (1, 2, 1))
                        + specs_free(5, (3, 1, 1, 0, 1, 2)), (L, M), P, seed=7),
        random_instance(3, [ComponentSpec(l) for l in (4, 3, 2, 1, 1)], (), 65521, seed=3),
    ]
    blob = repr([[(c.point, c.combo) for c in inst.components] for inst in draws])
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "294025f2bcbb56e0435d2a1d221d4f741e21e4fd7e4ca90f97a5db318cf481fa"
    )


def test_draw_stream_is_pinned_where_it_redraws(monkeypatch):
    # digest of these draws at primes 5 and 7, where points coincide and
    # direction sets are dependent often enough that every kind of redraw
    # happens: a redraw must read the random stream as it always has
    calls = {"point": 0, "rank": 0}
    point, rank_ = schemes._draw_point, schemes.rank

    def counted(name, f):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or f(*args)

    monkeypatch.setattr(schemes, "_draw_point", counted("point", point))
    monkeypatch.setattr(schemes, "rank", counted("rank", rank_))
    crowded = [ComponentSpec(1)] * 6 + [ComponentSpec(3)] * 2 + [ComponentSpec(2)] * 2
    on_line = [ComponentSpec(3, 0, 2)] * 2 + [ComponentSpec(3)] * 2 + [ComponentSpec(1)] * 4
    seeds = [(prime, seed) for prime in (5, 7) for seed in range(10)]
    insts = [random_instance(2, crowded, (), p, seed) for p, seed in seeds]
    assert calls == {"point": 207, "rank": 40}  # 200 and 40 without a redraw
    insts += [random_instance(3, on_line, (CoordinateSubspace({0, 1}),), p, seed)
              for p, seed in seeds]
    assert calls == {"point": 368, "rank": 131}  # 160 and 80 more without a redraw
    profile = (2, 2, 1, 1, 0, 2, 1, 2)
    probs = [random_affine_problem(2, 3, profile, p, seed) for p, seed in seeds]
    assert calls["rank"] == 131 + 184  # 160 without a redraw
    # the first eight points of the stream, drawn with no redraw
    first = [[[rng.randrange(p) for _ in range(2)] for _ in profile]
             for p, rng in ((p, random.Random(seed)) for p, seed in seeds)]
    assert sum(f != q.points for f, q in zip(first, probs)) == 13
    blob = repr([[(c.point, c.combo) for c in i.components] for i in insts]
                + [(q.points, q.directions) for q in probs])
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "32d9f13c74d95164dc29d62a9b52fc93e048c4bd9dc985799c9462dd0e500bfc"
    )


def test_on_subspace_requires_vanishing_basis():
    basis = build_basis(HOMOGENEOUS, 8, 3)
    inst = random_instance(8, [ComponentSpec(9, 0, 3)], (L,), P, seed=2)
    with pytest.raises(ValueError):
        condition_matrix_projective(inst, basis)


def test_remark_boundary_configuration():
    # two double points on one subspace, seven on another: two cubics survive
    basis = vanishing_basis(8, 3, (L, M, N))
    specs = [ComponentSpec(9, 1, 3)] * 2 + [ComponentSpec(9, 2, 3)] * 7
    inst = random_instance(8, specs, (L, M, N), P, seed=9)
    m = condition_matrix_projective(inst, basis)
    assert m.shape == (27, 27)
    assert nullspace_dim(m, P) == 2


# ---------------------------------------------------------------------------
# residual degrees and Hilbert functions

def test_specs_on_subspace_residuals_sum_to_27():
    from ppinterp.theory import enumerate_triple_partitions
    from ppinterp.verify import specs_on_subspace

    # residual degrees over the three subspaces always sum to 27
    for triple in ((6, 9, 12), (3, 12, 12), (0, 9, 18)):
        parts = [enumerate_triple_partitions(x).parts[0] for x in triple]
        specs = []
        for idx, part in enumerate(parts):
            specs += specs_on_subspace(8, idx, part)
        assert {s.support for s in specs} <= {0, 1, 2}
        assert sum(s.residual for s in specs) == 27


def test_hilbert_function_simple_point():
    inst = random_instance(3, [ComponentSpec(1)], (), P, seed=1)
    for d in (1, 2, 3):
        assert hilbert_function(inst, d) == 1


def test_hilbert_function_two_double_points_plane_quadrics():
    inst = random_instance(2, [ComponentSpec(3), ComponentSpec(3)], (), P, seed=1)
    assert hilbert_function(inst, 2) == 5


def test_hilbert_function_table_row():
    inst = random_instance(3, [ComponentSpec(4), ComponentSpec(4), ComponentSpec(2)],
                           (), P, seed=1)
    assert hilbert_function(inst, 2) == 9
    basis = build_basis(HOMOGENEOUS, 3, 2)
    m = condition_matrix_projective(inst, basis)
    assert nullspace_dim(m, P) == 1


def test_three_double_points_p3_quadrics():
    # 12 jacobian rows against the 10 quadric monomials leave one quadric
    inst = random_instance(3, [ComponentSpec(4)] * 3, (), P, seed=2)
    m = condition_matrix_projective(inst, build_basis(HOMOGENEOUS, 3, 2))
    assert m.shape == (12, 10)
    assert nullspace_dim(m, P) == 1


def test_subprofile_of_independent_scheme_fills_rows():
    # fewer conditions than the basis has columns: the rank is the row count
    from ppinterp.theory import enumerate_triple_partitions, enumerate_xo_partitions
    from ppinterp.verify import specs_free, specs_on_subspace

    basis = vanishing_basis(5, 3, (L, M))
    pl = enumerate_triple_partitions(3).parts[0]
    pm = enumerate_triple_partitions(9).parts[0]
    xo = enumerate_xo_partitions(18, 5).parts[0]
    specs = specs_on_subspace(5, 0, pl) + specs_on_subspace(5, 1, pm) + specs_free(5, xo)
    specs = specs[:-1]  # drop a component: a subscheme of an independent scheme
    inst = random_instance(5, specs, (L, M), P, seed=4)
    m = condition_matrix_projective(inst, basis)
    assert m.shape[0] < len(basis)
    assert rank(m, P) == m.shape[0]


def test_equal_bases_built_apart_share_one_slot_layout():
    from ppinterp.monomials import MonomialBasis

    basis = vanishing_basis(8, 3, (CoordinateSubspace({0, 1, 2}),))
    twin = MonomialBasis(basis.mode, basis.n, basis.d, tuple(list(basis.exponents)))
    assert twin is not basis and twin == basis and hash(twin) == hash(basis)
    other = MonomialBasis(basis.mode, basis.n, basis.d, basis.exponents[:-1])
    assert other != basis
    # the exponents are hashed once, at construction, not on each hash()
    hashed = []

    class Exponent(tuple):
        def __hash__(self):
            hashed.append(self)
            return tuple.__hash__(self)

    spy = MonomialBasis(basis.mode, basis.n, basis.d, tuple(map(Exponent, basis.exponents)))
    assert len(hashed) == len(basis) and hash(spy) == hash(spy) == hash(basis)
    assert len(hashed) == len(basis) and spy == basis
    schemes._slot_layout.cache_clear()
    assert schemes._slot_layout(basis) is schemes._slot_layout(twin)
    assert schemes._slot_layout.cache_info().currsize == 1
