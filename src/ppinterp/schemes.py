"""Zero-dimensional schemes inside unions of double points and their condition matrices.

One evaluator, :func:`_projective_rows`, builds every condition matrix from
the value and jacobian rows of degree-d forms at points of P^n.  Two
settings feed it:

* the projective Monte Carlo verification problems, where a component is
  either freely supported (one evaluation row plus random combinations of
  the jacobian rows, or the full jacobian for a double point, whose value
  row is dropped exactly when p does not divide d, as Euler's relation then
  puts it in the jacobian's span) or supported on a coordinate subspace
  with a prescribed residual r (r random jacobian combinations against a
  basis of forms vanishing on the subspace);

* the affine interpolation problem (points in K^n, per-point direction sets,
  optional assigned values), read as the paper reads it: a point x with a
  directions is the length-(a+1) component at (x : 1), a direction v is
  (v, 0), and polynomials of degree <= d are degree-d forms on the
  homogenised basis.  Over Q a point is (X : D), so the rows are integers.

A trial round's projective draws are drawn and built together, straight
into one int64 stack per matrix shape (:func:`condition_stacks`), which the
rank layer takes as it is.  The builders and draws refuse a modulus that is
not a prime below 2**26 before any work, by ``gf._check_prime``, the gate
of the rank kernels.  Random instances are drawn from one seed; replaying
(seed, prime, specs) reproduces the instance bit for bit.  Degenerate draws
(coincident points, dependent direction sets) are resampled a bounded
number of times: each has probability about 1/p, so a handful of retries is
already overkill.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

import numpy as np

from .gf import DEFAULT_PRIME, _check_prime, as_fraction
from .linalg import _residues, rank, rank_mod
from .monomials import (
    AFFINE,
    HOMOGENEOUS,
    MonomialBasis,
    _check_zeroed,
    build_basis,
)

MAX_REDRAWS = 16
GENERAL = "general"


class DegenerateDrawError(RuntimeError):
    """Random sampling kept producing degenerate data (wrong prime? tiny field?)."""


# ---------------------------------------------------------------------------
# batched GF(p) evaluation: values and jacobians of a monomial basis

@lru_cache(maxsize=64)
def _slot_layout(basis: MonomialBasis):
    """The basis's degree-d forms as products of d factor slots, as read-only arrays.

    Returns (exps, var, j, s, k, e).  ``exps`` is the (M, nv) exponent array.
    Slot s of monomial j holds the variable ``var[j, s]``, in ascending order.
    ``(j, s)`` list, for each variable ``k`` that a monomial involves, the
    first of its slots, and ``e`` its exponent.
    """
    nv = basis.nvars
    exps = np.array(basis.exponents, dtype=np.int64).reshape(len(basis), nv)
    var = np.repeat(np.tile(np.arange(nv), len(basis)), exps.ravel()).reshape(len(basis), basis.d)
    j, s = np.nonzero(var != np.insert(var[:, :-1], 0, -1, axis=1))
    k = var[j, s]
    layout = (exps, var, j, s, k, exps[j, k])
    for a in layout:
        a.flags.writeable = False
    return layout


def _slot_rule(d, partials, p) -> bool:
    """Whether :func:`_projective_rows` sums a combination over the d slots, not the partials.

    Over GF(p) the d slot terms replace the partials the rows combine when
    they are fewer; over Q (``p=None``), and for constants (d = 0), the rows
    combine the jacobian.
    """
    return p is not None and 0 < d < partials


def _projective_rows(layout, points, with_value, coeffs, owner, p, out=None, first=None):
    """Per point i in order: its value row if ``with_value[i]``, then its combination rows.

    ``layout`` is the :func:`_slot_layout` of a homogeneous basis of degree-d
    forms in nv variables and ``points`` are (C, nv) support points.  Row r
    of the (R, nv) ``coeffs`` belongs to point ``owner[r]`` (nondecreasing)
    and becomes ``coeffs[r] @ jac[owner[r]]``, where ``jac[c, k, j]`` is
    d(x^e_j)/dx_k at point c.  The rows of point i are written to ``out``
    from row ``first[i]`` on; by default ``out`` is a new array holding the
    points' rows one after the other.  With a prime the inputs are integers
    and every entry is a canonical residue in int64, so the rows equal the
    exact symbolic rows reduced mod p; with ``p=None`` the inputs are object
    arrays of Python ints and the rows are exact.

    One power-free pass: gather each monomial's slot coordinates and take
    prefix and suffix products over the d slots; the value row is the full
    product.  Slot s's product with the other slots, ``prefix[s] *
    suffix[s+1]``, is d(x^e_j)/dx_k with k = ``var[j, s]`` divided by its
    exponent, and each slot of a run of equal variables gives the same one.
    So a combination row is the sum over the d slots of ``coeffs[r, var[j, s]]``
    times the slot products (the slot rule, :func:`_slot_rule`), or, when the
    rows use no more partials than there are slots, the jacobian (the product
    rule at the first slot of each variable) summed over the partials the rows
    use, one at a time: the last one is unused for affine directions (v, 0).

    With canonical residues in, a product of up to d of them is at most
    (p-1)**d, a slot sum at most d*(p-1)**d and a jacobian entry at most
    d*(p-1)**(d-1).  While d*(p-1)**d < 2**63 (up to d = 4 at p = 31991, d = 2
    near 2**26) the products are reduced only as the rows are written;
    otherwise every product is reduced as it is taken.  A jacobian row sum
    of reduced entries stays below nv*(p-1)**2, which must be below 2**63.
    """
    exps, var, j, s, k, e = layout
    m, nv = exps.shape
    d = var.shape[1]
    value = np.asarray(with_value, dtype=bool)
    if out is None:
        sizes = value + np.bincount(owner, minlength=len(points))
        first = np.cumsum(sizes) - sizes
        out = np.empty((sizes.sum(), m), dtype=object if p is None else np.int64)
    if not len(points):
        return out
    n_pts = len(points)
    if p is None:
        dtype, e = object, e.astype(object)
        final = step = lambda a: a
    elif nv * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"prime {p} is too large for exact int64 rows in {nv} variables")
    else:
        dtype, final = np.int64, (lambda a: a % p)
        step = final if d * (p - 1) ** d >= 2**63 else (lambda a: a)
    slot = final(np.asarray(points, dtype=dtype))[:, var.T]
    prefix = [np.ones((n_pts, m), dtype=dtype)]  # prefix[t]: the product of slots 0..t-1
    suffix = prefix[:]  # reversed below: suffix[t] is the product of slots t..d-1
    for t in range(d):
        prefix.append(step(prefix[-1] * slot[:, t]))
        suffix.append(step(suffix[-1] * slot[:, d - 1 - t]))
    suffix.reverse()
    out[first[value]] = final(prefix[d][value])

    if not len(owner):
        return out
    partials = np.flatnonzero(coeffs.any(axis=0))
    if _slot_rule(d, len(partials), p):
        mixed = coeffs[:, var[:, 0]] * step(prefix[0] * suffix[1])[owner]
        for t in range(1, d):
            mixed += coeffs[:, var[:, t]] * step(prefix[t] * suffix[t + 1])[owner]
    else:
        prefix, suffix = np.stack(prefix, axis=1), np.stack(suffix, axis=1)
        jac = np.zeros((n_pts, nv, m), dtype=dtype)
        jac[:, k, j] = final(prefix[:, s, j] * suffix[:, s + 1, j] * e)
        mixed = np.zeros((len(owner), m), dtype=dtype)
        for c in partials:
            mixed += coeffs[:, c, None] * jac[owner, c]
    per_point = np.bincount(owner, minlength=n_pts)
    combo = np.cumsum(per_point) - per_point  # first combination row of each point
    out[first[owner] + value[owner] + np.arange(len(owner)) - combo[owner]] = final(mixed)
    return out


@lru_cache(maxsize=64)
def _homogenised(basis: MonomialBasis):
    """The slot layout of the affine basis with each exponent e written as (e, d - |e|), in order.

    Cached by the affine basis, so an affine build makes one cache lookup.
    """
    d = basis.d
    return _slot_layout(MonomialBasis(HOMOGENEOUS, basis.n, d,
                                      tuple(e + (d - sum(e),) for e in basis.exponents)))


# ---------------------------------------------------------------------------
# component specs and scheme instances (projective setting)

@dataclass(frozen=True)
class ComponentSpec:
    """One component: its length, where it sits, and (on a subspace) its residual.

    ``support`` is either GENERAL or the index of a coordinate subspace; the
    residual counts the component's directions transversal to that subspace.
    A double point (length n+1) sits fully transversal (residual 3 for a
    codimension-3 subspace); shorter components may give up transversal
    directions one at a time, down to the window allowed for their length.
    """

    length: int
    support: object = GENERAL  # GENERAL or int index into the subspace list
    residual: int | None = None

    def validate(self, n: int, n_subspaces: int) -> None:
        if not 1 <= self.length <= n + 1:
            raise ValueError(f"length must lie in [1, {n + 1}]: {self.length}")
        if self.support == GENERAL:
            if self.residual is not None:
                raise ValueError("free components carry no residual prescription")
            return
        if not isinstance(self.support, int) or not 0 <= self.support < n_subspaces:
            raise ValueError(f"unknown subspace index {self.support!r}")
        r = self.residual
        if r is None:
            raise ValueError("components on a subspace need a residual in [0, 3]")
        lo = max(0, 3 - (n + 1 - self.length))
        if not lo <= r <= min(3, self.length):
            raise ValueError(
                f"residual {r} impossible for length {self.length} in P^{n}"
            )


@dataclass(frozen=True)
class ComponentInstance:
    spec: ComponentSpec
    point: tuple
    combo: tuple | None  # rows of the random combination matrix, or None = full jacobian


@dataclass(frozen=True)
class SchemeInstance:
    n: int
    prime: int
    seed: int
    subspaces: tuple
    components: tuple

    @property
    def degree(self) -> int:
        return sum(c.spec.length for c in self.components)


def scheme_degree(specs) -> int:
    return sum(s.length for s in specs)


def degree_bookkeeping(specs, subspaces, which) -> tuple:
    """(deg X, deg(X cap S), deg(X:S)) for S a subspace index or an iterable of them.

    Components on a subspace meet it in length - residual; at general points
    the listed subspaces are pairwise disjoint from each other's supports and
    from free components, so the union rule has no correction terms.
    """
    if isinstance(which, int):
        which = (which,)
    which = set(which)
    deg = scheme_degree(specs)
    trace = sum(
        s.length - s.residual
        for s in specs
        if s.support != GENERAL and s.support in which
    )
    return deg, trace, deg - trace


def _check_subspaces(n, subspaces) -> None:
    """Refuse a subspace whose zeroed set is not in P^n or leaves it no point."""
    for sub in subspaces:
        _check_zeroed(n, sub)
        if sub.codim > n:
            raise ValueError(f"subspace {sorted(sub.zeroed)} has no points in P^{n}")


def _check_basis(basis, n, subspaces, used) -> None:
    """Refuse a basis that is not of degree-d forms on P^n or does not vanish where it must.

    ``used`` holds the indices of the ``subspaces`` a scheme's components
    sit on.
    """
    if basis.mode != HOMOGENEOUS or basis.n != n:
        raise ValueError("basis/scheme mismatch")
    for i in sorted(used):
        if not _vanishes(basis, subspaces[i]):
            raise ValueError(
                "components on a subspace need a basis of forms vanishing on it"
            )


def _draw_point(rng, n, prime, zeroed):
    for attempt in range(MAX_REDRAWS + 1):
        pt = [0 if i in zeroed else rng.randrange(prime) for i in range(n + 1)]
        if any(pt):
            return tuple(pt)
    raise DegenerateDrawError(f"could not draw a nonzero point over GF({prime})")


def random_instance(n, specs, subspaces=(), prime=DEFAULT_PRIME, seed=0) -> SchemeInstance:
    """Draw a concrete scheme: uniform coordinates, independent direction data.

    Support points on a subspace have its zeroed coordinates pinned to 0.
    Residual-r components must meet the subspace transversally in exactly r
    directions, which is enforced on the combination rows restricted to the
    zeroed coordinates.  A modulus that is not a prime below 2**26 raises
    ValueError before anything is drawn.
    """
    subspaces = tuple(subspaces)
    _check_subspaces(n, subspaces)
    specs = tuple(specs)
    for s in specs:
        s.validate(n, len(subspaces))
    prime = _check_prime(prime)
    rng = random.Random(seed)
    instances = []
    seen_points = set()
    for s in specs:
        zeroed = subspaces[s.support].zeroed if s.support != GENERAL else frozenset()
        for attempt in range(MAX_REDRAWS + 1):
            point = _draw_point(rng, n, prime, zeroed)
            if point not in seen_points:
                break
        else:
            raise DegenerateDrawError(
                f"could not draw distinct support points over GF({prime})"
            )
        seen_points.add(point)

        if s.support == GENERAL:
            n_rows = 0 if s.length == n + 1 else s.length - 1
            check_cols = None
        else:
            n_rows = s.residual
            check_cols = sorted(zeroed)
        combo = None
        if n_rows:
            for attempt in range(MAX_REDRAWS + 1):
                combo = tuple(
                    tuple(rng.randrange(prime) for _ in range(n + 1))
                    for _ in range(n_rows)
                )
                checked = combo if check_cols is None else [
                    [r[j] for j in check_cols] for r in combo
                ]
                if rank(checked, prime) == n_rows:
                    break
            else:
                raise DegenerateDrawError(
                    f"could not draw independent directions over GF({prime})"
                )
        instances.append(ComponentInstance(s, point, combo))
    return SchemeInstance(n, prime, seed, subspaces, tuple(instances))


def condition_matrix_projective(instance: SchemeInstance, basis: MonomialBasis):
    """Stack every component's condition rows against the given form basis.

    A free component of length l contributes its value row and l - 1 rows
    of jacobian combinations; a double point (l = n+1) contributes the full
    jacobian, and its value row only when p divides the degree d.  By
    Euler's relation d*F = sum x_i dF/dx_i the value row is a combination of
    the jacobian rows exactly when d is a unit mod p.  A component on a
    subspace contributes its residual many rows.
    """
    comps = instance.components
    prime = _check_prime(instance.prime)
    _check_basis(basis, instance.n, instance.subspaces,
                 {c.spec.support for c in comps} - {GENERAL})
    nv = basis.nvars
    euler = basis.d % prime != 0
    full = np.eye(nv, dtype=np.int64).tolist()
    with_value, coeffs, per_point = [], [], []
    for c in comps:
        free = c.spec.support == GENERAL
        whole = free and c.spec.length == nv
        with_value.append(free and not (whole and euler))
        rows = full if whole else c.combo or ()
        coeffs += rows
        per_point.append(len(rows))
    points = np.array([c.point for c in comps], dtype=np.int64).reshape(-1, nv)
    owner = np.repeat(np.arange(len(comps)), per_point)
    return _projective_rows(_slot_layout(basis), points, np.array(with_value, dtype=bool),
                            np.array(coeffs, dtype=np.int64).reshape(-1, nv), owner, prime)


def _vanishes(basis: MonomialBasis, sub) -> bool:
    """Whether every form of ``basis`` vanishes on the coordinate subspace ``sub``."""
    return bool(_slot_layout(basis)[0][:, sorted(sub.zeroed)].any(axis=1).all())


def _randbelow_stream(rng: random.Random, p: int, count: int):
    """The next ``count`` values of ``rng.randrange(p)``, as a uint32 array.

    ``randrange(p)`` takes ``getrandbits(k)``, k = p.bit_length(), until a
    value is below p.  For k <= 32 each ``getrandbits(k)`` is one 32-bit
    Mersenne Twister word shifted right by 32 - k, and ``getrandbits(32 * w)``
    is w consecutive words, the first least significant; so one bulk call,
    shifted and filtered, gives the same values.
    """
    k = p.bit_length()
    parts, got = [], 0
    while got < count:
        need = count - got
        words = (need << k) // p + need // 8 + 8
        raw = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                            dtype="<u4") >> (32 - k)
        parts.append(raw[raw < p])
        got += parts[-1].size
    return np.concatenate(parts)[:count] if parts else np.empty(0, np.uint32)


@lru_cache(maxsize=None)
def _stream_is_randrange() -> bool:
    """Whether :func:`_randbelow_stream` replays ``randrange`` on this Python."""
    for p in (5, DEFAULT_PRIME):
        rng = random.Random(7)
        if _randbelow_stream(random.Random(7), p, 64).tolist() != [
                rng.randrange(p) for _ in range(64)]:
            return False
    return True


# Cells (points x nv x M) one chunk of a batched build may count: the size
# of the jacobian stack a chunk on the jacobian rule allocates.  A chunk on
# the slot rule (every cubic sweep's: d = 3 slots against nv >= 6 partials)
# allocates none; its scratch (slot coordinates, 2(d+1) prefix and suffix
# products of points x M, and the combination terms) is about as large.
# On 128 seeded P^8 sweep instances of order 63 (2-vCPU Xeon, numpy 2.4) a
# chunk cap of 2**15 to 2**19 cells built them equally fast and 2**14 about
# 20% slower, by both rules (2**14 to 2**17 re-measured on the slot rule
# with benchmarks/bench_rank.py); with the jacobian rule, the peak RSS of one
# small-cases benchmark pass (the quadric brute force, whose tiny matrices
# make many points per chunk) was 37.3, 37.6 and 38.8 MB at 2**14, 2**15
# and 2**16, against 37.1 MB drawing one instance at a time.
_BUILD_CELLS = 1 << 15


class ProjectiveDraw(NamedTuple):
    """The builder of a random scheme's condition matrices, one per seed.

    Calling it draws and builds one instance; :func:`condition_matrices`
    builds a round's draws that share ``(n, subspaces, basis, prime)``
    together and gives the same matrices.
    """

    n: int
    specs: tuple
    subspaces: tuple
    basis: MonomialBasis
    prime: int

    def __call__(self, seed):
        inst = random_instance(self.n, self.specs, self.subspaces, self.prime, seed)
        return condition_matrix_projective(inst, self.basis)


def condition_stacks(draws) -> list:
    """The matrices ``build(seed)`` gives for the ``(build, seed)`` draws, one stack per shape.

    Returns ``(index, stack)`` pairs: ``stack`` is a (B, m, M) array whose
    member k is draw ``index[k]``'s matrix, equal to ``build(seed)`` in
    dtype, shape and bytes.  The int64 matrices of one shape share one
    stack; any other matrix is a stack of one.  The :class:`ProjectiveDraw`
    builders that share ``(n, subspaces, basis, prime)`` are drawn and built
    as one batch, a key with one draw as a batch of one.  Each seed's stream
    is read in one bulk call and laid out as :func:`random_instance` uses it
    when it redraws nothing; the batch's draws are then checked together
    (nonzero and distinct points, combinations independent on their checked
    columns) and built in chunks of about ``_BUILD_CELLS`` cells, each
    chunk's rows written straight into the stacks.  Three kinds of draw are
    built by calling their builder, in input order, and copied into their
    stack: any other builder; every draw on a Python whose ``randrange``
    stream :func:`_randbelow_stream` does not replay; and a draw that fails
    a check, as only this sequential path redraws.  A batch first checks its
    subspaces, specs, prime and basis as the sequential path does, so an
    invalid draw raises that path's error before any matrix is built.
    """
    draws = list(draws)
    groups = defaultdict(list)
    batched = _stream_is_randrange()
    for i, (build, _) in enumerate(draws):
        if batched and isinstance(build, ProjectiveDraw):
            groups[build.n, build.subspaces, build.basis, build.prime].append(i)
    batches, shape, redo = [], {}, set()  # shape: draw -> (m, M) of its int64 matrix
    for (n, subspaces, basis, prime), members in groups.items():
        table, counts, prime = _component_table(n, subspaces, basis, prime,
                                                 [draws[i][0].specs for i in members])
        layout = _draw_layout(n, subspaces, basis.d, table, counts,
                              [draws[i][1] for i in members], prime)
        draw, _, with_value, owner, *_, ok = layout
        rows = np.bincount(draw, weights=with_value, minlength=len(members)).astype(np.int64)
        rows += np.bincount(draw[owner], minlength=len(members))
        shape.update((i, (m, len(basis))) for i, m in zip(members, rows.tolist()))
        batches.append((basis, prime, counts, layout, members, rows))
        redo.update(i for i, good in zip(members, ok) if not good)
    alone = {i: np.asarray(build(seed)) for i, (build, seed) in enumerate(draws)
             if i not in shape or i in redo}
    for i, matrix in alone.items():
        if i not in shape and matrix.dtype == np.int64 and matrix.ndim == 2:
            shape[i] = matrix.shape
    # the stacks of one width M are consecutive rows of one int64 buffer, so a
    # chunk of a batch writes its rows with one scatter; at[i] is draw i's first row
    by_width = defaultdict(lambda: defaultdict(list))
    for i in sorted(shape):
        m, width = shape[i]
        by_width[width][m].append(i)
    buffers, at, stacks = {}, {}, []
    for width, shapes in by_width.items():
        height = sum(m * len(index) for m, index in shapes.items())
        buffers[width] = np.empty((height, width), dtype=np.int64)
        lo = 0
        for m, index in shapes.items():
            stacks.append((index, buffers[width][lo:lo + m * len(index)]
                           .reshape(len(index), m, width)))
            at.update((i, lo + m * k) for k, i in enumerate(index))
            lo += m * len(index)
    for basis, prime, counts, layout, take, rows in batches:
        _build_chunks(_slot_layout(basis), prime, counts, layout, rows,
                      buffers[len(basis)], np.array([at[i] for i in take], dtype=np.int64))
    for index, stack in stacks:
        for k, i in enumerate(index):
            if i in alone:
                stack[k] = alone.pop(i)
    return stacks + [([i], matrix[None]) for i, matrix in alone.items()]


def condition_matrices(draws) -> list:
    """The matrix ``build(seed)`` gives for each ``(build, seed)`` draw, in input order.

    The members of :func:`condition_stacks`' stacks, listed by draw.
    """
    draws = list(draws)
    out = [None] * len(draws)
    for index, stack in condition_stacks(draws):
        for i, matrix in zip(index, stack):
            out[i] = matrix
    return out


def _component_table(n, subspaces, basis, prime, draw_specs):
    """A batch's components as a table, each draw's component count, and the prime as an int.

    ``draw_specs`` holds each draw's specs.  The subspaces, then each spec,
    the prime and the basis are checked by the sequential path's own checks,
    so an invalid draw raises its error.  A table row is (length, support,
    residual) with support -1 for a free component and residual 0 where
    there is none; rows follow the draws' components in order.  Specs are
    keyed by identity, so each spec object is validated once a call; the
    job builders of ``verify`` make one object per distinct spec, so a trial
    round validates each distinct spec once, not once per component.
    """
    _check_subspaces(n, subspaces)
    kinds, code = [], {}  # id(spec) -> index of its row in kinds
    for specs in draw_specs:
        for s in specs:
            if id(s) not in code:
                s.validate(n, len(subspaces))
                code[id(s)] = len(kinds)
                free = s.support == GENERAL
                kinds.append((s.length, -1, 0) if free else (s.length, s.support, s.residual))
    prime = _check_prime(prime)
    kinds = np.array(kinds, dtype=np.int64).reshape(-1, 3)
    _check_basis(basis, n, subspaces, set(kinds[:, 1].tolist()) - {-1})
    codes = np.array([code[id(s)] for specs in draw_specs for s in specs], dtype=np.int64)
    return kinds[codes], np.array([len(specs) for specs in draw_specs], dtype=np.int64), prime


def _draw_layout(n, subspaces, d, table, counts, seeds, p):
    """Draw the components of ``table`` from each seed's stream and check them together.

    A draw's components take, one after the other, their point's coordinates
    off its subspace and then their combination rows of n+1 entries each:
    the values :func:`random_instance` reads when it redraws nothing.  The
    rows of a double point are the unit vectors, read from the identity
    block appended to the values; it has a value row as well only when p
    divides the degree ``d``, as in :func:`condition_matrix_projective`.
    Returns, in draw order, ``draw`` (C,): the draw of each component;
    ``points`` (C, nv); ``with_value`` (C,); ``owner`` (R,): the component
    of each combination row, nondecreasing; ``start`` (R,): where each row's
    nv coefficients start in ``values``; ``values``; and ``ok`` (B,):
    whether each draw passed every check.
    """
    nv = n + 1
    length, sup, residual = table.T
    zmask = np.zeros((len(subspaces) + 1, nv), dtype=bool)  # row -1: free components
    for i, sub in enumerate(subspaces):
        zmask[i, sorted(sub.zeroed)] = True
    zero = zmask[sup]
    free = sup < 0
    whole = free & (length == nv)
    n_rows = np.where(free, np.where(whole, 0, length - 1), residual)
    own = nv - zero.sum(axis=1)  # coordinates the point draws
    block = own + n_rows * nv
    draw = np.repeat(np.arange(len(seeds)), counts)
    per_draw = np.bincount(draw, weights=block, minlength=len(seeds)).astype(np.int64)
    values = np.concatenate([_randbelow_stream(random.Random(seed), p, k)
                             for seed, k in zip(seeds, per_draw.tolist())]
                            + [np.eye(nv, dtype=np.uint32).ravel(), np.zeros(1, np.uint32)])
    eye_at = values.size - 1 - nv * nv
    off = np.cumsum(block) - block
    points = values[np.where(zero, -1, off[:, None] + np.cumsum(~zero, axis=1) - 1)]

    n_mixed = n_rows + whole * nv
    owner = np.repeat(np.arange(len(table)), n_mixed)
    j = np.arange(owner.size) - np.repeat(np.cumsum(n_mixed) - n_mixed, n_mixed)
    start = np.where(whole[owner], eye_at, (off + own)[owner]) + j * nv

    bad = np.zeros(len(seeds), dtype=bool)
    bad[draw[~points.any(axis=1)]] = True
    order = np.lexsort(np.vstack([points.T, draw]))
    pts, drw = points[order], draw[order]
    bad[drw[1:][(drw[1:] == drw[:-1]) & (pts[1:] == pts[:-1]).all(axis=1)]] = True
    groups = n_rows * (len(subspaces) + 1) + sup + 1  # by (rows, support)
    for key in sorted(set(groups[n_rows > 0].tolist())):
        r, s = divmod(key, len(subspaces) + 1)
        g = np.flatnonzero(groups == key)
        cols = np.arange(nv) if s == 0 else np.array(sorted(subspaces[s - 1].zeroed))
        stack = values[(off + own)[g, None, None] + np.arange(r)[:, None] * nv + cols]
        bad[draw[g[rank_mod(stack, p) < r]]] = True
    with_value = free & ~whole if d % p else free
    return draw, points, with_value, owner, start, values, ~bad


def _build_chunks(layout, p, counts, drawn, rows, out, at) -> None:
    """Write each draw's condition matrix to ``out`` from row ``at[b]`` on.

    ``layout`` is the basis's slot layout, ``drawn`` the :func:`_draw_layout`
    of the batch and ``rows`` each draw's row count; the draws are built
    about ``_BUILD_CELLS`` cells at a time.
    """
    draw, points, with_value, owner, start, values, _ = drawn
    n_draws, (m, nv) = len(counts), layout[0].shape
    sizes = with_value + np.bincount(owner, minlength=len(draw))
    first = np.cumsum(sizes) - sizes  # each point's first row, counted over the batch
    first += (at - (np.cumsum(rows) - rows))[draw]
    mixed = np.bincount(draw[owner], minlength=n_draws)
    cells = (counts * nv * m).tolist()
    comp_end, mixed_end = np.cumsum(counts).tolist(), np.cumsum(mixed).tolist()
    lo = 0
    while lo < n_draws:
        hi, size = lo + 1, cells[lo]
        while hi < n_draws and size + cells[hi] <= _BUILD_CELLS:
            size += cells[hi]
            hi += 1
        ca, cb = comp_end[lo] - int(counts[lo]), comp_end[hi - 1]
        ra, rb = mixed_end[lo] - int(mixed[lo]), mixed_end[hi - 1]
        _projective_rows(layout, points[ca:cb], with_value[ca:cb],
                         values[start[ra:rb, None] + np.arange(nv)], owner[ra:rb] - ca, p,
                         out, first[ca:cb])
        lo = hi


def expected_row_count(specs) -> int:
    return sum(
        s.length if s.support == GENERAL else s.residual for s in specs
    )


def hilbert_function(instance: SchemeInstance, d: int, subspaces=None) -> int:
    """Conditions actually imposed on degree-d forms (through the given subspaces).

    Equals the scheme degree exactly when the instance imposes independent
    conditions.
    """
    from .monomials import vanishing_basis

    if subspaces:
        basis = vanishing_basis(instance.n, d, subspaces)
    else:
        basis = build_basis(HOMOGENEOUS, instance.n, d)
    return rank(condition_matrix_projective(instance, basis), instance.prime)


# ---------------------------------------------------------------------------
# the affine interpolation problem

@dataclass
class InterpolationProblem:
    """Points, per-point direction sets, and optionally the assigned values.

    ``values[i]`` holds the value at the i-th point followed by one assigned
    directional derivative per direction.  Entries are exact scalars (ints
    or Fractions); ``prime``, when set, is the field the problem asks for, and
    the solver reduces the scalars mod it.
    """

    n: int
    d: int
    points: list
    directions: list
    values: list | None = None
    prime: int | None = None

    def __post_init__(self):
        if len(self.directions) != len(self.points):
            raise ValueError("one direction set per point required")
        for p in self.points:
            if len(p) != self.n:
                raise ValueError(f"point {p} does not live in K^{self.n}")
        for ds in self.directions:
            if len(ds) > self.n:
                raise ValueError(f"at most n={self.n} directions per point")
            for v in ds:
                if len(v) != self.n:
                    raise ValueError("direction/ambient dimension mismatch")
        if self.values is not None:
            if len(self.values) != len(self.points):
                raise ValueError("one value group per point required")
            for vals, ds in zip(self.values, self.directions):
                if len(vals) != len(ds) + 1:
                    raise ValueError("each point takes one value plus one per direction")

    @property
    def a_profile(self) -> tuple:
        return tuple(len(ds) for ds in self.directions)

    def condition_count(self) -> int:
        return sum(a + 1 for a in self.a_profile)


def condition_matrix_affine(prob: InterpolationProblem, basis: MonomialBasis | None = None,
                            prime: int | None = None):
    """One evaluation row per point followed by its directional-derivative rows.

    Both fields build the rows by :func:`_affine_rows`.  Over Q the rows are
    exact (its integer rows with their scales divided out); with a prime
    they are lists of residues.
    """
    if basis is None:
        basis = build_basis(AFFINE, prob.n, prob.d)
    if basis.mode != AFFINE or basis.n != prob.n or basis.d != prob.d:
        raise ValueError("basis/problem mismatch")
    prime = _check_prime(prob.prime if prime is None else prime)
    rows, scales = _affine_rows(prob, basis, prime)
    return [row if s == 1 else [Fraction(a, s) for a in row]
            for row, s in zip(rows.tolist(), scales)]


def _affine_rows(prob: InterpolationProblem, basis: MonomialBasis, p):
    """The condition rows of ``prob`` and each row's scale, built as a projective scheme.

    A point x of K^n is the point (X : D) of P^n with x = X/D, a direction
    v = V/E is (V, 0), and the rows are :func:`_projective_rows` of the
    homogenised basis there.  Over GF(p) D = E = 1, the rows are an int64
    array of residues and every scale is 1.  Over Q (``p=None``) D and E are
    the lcms of the denominators and the rows are an object array of Python
    ints: x^e = X^e D^(d-|e|) / D^d, so a value row is the exact row times
    D^d, and d/dX_k of the homogenised monomial is D^(d-1) d(x^e)/dx_k, so a
    derivative row is the exact row times D^(d-1) E.  Coordinates are read by
    ``as_fraction`` over Q and as integers over GF(p), never rounded.
    """
    n, d, n_pts = prob.n, prob.d, len(prob.points)
    vectors = [*prob.points, *(v for ds in prob.directions for v in ds)]
    if p is None:
        dtype, vectors = object, [[as_fraction(x) for x in v] for v in vectors]
        dens = [lcm(*(x.denominator for x in v)) for v in vectors]
        ints = [[x.numerator * (den // x.denominator) for x in v] for v, den in zip(vectors, dens)]
    else:
        dtype, dens = np.int64, [1] * n_pts
        ints = _residues([x for v in vectors for x in v], p)
    coords = np.empty((len(vectors), n + 1), dtype=dtype)
    coords[:, :n] = np.array(ints, dtype=dtype).reshape(-1, n)
    coords[:, n] = dens[:n_pts] + [0] * (len(vectors) - n_pts)
    if (coords[n_pts:] == 0).all(axis=1).any():
        raise ValueError("zero direction")
    owner = np.repeat(np.arange(n_pts), [len(ds) for ds in prob.directions])
    rows = _projective_rows(_homogenised(basis), coords[:n_pts], np.ones(n_pts, dtype=bool),
                            coords[n_pts:], owner, p)
    if p is not None:
        return rows, [1] * len(rows)
    common = iter(dens[n_pts:])
    scales = []
    for den, ds in zip(dens, prob.directions):
        scales += [den**d] + [den ** max(d - 1, 0) * next(common) for _ in ds]
    return rows, scales


def condition_rhs(prob: InterpolationProblem) -> list:
    if prob.values is None:
        raise ValueError("problem carries no assigned values")
    rhs = []
    for vals in prob.values:
        rhs.extend(vals)
    return rhs


def integer_system_affine(prob: InterpolationProblem, basis: MonomialBasis):
    """Integer rows and right-hand side over Q with the solutions of the exact system.

    The rows are :func:`_affine_rows`' over Q; each right-hand side is
    scaled by its row's scale, and a row whose scaled value is not an
    integer is multiplied through by that value's denominator.
    """
    rows, scales = _affine_rows(prob, basis, None)
    rows = rows.tolist()
    rhs = []
    for row, scale, b in zip(rows, scales, condition_rhs(prob)):
        b = as_fraction(b) * scale
        if b.denominator != 1:
            row[:] = [a * b.denominator for a in row]
        rhs.append(b.numerator)
    return rows, rhs


def random_affine_problem(n, d, a_profile, prime=DEFAULT_PRIME, seed=0) -> InterpolationProblem:
    """A random affine problem over GF(p) with the given derivative counts.

    A count outside [0, n] or a modulus that is not a prime below 2**26
    raises ValueError before anything is drawn.
    """
    for a in a_profile:
        if not 0 <= a <= n:
            raise ValueError(f"direction counts must lie in [0, n={n}], got {a}")
    prime = _check_prime(prime)
    rng = random.Random(seed)
    points = []
    seen = set()
    for _ in a_profile:
        for attempt in range(MAX_REDRAWS + 1):
            pt = tuple(rng.randrange(prime) for _ in range(n))
            if pt not in seen:
                break
        else:
            raise DegenerateDrawError(f"could not draw distinct points over GF({prime})")
        seen.add(pt)
        points.append(list(pt))
    directions = []
    for a in a_profile:
        for attempt in range(MAX_REDRAWS + 1):
            ds = [[rng.randrange(prime) for _ in range(n)] for _ in range(a)]
            if rank(ds, prime) == a:
                break
        else:
            raise DegenerateDrawError(
                f"could not draw independent directions over GF({prime})"
            )
        directions.append(ds)
    return InterpolationProblem(n, d, points, directions, prime=prime)
