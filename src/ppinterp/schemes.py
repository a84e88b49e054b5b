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
  basis of forms vanishing on the subspace).  One component plan,
  :func:`_plan`, gives these rows to the draw, the build and the batch;

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
number of times, by :func:`_redraw`: each has probability about 1/p, so a
handful of retries is already overkill.
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


def degree_bookkeeping(specs, which) -> tuple:
    """(deg X, deg(X cap S), deg(X:S)) for S a subspace index or an iterable of them.

    Components on a subspace meet it in length - residual; at general points
    the listed subspaces are pairwise disjoint from each other's supports and
    from free components, so the union rule has no correction terms.
    """
    which = {which} if isinstance(which, int) else set(which)
    deg = sum(s.length for s in specs)
    trace = sum(s.length - s.residual for s in specs if s.support in which)
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


def _plan(spec, n, d, p) -> tuple:
    """How a component of a scheme in P^n enters the condition matrix of degree-d forms over GF(p).

    Returns (drawn, whole, value).  ``drawn`` counts the random combination
    rows the component draws: its residual on a subspace, l - 1 for a free
    component of length l <= n, 0 for a free double point.  ``whole`` says
    whether its rows are the n+1 unit vectors, the full jacobian of a free
    double point.  ``value`` says whether it has a value row: a free
    component has one, but a double point only when p divides d, as by
    Euler's relation d*F = sum x_i dF/dx_i the value row is otherwise a
    combination of the jacobian rows.
    """
    if spec.support != GENERAL:
        return spec.residual, False, False
    whole = spec.length == n + 1
    return (0 if whole else spec.length - 1), whole, not (whole and d % p)


def _redraw(draw, good, what, prime):
    """``draw()`` until ``good`` holds of what it drew, at most ``MAX_REDRAWS + 1`` times.

    Gives up with DegenerateDrawError: "could not draw {what} over GF(prime)".
    """
    for _ in range(MAX_REDRAWS + 1):
        drawn = draw()
        if good(drawn):
            return drawn
    raise DegenerateDrawError(f"could not draw {what} over GF({prime})")


def _draw_point(rng, n, prime, zeroed):
    return _redraw(lambda: tuple(0 if i in zeroed else rng.randrange(prime) for i in range(n + 1)),
                   any, "a nonzero point", prime)


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
    instances, seen = [], set()
    for s in specs:
        zeroed = subspaces[s.support].zeroed if s.support != GENERAL else frozenset()
        point = _redraw(lambda: _draw_point(rng, n, prime, zeroed), lambda pt: pt not in seen,
                        "distinct support points", prime)
        seen.add(point)
        rows = _plan(s, n, 0, prime)[0]  # the draw needs no degree: it has no value row to draw
        cols = sorted(zeroed) or range(n + 1)
        combo = None
        if rows:
            combo = _redraw(
                lambda: tuple(tuple(rng.randrange(prime) for _ in range(n + 1))
                              for _ in range(rows)),
                lambda c: rank([[r[j] for j in cols] for r in c], prime) == rows,
                "independent directions", prime)
        instances.append(ComponentInstance(s, point, combo))
    return SchemeInstance(n, prime, seed, subspaces, tuple(instances))


def condition_matrix_projective(instance: SchemeInstance, basis: MonomialBasis):
    """Stack every component's condition rows against the given form basis.

    Each component gives the rows of its :func:`_plan`: its value row if it
    has one, then its drawn combinations of the jacobian rows, or the full
    jacobian for a free double point.
    """
    comps = instance.components
    prime = _check_prime(instance.prime)
    _check_basis(basis, instance.n, instance.subspaces,
                 {c.spec.support for c in comps} - {GENERAL})
    nv = basis.nvars
    full = np.eye(nv, dtype=np.int64).tolist()
    with_value, coeffs, per_point = [], [], []
    for c in comps:
        _, whole, value = _plan(c.spec, instance.n, basis.d, prime)
        with_value.append(value)
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
    """The builder of a random scheme's condition matrices, one per seed and prime.

    Calling it as ``build(seed, prime)`` draws one instance in P^n, n being
    ``basis.n``, and builds its matrix; :func:`condition_matrices` builds a
    round's draws that share ``(subspaces, basis)`` together and gives the
    same matrices.  It holds no prime: a trial round has one, and hands it
    to every builder.
    """

    specs: tuple
    subspaces: tuple
    basis: MonomialBasis

    def __call__(self, seed, prime):
        inst = random_instance(self.basis.n, self.specs, self.subspaces, prime, seed)
        return condition_matrix_projective(inst, self.basis)


def condition_stacks(draws, prime) -> list:
    """The matrices ``build(seed, prime)`` gives for ``(build, seed)`` draws, one stack per shape.

    Returns ``(index, stack)`` pairs: ``stack`` is a (B, m, M) array whose
    member k is draw ``index[k]``'s matrix, equal to ``build(seed, prime)``
    in dtype, shape and bytes.  The int64 matrices of one shape share one
    stack; any other matrix is a stack of one.  The :class:`ProjectiveDraw`
    builders that share ``(subspaces, basis)`` are drawn and built as one
    batch, a key with one draw as a batch of one.  The round's draws are
    taken in input order in one pass, which calls every other builder and
    checks each :class:`ProjectiveDraw` (:func:`_admit`) before any batch is
    drawn.  A round raises the sequential path's error: on an error at draw
    i it builds ``draws[:i]``, as that path would first, and then calls
    draw i's own builder, which raises what that path raises for it.  Each
    batch component takes the rows of its spec's :func:`_plan`.  Each seed's
    stream is read in one bulk call and laid out as :func:`random_instance`
    uses it when it redraws nothing; the batch's draws are then checked
    together (nonzero and distinct points, combinations independent on their
    checked columns) and built in chunks of about ``_BUILD_CELLS`` cells,
    each chunk's rows written straight into the stacks.  Three kinds of draw
    are built by calling their builder and copied into their stack: any
    other builder; every draw on a Python whose ``randrange`` stream
    :func:`_randbelow_stream` does not replay; and, after the pass and in
    input order, a draw that fails a check, as only this sequential path
    redraws.
    """
    draws = list(draws)
    batched = _stream_is_randrange()
    keys, alone = {}, {}  # keys: (subspaces, basis) -> its _Batch
    batches, shape, redo = [], {}, []  # shape: draw -> (m, M) of its int64 matrix
    for i, (build, seed) in enumerate(draws):
        try:
            if batched and isinstance(build, ProjectiveDraw):
                _admit(keys, build, i, prime)
                continue
            alone[i] = matrix = np.asarray(build(seed, prime))
        except Exception:
            condition_stacks(draws[:i], prime)
            build(seed, prime)
            raise
        if matrix.dtype == np.int64 and matrix.ndim == 2:
            shape[i] = matrix.shape
    for (subspaces, basis), batch in keys.items():
        members, n = batch.members, basis.n
        prime = _check_prime(prime)  # checked in the pass, read as an int
        counts = np.array([len(draws[i][0].specs) for i in members], dtype=np.int64)
        table = _component_table(n, basis.d, prime, batch.specs, batch.codes)
        layout = _draw_layout(n, subspaces, table, counts, [draws[i][1] for i in members], prime)
        draw, _, with_value, owner, *_, ok = layout
        rows = np.bincount(draw, weights=with_value, minlength=len(members)).astype(np.int64)
        rows += np.bincount(draw[owner], minlength=len(members))
        shape.update((i, (m, len(basis))) for i, m in zip(members, rows.tolist()))
        batches.append((basis, counts, layout, members, rows))
        redo += (i for i, good in zip(members, ok) if not good)
    for i in sorted(redo):
        build, seed = draws[i]
        alone[i] = np.asarray(build(seed, prime))
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
    for basis, counts, layout, take, rows in batches:
        _build_chunks(_slot_layout(basis), prime, counts, layout, rows,
                      buffers[len(basis)], np.array([at[i] for i in take], dtype=np.int64))
    for index, stack in stacks:
        for k, i in enumerate(index):
            if i in alone:
                stack[k] = alone.pop(i)
    return stacks + [([i], matrix[None]) for i, matrix in alone.items()]


def condition_matrices(draws, prime) -> list:
    """The matrix ``build(seed, prime)`` gives for each ``(build, seed)`` draw, in input order.

    The members of :func:`condition_stacks`' stacks, listed by draw.
    """
    draws = list(draws)
    out = [None] * len(draws)
    for index, stack in condition_stacks(draws, prime):
        for i, matrix in zip(index, stack):
            out[i] = matrix
    return out


class _Batch(NamedTuple):
    """The draws of one batch key, as :func:`_admit` takes them in a round."""

    members: list  # each draw's index in the round
    specs: list  # the distinct specs, in order of first use
    code: dict  # id(spec) -> its index in specs
    codes: list  # each component's index in specs, draw by draw


def _admit(keys, build, i, prime) -> None:
    """Check draw ``i``'s builder as the sequential path does and add the draw to its batch.

    ``keys`` maps each ``(subspaces, basis)`` to its :class:`_Batch`.  A
    draw's checks run in the sequential path's order, each once per key: the
    key's subspaces, the first time the key is seen; the draw's specs new to
    the key; the round's ``prime``, the first time; and the basis, the first
    time and on the subspaces of the new specs.  Specs are keyed by
    identity, so each spec object is validated once a key; the job builders
    of ``verify`` make one object per distinct spec, so a trial round
    validates each distinct spec once, not once per component.
    """
    specs, subspaces, basis = build
    n = basis.n
    batch = keys.get((subspaces, basis))
    fresh = batch is None
    if fresh:
        _check_subspaces(n, subspaces)
        batch = keys[subspaces, basis] = _Batch([], [], {}, [])
    kinds, code, codes = batch.specs, batch.code, batch.codes
    known = len(kinds)
    for s in specs:
        c = code.get(id(s))
        if c is None:
            s.validate(n, len(subspaces))
            c = code[id(s)] = len(kinds)
            kinds.append(s)
        codes.append(c)
    if fresh:
        _check_prime(prime)
    if fresh or len(kinds) > known:
        _check_basis(basis, n, subspaces, {s.support for s in kinds[known:]} - {GENERAL})
    batch.members.append(i)


def _component_table(n, d, p, specs, codes):
    """Each component's row (support, drawn, whole, value): the :func:`_plan` of ``specs[code]``.

    The plan is taken once per spec; the support of a free component is -1.
    """
    kinds = np.array([(-1 if s.support == GENERAL else s.support, *_plan(s, n, d, p))
                      for s in specs], dtype=np.int64).reshape(-1, 4)
    return kinds[np.array(codes, dtype=np.int64)]


def _draw_layout(n, subspaces, table, counts, seeds, p):
    """Draw the components of ``table`` from each seed's stream and check them together.

    ``table`` holds each component's :func:`_component_table` row, draw by
    draw.  A draw's components take, one after the other, their point's
    coordinates off its subspace and then their combination rows of n+1
    entries each: the values :func:`random_instance` reads when it redraws
    nothing.  The rows of a double point are the unit vectors, read from the
    identity block appended to the values.
    Returns, in draw order, ``draw`` (C,): the draw of each component;
    ``points`` (C, nv); ``with_value`` (C,): 1 for a value row, else 0;
    ``owner`` (R,): the component of each combination row, nondecreasing;
    ``start`` (R,): where each row's nv coefficients start in ``values``;
    ``values``; and ``ok`` (B,): whether each draw passed every check.
    """
    nv = n + 1
    sup, n_rows, whole, with_value = table.T
    zmask = np.zeros((len(subspaces) + 1, nv), dtype=bool)  # row -1: free components
    for i, sub in enumerate(subspaces):
        zmask[i, sorted(sub.zeroed)] = True
    zero = zmask[sup]
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
    points, seen = [], set()
    for _ in a_profile:
        pt = _redraw(lambda: tuple(rng.randrange(prime) for _ in range(n)),
                     lambda pt: pt not in seen, "distinct points", prime)
        seen.add(pt)
        points.append(list(pt))
    directions = [_redraw(lambda: [[rng.randrange(prime) for _ in range(n)] for _ in range(a)],
                          lambda ds: rank(ds, prime) == a, "independent directions", prime)
                  for a in a_profile]
    return InterpolationProblem(n, d, points, directions, prime=prime)
