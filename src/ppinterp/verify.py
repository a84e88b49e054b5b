"""Monte Carlo verification harness: seeded rank measurements vs predictions.

Every case draws random instances over GF(p) and measures the rank of the
resulting condition matrix.  Rank is lower semicontinuous in the data, so

* a full-rank claim PASSes as soon as one trial reaches the predicted rank
  (a single witness certifies the general configuration);
* a deficiency claim PASSes only when every trial measures exactly the
  claimed nullspace dimension -- random instances bound the generic
  dimension from above, so the verdict is a confirmation, with the matching
  lower bound supplied by theory where available (the cone bound for
  quadrics).

Per-case seeds are derived as sha256(root_seed:label:trial), so cases are
independent jobs and execution order never changes any measurement.  The
trial loop uses this: it runs a command's cases as one job stream, rank and
deficiency claims alike, trial round by trial round; a sweep chains the jobs
of all its triples (and the ``p8`` and ``base`` suites those of all their
propositions), so a round can span triples and fills up.  Each round makes one
``schemes.condition_stacks`` call, which draws and builds the round's scheme
instances together into one stack per matrix shape, and one
``linalg.stack_ranks`` call, which gives every matrix its exact rank.  A
round has one prime, the policy's: a job's builder holds only its scheme
and is called as ``build(seed, prime)``.  So a round depends only on the
policy and its jobs.

Jobs run in batches of ``ROUND_CASES``.  A stream of two batches or more
runs on every CPU the process may use: forked workers iterate the same
stream, process k mod W runs batch k, and only each batch's ranks travel
back, so the batches overlap and the cases are those of one process
(``taskset -c 0`` runs serially).  A batch no worker delivered, because it
raised there or the worker died, is run by the parent itself, which raises
what the serial path raises.  A case's ``millis`` is an equal share of
each of its rounds' build-and-rank time in the process that ran its batch;
for a command of one case that is its own time.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import pickle
import random
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from . import theory
from .gf import DEFAULT_PRIME
from .linalg import stack_ranks
from .monomials import (
    AFFINE,
    HOMOGENEOUS,
    CoordinateSubspace,
    build_basis,
    vanishing_basis,
)
from .schemes import (
    ComponentSpec,
    ProjectiveDraw,
    _affine_rows,
    condition_stacks,
    random_affine_problem,
)

DEFAULT_SEED = 1000003

# Cases the trial loop takes at a time: about this many condition matrices
# are alive at once, whatever the size of the sweep.  At 256 the peak RSS of
# the small-cases benchmark pass (the 200-case affine sweep) rose by 2 MB.
ROUND_CASES = 128

# The most processes that ran the batches of one trial stream since the CLI
# last set it to 1; a report's "config" gives it as "processes".
batch_processes = 1

PASS = "PASS"
SUSPECT = "SUSPECT"

# the fields of every case report, and those a degree-2 table row adds in ``extra``
CASE_FIELDS = ("case", "kind", "predicted", "measured", "verdict", "seed", "prime")
TABLE_FIELDS = ("profile", "degree", "max_delta", "type_vector")


@dataclass(frozen=True)
class TrialPolicy:
    trials: int = 3
    prime: int = DEFAULT_PRIME
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")


@dataclass
class CaseReport:
    case: str
    kind: str  # 'rank' | 'dim' | 'enumeration'
    predicted: int
    measured: list
    verdict: str
    seed: int
    prime: int
    millis: float = 0.0
    note: str = ""
    extra: dict = field(default_factory=dict)
    # (label, trials) of each job an enumeration found disagreeing, for the
    # FAIL line; outside to_json and csv_row, like millis
    jobs: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json(self) -> dict:
        doc = {name: getattr(self, name) for name in CASE_FIELDS}
        doc["measured"] = list(self.measured)
        if self.note:
            doc["note"] = self.note
        if self.extra:
            doc["extra"] = self.extra
        return doc

    def csv_row(self) -> list:
        """The CASE_FIELDS, then the TABLE_FIELDS of ``extra``, blank where absent.

        ``measured`` is joined by ';', a profile or type vector by ','.
        """
        row = [getattr(self, name) for name in CASE_FIELDS]
        row[CASE_FIELDS.index("measured")] = ";".join(map(str, self.measured))
        for name in TABLE_FIELDS:
            value = self.extra.get(name, "")
            row.append(",".join(map(str, value)) if isinstance(value, list) else value)
        return row


def child_seed(root_seed: int, label: str, trial: int) -> int:
    """Per-trial seed: first 8 bytes of sha256('root:label:trial'), big endian."""
    digest = hashlib.sha256(f"{root_seed}:{label}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _process_count() -> int:
    """How many processes may run a stream's batches: the CPUs this process
    may run on (``taskset -c 0`` gives one), or one where Linux's affinity
    call is missing."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _round(policy: TrialPolicy, batch):
    """Each job's measured ranks and seconds over the trial rounds of one batch.

    Trial t of a job ranks ``build(child_seed(seed, label, t), prime)`` at
    the policy's prime, the one prime of every round: no builder holds one.
    The job ends after a rank equal to its ``stop`` (None: it runs every
    trial).  Each trial round builds the running jobs' matrices in one
    ``schemes.condition_stacks`` call, as one stack per shape, and ranks the
    stacks in one ``linalg.stack_ranks`` call; a job's seconds are an equal
    share of each of its trial rounds' build-and-rank time.  The result
    depends only on the policy and the batch.
    """
    measured = [[] for _ in batch]
    seconds = [0.0] * len(batch)
    running = range(len(batch))
    prime = policy.prime
    for t in range(policy.trials):
        t0 = time.perf_counter()
        values = stack_ranks(condition_stacks(
            [(batch[i][1], child_seed(policy.seed, batch[i][0], t)) for i in running], prime),
            prime)
        share = (time.perf_counter() - t0) / len(running)
        for i, r in zip(running, values):
            stop = batch[i][2]
            if stop is not None and r > stop:
                raise AssertionError(f"measured rank {r} above the theoretical bound {stop}")
            measured[i].append(r)
            seconds[i] += share
        running = [i for i in running if measured[i][-1] != batch[i][2]]
        if not running:
            break
    return measured, seconds


def _worker(policy: TrialPolicy, batches, rank: int, procs: int, fd: int):
    """A forked process's whole life: run batches ``rank``, ``rank + procs``, ...

    Each batch's ``(measured, seconds)`` is pickled to the pipe ``fd``.  A
    batch that raises ends the worker, as does a broken pipe: the parent
    runs every batch a worker did not deliver.  It never returns into its
    caller and writes nothing to stdout or stderr.
    """
    try:
        with os.fdopen(fd, "wb") as out:
            for k, batch in enumerate(batches):
                if k % procs == rank:
                    out.write(pickle.dumps(_round(policy, batch)))
                    out.flush()
    finally:
        os._exit(0)


def _fork_workers(policy: TrialPolicy, batches, procs: int, workers: list) -> None:
    """Fork worker ranks 1 .. ``procs - 1`` over ``batches``, listing each (pid, pipe) in ``workers``."""
    sys.stdout.flush()
    sys.stderr.flush()
    for rank in range(1, procs):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            _worker(policy, batches, rank, procs, w)
        os.close(w)
        workers.append((pid, os.fdopen(r, "rb")))


def _reap(workers) -> None:
    """End and wait for every worker still listed; a finished one just exits."""
    while workers:
        pid, pipe = workers.pop()
        pipe.close()  # a worker still writing gets a broken pipe
        os.waitpid(pid, 0)


def _trials(policy: TrialPolicy, jobs):
    """The measured ranks of ``(label, build, stop)`` jobs, yielded in job order.

    Jobs are taken ``ROUND_CASES`` at a time; :func:`_round` runs a batch
    trial round by trial round.  Yields, per job, the job, its ranks (at
    least one) and its milliseconds: an equal share of each of its trial
    rounds' build-and-rank time in the process that ran its batch.
    ``jobs`` is a command's whole stream, so a batch can hold jobs of
    several triples; it may be a generator, so only a few batches' builders
    are alive.

    A stream of at least two batches runs on up to W processes, W the CPUs
    this process may run on (:func:`_process_count`): the process forks
    W - 1 workers, every process iterates the same stream, and process
    k mod W runs batch k, so batches overlap.  Only each batch's ranks and
    seconds travel back, through a pipe, and the parent yields them in
    order.  A round depends only on the policy and its batch, so where a
    worker's pipe ends, or holds a truncated result, the parent runs that
    batch (and so each later batch of that worker) itself: a batch that
    raised in the worker raises the serial error at its position, and a
    worker killed from outside costs only time.  Seeds depend only on the
    root seed, the label and the trial, so the cases are those of the
    serial path (``taskset -c 0``).  Every worker is reaped before the last
    job is yielded, and killed on any early exit.
    """
    global batch_processes
    jobs = iter(jobs)
    batches = iter(lambda: list(itertools.islice(jobs, ROUND_CASES)), [])
    head = list(itertools.islice(batches, _process_count()))
    procs = max(len(head), 1)
    batches = itertools.chain(head, batches)
    batch_processes = max(batch_processes, procs)
    workers = []
    try:
        _fork_workers(policy, batches, procs, workers)
        pipes = [None] + [pipe for _, pipe in workers]
        batch = next(batches, None)
        k = 0
        while batch is not None:
            result = None
            if k % procs:
                with contextlib.suppress(EOFError, pickle.UnpicklingError):
                    result = pickle.load(pipes[k % procs])
            measured, seconds = result or _round(policy, batch)
            following = next(batches, None)
            if following is None:
                _reap(workers)
            yield from zip(batch, measured, (s * 1000.0 for s in seconds))
            batch, k = following, k + 1
    finally:
        if workers:  # only then: signal's import is a millisecond that no other path needs
            import signal

            for pid, _ in workers:  # listed workers are not reaped yet, so the pids are theirs
                os.kill(pid, signal.SIGKILL)
        _reap(workers)


def _report(policy, label, kind, predicted, measured, ok, ms, note="", extra=None,
            jobs=()) -> CaseReport:
    return CaseReport(
        label, kind, predicted, measured, PASS if ok else SUSPECT,
        policy.seed, policy.prime, ms, note=note, extra=extra or {}, jobs=list(jobs),
    )


def _cases(policy: TrialPolicy, jobs) -> list:
    """Rank and deficiency claims run together, one report per job in job order.

    A rank claim is a ``(label, build, target)`` job; it PASSes iff some
    trial reaches the target rank.  A deficiency claim is a ``(label, build,
    None, claimed, lower_bound, extra)`` job, its ``build`` a
    :class:`ProjectiveDraw` whose basis gives the column count; it PASSes iff
    every trial measures the claimed nullity.  ``jobs`` is one stream: a
    suite passes the jobs of all its parts in one call, so its trial rounds
    are full.
    """
    return [_dim_report(policy, label, [len(build.basis) - r for r in measured], ms, *dim) if dim
            else _report(policy, label, "rank", target, measured, measured[-1] == target, ms)
            for (label, build, target, *dim), measured, ms in _trials(policy, jobs)]


def _dim_report(policy, label, measured, ms, claimed, lower_bound, extra) -> CaseReport:
    if lower_bound is not None and lower_bound >= claimed:
        note = (
            f"dim <= {claimed} certified by {policy.trials} random instances;"
            f" dim >= {claimed} by the cone bound"
        )
    else:
        note = (
            f"confirmed at {policy.trials} random instances (upper bound by"
            " semicontinuity); the matching lower bound is the asserted deficiency"
        )
        if lower_bound is not None:
            note += f"; cone bound {lower_bound} does not reach the claim"
    return _report(policy, label, "dim", claimed, measured,
                   all(v == claimed for v in measured), ms, note=note, extra=extra)


def run_rank_case(policy: TrialPolicy, label: str, target: int, build) -> CaseReport:
    """Full-rank claim: PASS iff some trial reaches the target rank."""
    return _cases(policy, [(label, build, target)])[0]


def run_dim_case(policy: TrialPolicy, label: str, claimed: int, build,
                 lower_bound: int | None = None, extra=None) -> CaseReport:
    """Deficiency claim: PASS iff every trial measures the claimed nullity.

    ``build`` is a :class:`ProjectiveDraw`: its basis gives the column count.
    """
    return _cases(policy, [(label, build, None, claimed, lower_bound, extra)])[0]


# ---------------------------------------------------------------------------
# P^8 cubic cases on three disjoint codimension-3 subspaces

P8_SUBSPACES = (
    CoordinateSubspace({0, 1, 2}),
    CoordinateSubspace({3, 4, 5}),
    CoordinateSubspace({6, 7, 8}),
)
P8_TRIPLES = ((6, 9, 12), (3, 12, 12), (0, 12, 15), (6, 6, 15), (0, 9, 18))
P8_LEFTOVER_TRIPLES = (
    (10, 14, 39), (11, 13, 39), (11, 14, 38),
    (7, 17, 39), (8, 16, 39), (8, 17, 38),
    (7, 14, 42), (8, 13, 42), (8, 14, 41),
)

# The one ComponentSpec of each (length, support, residual), given positionally:
# a command's jobs share their spec objects, so schemes.condition_stacks
# validates each distinct spec once a round (it keys them by identity).
_spec = lru_cache(maxsize=256)(ComponentSpec)


def specs_on_subspace(n: int, idx: int, tdu) -> list:
    t, d, u = tdu
    out = []
    for r, count in ((3, t), (2, d), (1, u)):  # residual r on a component of length n+1-(3-r)
        out += [_spec(n - 2 + r, idx, r)] * count
    return out


def specs_free(n: int, xo_vector) -> list:
    out = []
    for slot, count in enumerate(xo_vector):
        out += [_spec(n + 1 - slot)] * count
    return out


def _general_scheme(n, lengths, d) -> ProjectiveDraw:
    """Free components of the given lengths in P^n, against every degree-d form."""
    return ProjectiveDraw(tuple(map(_spec, lengths)), (), build_basis(HOMOGENEOUS, n, d))


def _on_subspace(tag: str, n: int, idx: int, degree: int):
    """Partition family of the residual triples of a degree on subspace ``idx``."""
    parts = theory.enumerate_triple_partitions(degree).parts
    return tag, parts, lambda tdu: specs_on_subspace(n, idx, tdu)


def _free_part(n: int, degree: int):
    """Partition family of the free part of a degree."""
    return "XO", theory.enumerate_xo_partitions(degree, n).parts, lambda xo: specs_free(n, xo)


def _partition_jobs(policy: TrialPolicy, subspaces, basis, prefix: str, families, sample=None):
    """One full-rank job per combination of the families' partitions, yielded in order.

    ``families`` are (tag, partitions, specs-of) triples, as made by
    :func:`_on_subspace` and :func:`_free_part`; a job's label is ``prefix``
    followed by ``tag=partition`` for each family, and its scheme joins the
    families' specs.  Each family's label piece and specs of a partition are
    made once, the first time a combination holds that partition, so jobs
    with a part in common share its specs and a sample makes only the parts
    it draws.  ``sample=(count, key)`` keeps ``count`` combinations, chosen
    by a random stream seeded from ``key``.  A suite chains the jobs of its
    triples into one stream for :func:`_cases`, so a trial round can span
    triples.
    """
    combos = list(itertools.product(*(parts for _, parts, _ in families)))
    if sample is not None and sample[0] < len(combos):
        count, key = sample
        combos = random.Random(child_seed(policy.seed, key, 0)).sample(combos, count)
    tables = [{} for _ in families]  # per family: partition -> (label piece, specs)

    def entry(k, part):
        if part not in tables[k]:
            tag, _, specs_of = families[k]
            tables[k][part] = f"{tag}={','.join(map(str, part))}", tuple(specs_of(part))
        return tables[k][part]

    for combo in combos:
        pieces, specs = zip(*(entry(k, part) for k, part in enumerate(combo)))
        yield (" ".join((prefix, *pieces)), ProjectiveDraw(sum(specs, ()), subspaces, basis),
               len(basis))


def _prop45_jobs(policy: TrialPolicy):
    basis = vanishing_basis(8, 3, P8_SUBSPACES)
    for triple in P8_TRIPLES:
        families = [_on_subspace(tag, 8, idx, x) for idx, (tag, x) in enumerate(zip("LMN", triple))]
        yield from _partition_jobs(policy, P8_SUBSPACES, basis, "4.5 ({},{},{})".format(*triple),
                                   families)


def verify_prop45(policy: TrialPolicy) -> list:
    """The five residual-degree triples on three disjoint P^8 subspaces.

    Every residual partition combo must fill all 27 conditions on the cubics
    through the three subspaces.  The triples' cases run as one stream.
    """
    return _cases(policy, _prop45_jobs(policy))


def _remark46_jobs() -> list:
    basis = vanishing_basis(8, 3, P8_SUBSPACES)
    dp = lambda idx, k: (_spec(9, idx, 3),) * k
    draw = lambda specs: ProjectiveDraw(specs, P8_SUBSPACES, basis)
    return [
        ("4.6 (0,0,27)", draw(dp(2, 9)), 27),
        ("4.6 (0,6,21)", draw(dp(1, 2) + dp(2, 7)), None, 2, None, None),
        ("4.6 (0,6,18) subscheme", draw(dp(1, 2) + dp(2, 6)), 24),
    ]


def verify_remark46(policy: TrialPolicy) -> list:
    """The boundary cases around the triple list: (0,0,27) works, (0,6,21) does not."""
    return _cases(policy, _remark46_jobs())


def _prop48_jobs(policy: TrialPolicy, sample: int | None):
    # a plain function, not a generator, so that a bad sample is refused at
    # once, not when a chained stream reaches these jobs
    if sample is not None and sample < 1:
        raise ValueError(f"--sample must be at least 1, got {sample}")
    subspaces = P8_SUBSPACES[:2]
    basis = vanishing_basis(8, 3, subspaces)
    return (job for l, m, f in P8_LEFTOVER_TRIPLES for job in _partition_jobs(
        policy, subspaces, basis, f"4.8 ({l},{m},{f})",
        [_on_subspace("L", 8, 0, l), _on_subspace("M", 8, 1, m), _free_part(8, f)],
        sample=None if sample is None else (sample, f"4.8 sample {(l, m, f)}"),
    ))


def verify_prop48_leftovers(policy: TrialPolicy, sample: int | None = None) -> list:
    """The nine two-subspace P^8 triples, every partition combo, rank 63.

    ``sample`` caps the number of combos per triple (seeded choice) for a
    quick pass; the default checks the full enumeration.  The triples' cases
    run as one stream.
    """
    return _cases(policy, _prop48_jobs(policy, sample))


# ---------------------------------------------------------------------------
# base cases n = 5, 6, 7 for the codimension-3 restriction arguments

# the codimension-3 subspaces of the base sweeps
BASE_SUBSPACES = (CoordinateSubspace({0, 1, 2}), CoordinateSubspace({3, 4, 5}))


def _two_subspace_triples(n: int):
    total = 9 * (n - 1)
    for f in range(3 * n + 3, 5 * n + 3):
        lm = total - f
        for l in range(max(n - 2, lm - (4 * n - 6)), lm // 2 + 1):
            yield l, lm - l, f


def _base_two_jobs(policy: TrialPolicy, n: int, props=("4.7", "4.8")):
    if n < 5:
        raise ValueError("base cases start at n = 5")
    basis = vanishing_basis(n, 3, BASE_SUBSPACES)
    for l, m, f in _two_subspace_triples(n):
        prop = "4.7" if f <= 3 * n + 6 else "4.8"
        if prop in props:
            families = [_on_subspace("L", n, 0, l), _on_subspace("M", n, 1, m), _free_part(n, f)]
            yield from _partition_jobs(policy, BASE_SUBSPACES, basis,
                                       f"{prop} n={n} ({l},{m},{f})", families)


def verify_base_two_subspaces(policy: TrialPolicy, n: int, props=("4.7", "4.8")) -> list:
    """Cubic rank checks in P^n over two disjoint codimension-3 subspaces plus a
    free part: 9(n-1) conditions (Props. 4.7 and 4.8, or those in ``props``).
    The triples' cases run as one stream."""
    return _cases(policy, _base_two_jobs(policy, n, props))


def _base_one_jobs(policy: TrialPolicy, n: int):
    if n < 5:
        raise ValueError("base cases start at n = 5")
    basis = vanishing_basis(n, 3, BASE_SUBSPACES[:1])
    total = comb(n + 3, 3) - comb(n, 3)
    for alpha in range(n):
        f = (n + 1) ** 2 + alpha
        families = [_on_subspace("L", n, 0, total - f), _free_part(n, f)]
        yield from _partition_jobs(policy, BASE_SUBSPACES[:1], basis,
                                   f"4.13 n={n} alpha={alpha}", families)


def verify_base_one_subspace(policy: TrialPolicy, n: int) -> list:
    """Cubic rank checks in P^n over one codimension-3 subspace plus a free part
    of degree (n+1)^2 + alpha: C(n+3,3) - C(n,3) conditions (Prop. 4.13).
    The triples' cases run as one stream."""
    return _cases(policy, _base_one_jobs(policy, n))


def _base_jobs(policy: TrialPolicy, n: int):
    return itertools.chain(_base_two_jobs(policy, n), _base_one_jobs(policy, n))


def verify_props47_413_base(policy: TrialPolicy, n: int) -> list:
    """Exhaustive cubic rank checks in P^n (n = 5, 6, 7): both base sweeps, as one stream."""
    return _cases(policy, _base_jobs(policy, n))


# ---------------------------------------------------------------------------
# degree-2 exception tables

EXPECTED_QUADRIC_EXCEPTIONS = {
    # golden fixtures: (length profile, dim of quadrics through the scheme)
    3: (
        ((4, 4, 4), 1),
        ((4, 4, 3), 1),
        ((4, 4, 2), 1),
        ((4, 4, 1, 1), 1),
        ((4, 4, 1), 2),
        ((4, 4), 3),
        ((4, 3, 3), 1),
    ),
    4: (
        ((5, 5, 5, 5), 1),
        ((5, 5, 5, 4), 1),
        ((5, 5, 5, 3), 1),
        ((5, 5, 5, 2), 1),
        ((5, 5, 5, 1, 1), 1),
        ((5, 5, 5, 1), 2),
        ((5, 5, 5), 3),
        ((5, 5, 4, 4), 1),
        ((5, 5, 4, 3), 1),
        ((5, 5, 4, 2), 1),
        ((5, 5, 4, 1, 1), 1),
        ((5, 5, 4, 1), 2),
        ((5, 5, 4), 3),
        ((5, 5, 3, 3), 1),
        ((5, 5, 3, 2), 1),
        ((5, 5, 3, 1, 1), 1),
        ((5, 5, 3, 1), 2),
        ((5, 5, 3), 3),
        ((5, 5, 2, 2, 1), 1),
        ((5, 5, 2, 2), 2),
        ((5, 5, 2, 1, 1, 1), 1),
        ((5, 5, 2, 1, 1), 2),
        ((5, 5, 2, 1), 3),
        ((5, 5, 2), 4),
        ((5, 5, 1, 1, 1, 1, 1), 1),
        ((5, 5, 1, 1, 1, 1), 2),
        ((5, 5, 1, 1, 1), 3),
        ((5, 5, 1, 1), 4),
        ((5, 5, 1), 5),
        ((5, 5), 6),
        ((5, 4, 4, 2), 1),
        ((5, 4, 4, 1, 1), 1),
        ((5, 4, 4, 1), 2),
        ((5, 4, 4), 3),
        ((4, 4, 4, 4), 1),
        ((4, 4, 4, 3), 1),
    ),
}


def verify_tables(policy: TrialPolicy, n: int) -> list:
    """Regenerate the degree-2 exception list for P^n and measure every dim."""
    fixture = EXPECTED_QUADRIC_EXCEPTIONS[n]
    t0 = time.perf_counter()
    rows = theory.enumerate_quadric_exceptions(n)
    ok = [r.lengths for r in rows] == [prof for prof, _ in fixture]
    reports = [_report(
        policy, f"P{n} exception enumeration", "enumeration", len(fixture), [len(rows)], ok,
        (time.perf_counter() - t0) * 1000.0,
        note="profiles compared in descending order against the frozen table",
    )]
    by_profile = {r.lengths: r for r in rows}
    jobs = []
    for prof, dim in fixture:
        row = by_profile.get(prof)
        extra = {}
        if row is not None:
            extra = {
                "profile": list(prof),
                "degree": row.degree,
                "max_delta": row.max_delta,
                "type_vector": list(row.type_vector),
                "dim_expected": dim,
            }
        jobs.append((f"P{n} {','.join(map(str, prof))}", _general_scheme(n, prof, 2),
                     None, dim, theory.best_cone_lower_bound(n, prof), extra))
    return reports + _cases(policy, jobs)


# ---------------------------------------------------------------------------
# the five deficient patterns for degrees other than 2

# tag -> (n, d, component lengths a_i + 1), in the order of theory.EXCEPTION_PATTERNS
AH_EXCEPTION_SCHEMES = {
    tag: (n, d, tuple(x + 1 for x in a)) for (n, d, a), tag in theory.EXCEPTION_PATTERNS.items()
}


def verify_ah_exceptions(policy: TrialPolicy) -> list:
    """Each deficient pattern must measure exactly one missing condition."""
    return _cases(policy, [
        (f"1.1{tag} n={n} d={d}", _general_scheme(n, lengths, d), None, 1, None, None)
        for tag, (n, d, lengths) in AH_EXCEPTION_SCHEMES.items()
    ])


# ---------------------------------------------------------------------------
# user-driven generic verification and the random sweep

def _affine_builder(n, d, a):
    basis = build_basis(AFFINE, n, d)

    def build(seed, prime):
        return _affine_rows(random_affine_problem(n, d, a, prime, seed), basis, prime)[0]

    return build


def verify_generic(policy: TrialPolicy, n: int, d: int, a=None, lengths=None) -> CaseReport:
    """Predicted vs measured rank for one configuration.

    ``a`` verifies the affine problem (one evaluation row plus directional
    rows per point); ``lengths`` verifies the projective scheme against the
    full degree-d basis.  Exactly one of the two must be given.
    """
    if (a is None) == (lengths is None):
        raise ValueError("give exactly one of a= or lengths=")
    if lengths is not None:
        lengths = theory.sorted_lengths(n, lengths)
        profile = tuple(l - 1 for l in lengths)
        label = f"generic n={n} d={d} lengths={','.join(map(str, lengths))}"
        builder = _general_scheme(n, lengths, d)
    else:
        profile = tuple(sorted(a, reverse=True))
        label = f"generic n={n} d={d} a={','.join(map(str, profile))}"
        builder = _affine_builder(n, d, profile)
    prediction = theory.predict_profile(n, d, profile)
    expected = prediction.expected_codim
    if not prediction.exceptional:
        report = run_rank_case(policy, label, expected, builder)
    else:
        [(_, measured, ms)] = _trials(policy, [(label, builder, None)])
        report = _report(
            policy, label, "rank", expected, measured, all(r < expected for r in measured), ms,
            note=f"deficient pattern {prediction.exception_id}:"
                 " every trial must fall short of the expected rank",
        )
    report.extra["prediction"] = prediction.to_json()
    return report


# ranges of n and d the random sweep draws from, and the ambient dimensions
# and degree excess over C(n+2,2) of the quadric brute force
SWEEP_DIMENSIONS = (1, 4)
SWEEP_DEGREES = (3, 5)
QUADRIC_DIMENSIONS = (1, 2, 3, 4)
QUADRIC_EXTRA_DEGREE = 3


def sweep_nonexceptional(policy: TrialPolicy, count: int = 200) -> list:
    """Seeded random profiles away from the exception list: rank must be full.

    Configurations satisfy sum(a_i + 1) <= C(n+d, d), so the measured rank
    must equal the condition count in every case.  The cases run together.
    """
    rng = random.Random(child_seed(policy.seed, "sweep-config", 0))
    cases = []
    idx = 0
    while len(cases) < count:
        n = rng.randint(*SWEEP_DIMENSIONS)
        d = rng.randint(*SWEEP_DEGREES)
        cap = comb(n + d, d)
        k = rng.randint(1, 40)
        a = sorted((rng.randint(0, n) for _ in range(k)), reverse=True)
        while a and sum(x + 1 for x in a) > cap:
            a.pop()
        if not a:
            continue
        if (n, d, tuple(a)) in theory.EXCEPTION_PATTERNS:
            continue
        target = sum(x + 1 for x in a)
        label = f"sweep#{idx:03d} n={n} d={d} a={','.join(map(str, a))}"
        idx += 1
        cases.append((label, _affine_builder(n, d, tuple(a)), target))
    return _cases(policy, cases)


def quadric_bruteforce(policy: TrialPolicy) -> list:
    """Exhaustive agreement check: delta-criterion verdict == Monte Carlo verdict.

    Covers, for each n in QUADRIC_DIMENSIONS, every length profile with parts
    <= n+1 and degree up to C(n+2,2) + QUADRIC_EXTRA_DEGREE; one aggregated
    report per ambient dimension.  The profiles of every n run as one stream,
    and a report's ``millis`` is the sum of its profiles' shares of their
    trial rounds.
    """
    ns = QUADRIC_DIMENSIONS
    degrees = {n: comb(n + 2, 2) + QUADRIC_EXTRA_DEGREE for n in ns}
    profiles = {n: theory._profiles_up_to(n, degrees[n]) for n in ns}
    jobs = ((f"bf P{n} {prof}", _general_scheme(n, prof, 2),
             min(sum(prof), comb(n + 2, 2)), n, prof) for n in ns for prof in profiles[n])
    mismatches = {n: [] for n in ns}
    replays = {n: [] for n in ns}  # (label, trials) of each disagreeing job
    millis = dict.fromkeys(ns, 0.0)
    for (label, _, full, n, prof), measured, ms in _trials(policy, jobs):
        millis[n] += ms
        if (measured[-1] == full) != theory.predict_quadric_scheme(n, prof).independent:
            mismatches[n].append(prof)
            replays[n].append((label, len(measured)))
    return [_report(
        policy, f"quadric brute force P{n} deg<= {degrees[n]}", "enumeration",
        len(profiles[n]), [len(profiles[n]) - len(mismatches[n])], not mismatches[n], millis[n],
        note=f"disagreeing profiles: {mismatches[n][:5]}" if mismatches[n] else "",
        jobs=replays[n],
    ) for n in ns]


# ---------------------------------------------------------------------------
# suite aggregation

# suite name -> (highest polynomial degree it measures, which the working
# prime must exceed; runner(policy, deep, sample)).  The p8 and base runners
# chain the jobs of their parts into one _cases call, so their trial rounds
# fill across triples and propositions.
SUITES = {
    "tables": (2, lambda policy, deep, sample: verify_tables(policy, 3) + verify_tables(policy, 4)),
    "ah": (max(d for _, d, _ in AH_EXCEPTION_SCHEMES.values()),
           lambda policy, deep, sample: verify_ah_exceptions(policy)),
    "p8": (3, lambda policy, deep, sample: _cases(policy, itertools.chain(
        _prop45_jobs(policy), _remark46_jobs(), _prop48_jobs(policy, sample)))),
    "base": (3, lambda policy, deep, sample: _cases(policy, itertools.chain.from_iterable(
        _base_jobs(policy, n) for n in ((5, 6, 7) if deep else (5,))))),
    "sweep": (SWEEP_DEGREES[1], lambda policy, deep, sample: sweep_nonexceptional(policy)),
    "quadrics": (2, lambda policy, deep, sample: quadric_bruteforce(policy)),
}


def run_suite(policy: TrialPolicy, which: str = "all", deep: bool = False,
              sample: int | None = None) -> list:
    """Run one named suite or everything at desk scale (the default).

    ``sample`` caps the Prop. 4.8 combos per triple in the ``p8`` suite.
    """
    if which != "all" and which not in SUITES:
        raise ValueError(f"unknown suite {which!r}; pick one of {('all', *SUITES)}")
    names = SUITES if which == "all" else (which,)
    return [r for name in names for r in SUITES[name][1](policy, deep, sample)]
