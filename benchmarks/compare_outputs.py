#!/usr/bin/env python3
"""Check that two checkouts give byte-identical outputs on a fixed command list.

A change that only makes the program faster or smaller must leave every
report's replayable ``cases`` payload, every exit code and every stderr line
as they were.  This script runs the same CLI commands in both checkouts
(``python -m ppinterp.cli`` with the checkout's ``src`` on PYTHONPATH) and
compares, command by command, the exit code, the sha256 of the report's
``cases`` (of all of stdout for ``predict`` and ``solve``) and
stderr.  The second checkout runs each command twice: on every CPU this
process may use, where a command's trial batches run in several processes,
and pinned to one CPU, where they run in one; both runs are compared with
the first checkout's.  Each of those runs must also print its JSON report
as ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, so the
bytes outside ``cases`` (timing, config) cannot change form unseen.

The commands:

* ``props --prop 4.5``, ``--prop 4.6``, ``--prop 4.8 --sample 10`` and
  ``--prop base -n 5``; ``verify --suite p8|base|sweep|quadrics|ah``;
  ``tables -n 3`` and ``-n 4``; each at primes 31991, 5, 7 and 67108859 and
  seeds 11 and 2024 (88 commands);
* ``verify -n N -d D`` on each of the five exceptional patterns of
  degree other than 2, once by ``-a`` and once by ``--lengths``, at the same
  primes and seeds (80 commands);
* ``verify -n N -d D --lengths`` on double points only, for N = 1..3 and
  D = 1..4, as many double points as fit C(N+D, D) conditions, at the same
  primes and seeds (96 commands): no prime there divides D, so a double
  point's value row stays in the span of its jacobian;
* ``predict`` for n = 1..4 and d = 0..5 on the profiles of
  ``PREDICT_PROFILES`` whose entries lie in [0, n] (the five patterns,
  quadric-delta profiles and expected ones), once by ``-a`` and once by
  ``--lengths`` (396 commands);
* ``solve`` on the problem files of perfbench's ``exact-solve-q`` and
  ``exact-solve-gf`` workloads at perfbench seeds 1 and 2, written by
  ``perfbench/workloads.py`` of the first checkout into a temporary
  directory, and on the seven problems of :func:`diagnosis_problems`
  (a double-point problem per exceptional pattern, a quadric-delta square
  and coincident points), which this script writes there; each with
  ``--field rational``, ``--field gf`` and ``--field gf`` at primes 7 and
  67108859 (176 + 28 commands);
* ``solve --field rational`` on two fractional problems of orders 120 and
  126 (``BIG_RATIONAL``), drawn by ``make_problem`` of the first
  checkout's ``perfbench/workloads.py`` at perfbench seed 1, where rational
  reconstruction does the most work (2 commands);
* the moduli the CLI refuses or takes only at the edge, 9, 2, 3, 67108879
  (the first prime above 2**26) and 2**61 - 1, each with ``tables -n 3``,
  ``verify --suite ah``, ``props --prop 4.6`` and ``verify -n 2 -d 4 -a
  2,2,2,2,2`` at seed 11, and with ``solve --field gf`` on the first
  diagnosis problem (25 commands), so that a moved modulus check cannot
  change an exit code or a message unseen.

That is 891 commands.  The stdout of ``predict`` and ``solve`` holds no
timing, so all of it is compared.

Commands run two at a time.  Prints one line per mismatch and a summary with
the number of commands run each way and of reports checked for their bytes,
and exits 1 on any mismatch, 0 otherwise.

Usage: python benchmarks/compare_outputs.py PARENT CHANGE
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from math import comb
from pathlib import Path

REPORTS = (
    ["props", "--prop", "4.5"],
    ["props", "--prop", "4.6"],
    ["props", "--prop", "4.8", "--sample", "10"],
    ["props", "--prop", "base", "-n", "5"],
    *(["verify", "--suite", suite] for suite in ("p8", "base", "sweep", "quadrics", "ah")),
    ["tables", "-n", "3"],
    ["tables", "-n", "4"],
)
PRIMES = (31991, 5, 7, 67108859)
# (n, d, a) of the five exceptional patterns of degree other than 2
PATTERNS = (
    (2, 4, (2,) * 5),
    (3, 4, (3,) * 9),
    (3, 4, (3,) * 8 + (2,)),
    (4, 3, (4,) * 7),
    (4, 4, (4,) * 14),
)
PREDICT_PROFILES = (
    *(a for _, _, a in PATTERNS),
    (2, 2), (3, 3), (3, 3, 3), (4, 4),  # quadric-delta at d = 2
    (1,), (1, 1, 0), (1, 1, 1, 1), (2, 1, 0), (4, 2, 1, 0, 0),
)
PREDICT_DEGREES = range(6)
# (n, d) of the double-point schemes: n+1 conditions a point, C(n+d, d) forms
DOUBLE_POINT_SHAPES = tuple((n, d) for n in range(1, 4) for d in range(1, 5))
SEEDS = (11, 2024)
# commands run at each of REFUSED_PRIMES, beside a solve of the first diagnosis problem
REFUSED = (
    ["tables", "-n", "3"],
    ["verify", "--suite", "ah"],
    ["props", "--prop", "4.6"],
    ["verify", "-n", "2", "-d", "4", "-a", "2,2,2,2,2"],
)
REFUSED_PRIMES = (9, 2, 3, 67108879, 2**61 - 1)
SOLVE_WORKLOADS = ("exact-solve-q", "exact-solve-gf")
SOLVE_SEEDS = (1, 2)
# (n, d) of the fractional problems solved over Q alone, orders 120 and 126
BIG_RATIONAL = ((3, 7), (4, 5))
SOLVE_FIELDS = (
    ["--field", "rational"],
    ["--field", "gf"],
    ["--field", "gf", "--prime", "7"],
    ["--field", "gf", "--prime", "67108859"],
)


def problem_files(checkout: Path, workdir: Path) -> tuple:
    """Problem files written by ``checkout``'s code: those of both exact-solve
    workloads, and the ``BIG_RATIONAL`` ones."""
    code = (
        "import json, random, sys\n"
        "from pathlib import Path\n"
        "import workloads\n"
        "out = Path(sys.argv[1])\n"
        "paths = [cmd['problem'] for w in sys.argv[2].split(',') for seed in sys.argv[3].split(',')\n"
        "         for cmd in workloads.plan(w, int(seed), out / f'{w}-{seed}')]\n"
        "big = []\n"
        "for n, d in json.loads(sys.argv[4]):\n"
        "    rng = random.Random(workloads.derive(1, f'big {n} {d}'))\n"
        "    path = out / f'big-{n}-{d}.json'\n"
        "    path.write_text(json.dumps(workloads.make_problem(rng, n, d, 'frac')))\n"
        "    big.append(str(path))\n"
        "print(json.dumps([paths, big]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(checkout / "perfbench"), str(checkout / "src")])}
    done = subprocess.run(
        [sys.executable, "-c", code, str(workdir), ",".join(SOLVE_WORKLOADS),
         ",".join(map(str, SOLVE_SEEDS)), json.dumps(BIG_RATIONAL)],
        env=env, capture_output=True, text=True, check=True)
    return tuple(json.loads(done.stdout))


def _profile(values) -> str:
    return ",".join(map(str, values))


def diagnosis_problems(workdir: Path) -> list:
    """Square problems that ``solve`` diagnoses, written into ``workdir``: their paths.

    One problem per exceptional pattern, each point a double point (every
    unit direction) apart from the lone a = 2 point of b', which takes the
    first two; pattern b is overdetermined (36 conditions, 35 coefficients).
    Then two tangent lines of a conic, n = 2 and d = 2 (quadric-delta),
    and three linear conditions on the plane at two coincident points.
    Points and values are seeded small integers.
    """
    rng = random.Random(7)
    shapes = [*PATTERNS, (2, 2, (2, 2))]
    docs = []
    for n, d, a in shapes:
        docs.append({
            "n": n, "d": d, "mode": "affine",
            "points": [[rng.randint(-20, 20) for _ in range(n)] for _ in a],
            "directions": [[[int(i == j) for i in range(n)] for j in range(k)] for k in a],
            "values": [[rng.randint(-9, 9) for _ in range(k + 1)] for k in a],
        })
    docs.append({"n": 2, "d": 1, "mode": "affine", "points": [[1, 2], [1, 2], [0, 0]],
                 "directions": [[], [], []], "values": [[1], [2], [3]]})
    paths = []
    for i, doc in enumerate(docs):
        path = workdir / f"diagnosis-{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def commands(problems, refused_problem, big_problems) -> list:
    out = [argv + ["--prime", str(p), "--seed", str(s)]
           for argv in REPORTS for p in PRIMES for s in SEEDS]
    out += [argv + ["--prime", str(p), "--seed", str(SEEDS[0])]
            for argv in REFUSED for p in REFUSED_PRIMES]
    out += [["solve", refused_problem, "--field", "gf", "--prime", str(p)]
            for p in REFUSED_PRIMES]
    out += [["verify", "-n", str(n), "-d", str(d), *form, "--prime", str(p), "--seed", str(s)]
            for n, d, a in PATTERNS
            for form in (["-a", _profile(a)], ["--lengths", _profile(x + 1 for x in a)])
            for p in PRIMES for s in SEEDS]
    out += [["verify", "-n", str(n), "-d", str(d), "--lengths",
             _profile([n + 1] * (comb(n + d, d) // (n + 1))), "--prime", str(p), "--seed", str(s)]
            for n, d in DOUBLE_POINT_SHAPES for p in PRIMES for s in SEEDS]
    out += [["predict", "-n", str(n), "-d", str(d), *form]
            for n in range(1, 5) for d in PREDICT_DEGREES
            for a in PREDICT_PROFILES if max(a) <= n
            for form in (["-a", _profile(a)], ["--lengths", _profile(x + 1 for x in a)])]
    out += [["solve", path, *field] for path in problems for field in SOLVE_FIELDS]
    return out + [["solve", path, "--field", "rational"] for path in big_problems]


def run(checkout: Path, argv, workdir: Path, cpus=None):
    """(exit code, sha256 of the cases or of stdout, stderr, canonical) of one command in one checkout.

    ``canonical`` is None when stdout is empty, else whether stdout is
    ``json.dumps(json.loads(stdout), indent=2, sort_keys=True)`` and a
    newline: the bytes the CLI promises, timing included.
    ``cpus``: the set of CPUs the command may run on (default: this process's).
    """
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    done = subprocess.run([sys.executable, "-m", "ppinterp.cli", *argv], cwd=workdir, env=env,
                          capture_output=True, preexec_fn=pin)
    payload, canonical = done.stdout, None
    if payload:
        doc = json.loads(payload)
        canonical = payload == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        if argv[0] not in ("predict", "solve"):
            payload = json.dumps(doc["cases"], sort_keys=True).encode()
    return done.returncode, hashlib.sha256(payload).hexdigest(), done.stderr, canonical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("change", type=Path, help="checkout to compare against it")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    one_cpu = {min(os.sched_getaffinity(0))}
    runs = ((parent, None, ""), (change, None, ""), (change, one_cpu, " (one CPU)"))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        diagnosis = diagnosis_problems(workdir)
        problems, big = problem_files(parent, workdir)
        cmds = commands(problems + diagnosis, diagnosis[0], big)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [[pool.submit(run, tree, cmd, workdir, cpus) for cmd in cmds]
                       for tree, cpus, _ in runs]
            results = [[f.result() for f in side] for side in futures]
    mismatches = reports = 0
    for (_, _, how), side in zip(runs[1:], results[1:]):
        for cmd, before, after in zip(cmds, results[0], side):
            for what, a, b in zip(("exit code", "cases sha256", "stderr"), before, after):
                if a != b:
                    mismatches += 1
                    print(f"MISMATCH {what}{how}: {' '.join(cmd)}: {a!r} != {b!r}")
            if after[3] is not None:
                reports += 1
                if not after[3]:
                    mismatches += 1
                    print(f"MISMATCH report bytes{how}: {' '.join(cmd)}: stdout is not"
                          " json.dumps(doc, indent=2, sort_keys=True) and a newline")
    codes = Counter(code for code, *_ in results[0])
    print(f"{len(cmds)} commands, each run on {len(os.sched_getaffinity(0))} CPUs and on one;"
          f" {reports} JSON reports of the change checked for json.dumps' bytes;"
          f" {mismatches} mismatches; parent exit codes "
          + ", ".join(f"{n} x {code}" for code, n in sorted(codes.items())))
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
