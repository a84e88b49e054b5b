#!/usr/bin/env python3
"""Check that two checkouts give byte-identical outputs on a fixed command list.

A change that only makes the program faster or smaller must leave every
report's replayable ``cases`` payload, every exit code and every stderr line
as they were.  This script runs the same CLI commands in both checkouts
(``python -m ppinterp.cli`` with the checkout's ``src`` on PYTHONPATH) and
compares, command by command, the exit code, the sha256 of the report's
``cases`` (of all of stdout for ``solve``, whose output holds no timing) and
stderr.  The second checkout runs each command twice: on every CPU this
process may use, where a command's trial batches run in several processes,
and pinned to one CPU, where they run in one; both runs are compared with
the first checkout's.

The commands:

* ``props --prop 4.5``, ``--prop 4.6``, ``--prop 4.8 --sample 10`` and
  ``--prop base -n 5``; ``verify --suite p8|base|sweep|quadrics|ah``;
  ``tables -n 3`` and ``-n 4``; each at primes 31991, 5, 7 and 67108859 and
  seeds 11 and 2024 (88 commands);
* ``solve`` on the problem files of perfbench's ``exact-solve-q`` and
  ``exact-solve-gf`` workloads at perfbench seeds 1 and 2, written by
  ``perfbench/workloads.py`` of the first checkout into a temporary
  directory, each with ``--field rational``, ``--field gf`` and ``--field gf``
  at primes 7 and 67108859 (176 commands).

Commands run two at a time.  Prints one line per mismatch and a summary with
the number of commands run each way, and exits 1 on any mismatch, 0
otherwise.

Usage: python benchmarks/compare_outputs.py PARENT CHANGE
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
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
SEEDS = (11, 2024)
SOLVE_WORKLOADS = ("exact-solve-q", "exact-solve-gf")
SOLVE_SEEDS = (1, 2)
SOLVE_FIELDS = (
    ["--field", "rational"],
    ["--field", "gf"],
    ["--field", "gf", "--prime", "7"],
    ["--field", "gf", "--prime", "67108859"],
)


def problem_files(checkout: Path, workdir: Path) -> list:
    """The perfbench problem files of both exact-solve workloads, written by ``checkout``'s code."""
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "import workloads\n"
        "out = Path(sys.argv[1])\n"
        "paths = [cmd['problem'] for w in sys.argv[2].split(',') for seed in sys.argv[3].split(',')\n"
        "         for cmd in workloads.plan(w, int(seed), out / f'{w}-{seed}')]\n"
        "print(json.dumps(paths))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(checkout / "perfbench"), str(checkout / "src")])}
    done = subprocess.run(
        [sys.executable, "-c", code, str(workdir), ",".join(SOLVE_WORKLOADS),
         ",".join(map(str, SOLVE_SEEDS))],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def commands(problems) -> list:
    out = [argv + ["--prime", str(p), "--seed", str(s)]
           for argv in REPORTS for p in PRIMES for s in SEEDS]
    return out + [["solve", path, *field] for path in problems for field in SOLVE_FIELDS]


def run(checkout: Path, argv, workdir: Path, cpus=None):
    """(exit code, sha256 of the cases or of stdout, stderr) of one command in one checkout.

    ``cpus``: the set of CPUs the command may run on (default: this process's).
    """
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    done = subprocess.run([sys.executable, "-m", "ppinterp.cli", *argv], cwd=workdir, env=env,
                          capture_output=True, preexec_fn=pin)
    payload = done.stdout
    if argv[0] != "solve" and payload:
        payload = json.dumps(json.loads(payload)["cases"], sort_keys=True).encode()
    return done.returncode, hashlib.sha256(payload).hexdigest(), done.stderr


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
        cmds = commands(problem_files(parent, workdir))
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [[pool.submit(run, tree, cmd, workdir, cpus) for cmd in cmds]
                       for tree, cpus, _ in runs]
            results = [[f.result() for f in side] for side in futures]
    mismatches = 0
    for (_, _, how), side in zip(runs[1:], results[1:]):
        for cmd, before, after in zip(cmds, results[0], side):
            for what, a, b in zip(("exit code", "cases sha256", "stderr"), before, after):
                if a != b:
                    mismatches += 1
                    print(f"MISMATCH {what}{how}: {' '.join(cmd)}: {a!r} != {b!r}")
    codes = Counter(code for code, _, _ in results[0])
    print(f"{len(cmds)} commands, each run on {len(os.sched_getaffinity(0))} CPUs and on one;"
          f" {mismatches} mismatches; parent exit codes "
          + ", ".join(f"{n} x {code}" for code, n in sorted(codes.items())))
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
