#!/usr/bin/env python3
"""ppinterp benchmark: run one workload through the CLI, check it, report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json): ``cubic-sweeps``,
``small-cases``, ``exact-solve-q``, ``exact-solve-gf``, or ``all`` to run
each in turn.  Each pass of a workload is a fresh single-threaded process
(passrun.py) that imports ppinterp and runs the workload's CLI commands in
process.  Passes repeat until ``--seconds`` have gone by (one at least, two
with ``--trace 1``); every pass's outputs are checked (checks.py) and must
replay identically.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
separate import-only processes), ``wall_s`` (median pass time, set-up and
checks excluded) and ``peak_rss_mb`` (median peak RSS of a pass).  Both
times are in reference seconds: measured time scaled by a reference probe
run on the same CPU during the measurement (see passrun.py); the unscaled
medians are printed alongside.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of spans.py (medians over traced passes) together with
``trace.overhead_ratio``.  The metric names and units are the ones declared
in BENCHMARK.json.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--record`` (at the default seed) rewrites the committed case counts and
``cases`` digests in expected.json from the first pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_PROBES = 9
# no pass starts once a run has used BUDGET_S, and a pass still running at
# DEADLINE_S is killed, so one workload run ends within 180 s
BUDGET_S = 110
DEADLINE_S = 165
OUT = Path(".perfbench_out")
EXPECTED = HERE / "expected.json"
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                 OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchError(RuntimeError):
    """The benchmark could not run (not a checkout, or a pass process died)."""


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import ppinterp
    from ppinterp import linalg

    return {
        "kernel": linalg.KERNEL,
        "ppinterp": ppinterp.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def run_child(plan_path, out_dir, deadline, *flags) -> dict:
    """Run passrun.py in a fresh process; it is killed at the run's deadline."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "passrun.py"), str(plan_path), str(out_dir), *flags]
    with open(out_dir / "log.txt", "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=log, env=CHILD_ENV,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{out_dir} ran past the {DEADLINE_S} s deadline") from None
    result = out_dir / "result.json"
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"pass in {out_dir} failed (exit {proc.returncode}); see its log.txt")
    return json.loads(result.read_text())


def _load(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class Checker:
    """Checks every pass of one run; later passes must replay the first."""

    def __init__(self, commands, committed):
        self.commands = commands
        self.committed = committed
        self.first = {}
        self.attempted = 0
        self.failures = []

    def check(self, pass_dir, result) -> int:
        """Check one pass; returns the number of cases it reported."""
        cases = 0
        runs = result["commands"]
        for i, cmd in enumerate(self.commands):
            label = cmd["label"]
            rc = runs[i]["rc"] if i < len(runs) else None
            path = pass_dir / f"{i:02d}.json"
            doc = _load(path)
            if cmd["kind"] == "report":
                want = self.committed.get(label, {})
                attempted, failures = checks.check_report(
                    label, rc, doc, want.get("cases"), want.get("sha256"),
                    replay_of=self.first.get(label))
                if isinstance(doc, dict) and isinstance(doc.get("cases"), list):
                    cases += len(doc["cases"])
                    self.first.setdefault(label, checks.cases_digest(doc["cases"]))
            else:
                fingerprint = hashlib.sha256(path.read_bytes()).hexdigest() if doc else None
                if label not in self.first:
                    prime = None if cmd["field"] == "rational" else workloads.PRIME
                    outcome = checks.check_solve(label, rc, doc, cmd["problem"], prime)
                    self.first[label] = (fingerprint, outcome)
                first, outcome = self.first[label]
                attempted, failures = outcome
                if fingerprint != first:
                    failures = [f"{label}: output differs from the first pass"]
            self.attempted += attempted
            self.failures += failures
        return cases


def _median_metrics(dicts):
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in sorted(keys)}


def run_workload(name, seed, seconds, trace, record=False):
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    commands = workloads.plan(name, seed, workdir / "problems")
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(commands, indent=1))
    committed = {}
    if EXPECTED.is_file() and not record:
        committed = json.loads(EXPECTED.read_text())["workloads"].get(name, {})
        if seed != DEFAULT_SEED:
            # case counts hold at every seed; digests only at the default one
            committed = {label: {"cases": e["cases"]} for label, e in committed.items()}

    deadline = time.monotonic() + DEADLINE_S
    setup = [run_child(plan_path, workdir / f"setup{i}", deadline, "--setup-only")
             for i in range(SETUP_PROBES)]

    checker = Checker(commands, committed)
    passes = []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        pass_dir = workdir / f"pass{len(passes)}"
        t = time.monotonic()
        result = run_child(plan_path, pass_dir, deadline, *(["--trace"] if traced else []))
        result["traced"] = traced
        result["cases"] = checker.check(pass_dir, result)
        if traced:
            result["layers"] = spans.layer_metrics(
                spans.load_spans(pass_dir / "spans.json"), result["cases"])
        passes.append(result)
        elapsed, last = time.monotonic() - start, time.monotonic() - t
        # with --trace 1, one untraced and one traced pass at least
        if len(passes) >= 1 + trace and (elapsed >= seconds or elapsed + last > BUDGET_S):
            break

    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        metrics = _median_metrics([p["layers"] for p in traced_passes])
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["wall_ref_s"] for p in traced_passes)
            / statistics.median(p["wall_ref_s"] for p in plain) - 1)
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_ref_s"] for p in setup),
            "wall_s": statistics.median(p["wall_ref_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            # the same times unscaled, printed for reference only
            "setup_raw_s": statistics.median(p["setup_s"] for p in setup),
            "wall_raw_s": statistics.median(p["wall_s"] for p in plain),
        }
    if record:
        _record(name, commands, workdir / "pass0")
    summary = (f"# {name} seed={seed} trace={trace}: {len(passes)} passes, "
               f"{SETUP_PROBES} set-up probes, {checker.attempted} outcomes checked, "
               f"{len(checker.failures)} failed")
    return metrics, checker, summary


def _record(name, commands, pass_dir):
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    doc["default_seed"] = DEFAULT_SEED
    entries = {}
    for i, cmd in enumerate(commands):
        if cmd["kind"] == "report":
            cases = _load(pass_dir / f"{i:02d}.json")["cases"]
            entries[cmd["label"]] = {"cases": len(cases), "sha256": checks.cases_digest(cases)}
    if entries:
        doc.setdefault("workloads", {})[name] = entries
    EXPECTED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _declared(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from this run (default seed only)")
    args = parser.parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record needs the default seed {DEFAULT_SEED}")
    if not Path("src/ppinterp/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("error: run from the root of a ppinterp checkout "
              "(src/ppinterp and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = _declared(spec, args.trace)

    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, reported = True, 0, 0, {}
    try:
        for name in names:
            metrics, checker, summary = run_workload(
                name, args.seed, args.seconds, args.trace, args.record)
            print(summary)
            for key in sorted(set(metrics) - set(declared)):
                print(f"#   ({key} = {metrics[key]:.6g}, not declared)")
            for key, unit in declared.items():
                if key not in metrics:
                    print(f"warning: {name}: metric {key} unavailable", file=sys.stderr)
                    continue
                print(f"#   {key:40s} {metrics[key]:14.6f} {unit}")
                prefix = f"{name}." if len(names) > 1 else ""
                reported[prefix + key] = {"value": metrics[key], "unit": unit}
            for msg in checker.failures[:20]:
                print(f"FAIL {msg}", file=sys.stderr)
            correct = correct and not checker.failures
            attempted += checker.attempted
            failed += len(checker.failures)
            sys.stdout.flush()
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
