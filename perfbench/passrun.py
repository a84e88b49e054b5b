"""One workload pass in a fresh process: import ppinterp, run the plan's CLI commands.

Usage (from the root of a checkout):
    python3 perfbench/passrun.py PLAN.json OUT_DIR [--trace] [--setup-only]

Times the import of ``ppinterp`` (set-up: numpy, every module, kernel
selection), then runs each planned command through ``ppinterp.cli.main`` in
this process with ``--out OUT_DIR/<i>.json``, and writes ``result.json``
(set-up, per-command exit codes and times, peak RSS).  With ``--trace`` the
layer functions are wrapped first and the spans go to ``spans.json``.

Set-up and pass times are also reported at the reference speed
(``*_ref``): on a shared host the speed of one CPU swings by 15% and more
over seconds, and run-level medians of raw times inherit those swings.  A
fixed probe runs on the same CPU at the start, every PROBE_PERIOD_S of wall
time (SIGALRM) and at the end; the time between two probes, probe time
excluded, is scaled by the probe's reference duration over the mean measured
duration of the two.  Passes use exact Fraction arithmetic as the probe:
pure-Python calls and object churn like the program's, it slows down with
the host as the workloads do (a tight integer loop or small numpy slices
swing about 0.6 times as much, which left two thirds of the spread).  The
import is probed with the integer loop every SETUP_PROBE_PERIOD_S, which
needs no module that ppinterp would load.
"""

import gc
import json
import os
import resource
import signal
import sys
import time
import traceback

PROBE_PERIOD_S = 0.1
SETUP_PROBE_PERIOD_S = 0.025
# median durations of the probes on the host the baseline was recorded on
# (2-vCPU Xeon, Python 3.11), so reference seconds read close to seconds there
REF_PYTHON_PROBE_S = 0.0022
REF_FRACTION_PROBE_S = 0.0023


def python_probe():
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


def fraction_probe():
    from fractions import Fraction

    xs = [Fraction(i + 1, i + 2) for i in range(40)]
    s = Fraction(0)
    for x in xs:
        for y in xs[:8]:
            s += x * y
    return s


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``ru_maxrss`` keeps the parent's peak across fork and exec on Linux, so
    the high-water mark of the current address space is read where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SpeedSampler:
    """Reference probes on this CPU over an interval, and the interval at reference speed."""

    def __init__(self, loop, probe_ref_s, period):
        self.loop, self.probe_ref_s, self.period = loop, probe_ref_s, period
        self.marks = []

    def probe(self, *_):
        # no collection inside a probe: its cost would follow the program's heap
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self.loop()
        self.marks.append((t0, time.perf_counter()))
        if enabled:
            gc.enable()

    def start(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def raw_s(self) -> float:
        return sum(s1 - e0 for (_, e0), (s1, _) in zip(self.marks, self.marks[1:]))

    def ref_s(self) -> float:
        return sum((s1 - e0) * 2 * self.probe_ref_s / ((e0 - s0) + (e1 - s1))
                   for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:]))


def main(argv):
    plan_path, out_dir = argv[0], argv[1]
    trace, setup_only = "--trace" in argv, "--setup-only" in argv
    sys.path.insert(0, os.path.abspath("src"))

    sampler = SpeedSampler(python_probe, REF_PYTHON_PROBE_S, SETUP_PROBE_PERIOD_S)
    sampler.start()
    import ppinterp  # noqa: F401  (package import selects the rank kernel)
    from ppinterp import cli

    sampler.stop()
    result = {"setup_s": sampler.raw_s(), "setup_ref_s": sampler.ref_s()}
    if not setup_only:
        with open(plan_path) as fh:
            commands = json.load(fh)
        tracer = None
        sampler = SpeedSampler(fraction_probe, REF_FRACTION_PROBE_S, PROBE_PERIOD_S)
        if trace:
            from spans import PROBE_SPAN, Tracer

            tracer = Tracer()
            tracer.install()
            # probes become spans, so no layer is charged for their time
            sampler.probe = tracer.wrap(PROBE_SPAN, sampler.probe)
        sampler.start()
        origin = time.perf_counter_ns()
        runs = []
        for i, cmd in enumerate(commands):
            t = time.perf_counter()
            try:
                rc = cli.main(cmd["argv"] + ["--out", os.path.join(out_dir, f"{i:02d}.json")])
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # the pass goes on; the checker counts the failure
                traceback.print_exc()
                rc = "exception"
            runs.append({"label": cmd["label"], "rc": rc, "wall_s": time.perf_counter() - t})
        sampler.stop()
        result["wall_s"] = sampler.raw_s()
        result["wall_ref_s"] = sampler.ref_s()
        result["peak_rss_mb"] = peak_rss_mb()
        result["commands"] = runs
        if tracer is not None:
            tracer.dump(os.path.join(out_dir, "spans.json"), origin)
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
