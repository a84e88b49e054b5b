"""Span tracer wrapped around ppinterp's layers from outside, and its arithmetic.

The tracer replaces each layer's public functions, by object identity, in
every loaded ``ppinterp.*`` module namespace, so a nested call such as the
``rank`` inside ``random_instance`` becomes a child span of the draw span.
Spans live in memory as parallel lists (name, start, end, parent) and are
written out once, after the traced pass.

A layer's metrics are computed from the spans:

* ``calls``  -- entries into the layer (spans whose parent is another layer);
* ``s``      -- inclusive time of those entries (what the caller waited);
* ``self_s`` -- span time not covered by child spans, summed over the layer;
* ``share``  -- ``self_s`` over the traced wall time of the pass.

A wrap target missing from the program (renamed or removed) is skipped with a
warning, and every metric that depends on its layer is dropped.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import warnings
from collections import defaultdict

# (module, layer, public functions); the layer names are the metric prefixes.
TARGETS = (
    ("ppinterp.cli", "cli", ("main",)),
    ("ppinterp.verify", "verify", (
        "run_suite", "verify_tables", "verify_ah_exceptions", "verify_prop45",
        "verify_remark46", "verify_prop48_leftovers", "verify_props47_413_base",
        "verify_generic", "sweep_nonexceptional", "quadric_bruteforce",
        "run_rank_case", "run_dim_case",
    )),
    ("ppinterp.theory", "theory", (
        "predict_profile", "predict_quadric_scheme", "predict_quadric_affine",
        "enumerate_quadric_exceptions", "enumerate_triple_partitions",
        "enumerate_xo_partitions", "best_cone_lower_bound",
    )),
    ("ppinterp.schemes", "schemes.draw", ("random_instance", "random_affine_problem")),
    ("ppinterp.schemes", "schemes.build.projective", ("condition_matrix_projective",)),
    ("ppinterp.schemes", "schemes.build.affine", ("condition_matrix_affine",)),
    ("ppinterp.monomials", "monomials", (
        "eval_row", "derivative_row", "jacobian_block", "build_basis", "vanishing_basis",
    )),
    ("ppinterp.linalg", "linalg.rank", ("rank",)),
    ("ppinterp.linalg", "linalg.solve", ("solve_square", "solve_any")),
    ("ppinterp.interp", "interp", ("load_problem", "predict_then_solve", "solve")),
)

# span of the benchmark's own speed probe (passrun.py): a child of whatever
# span it interrupts, so self times exclude it; inclusive times subtract it
PROBE_SPAN = "bench.probe"

MONOMIAL_ROWS = ("monomials.eval_row", "monomials.derivative_row", "monomials.jacobian_block")

# Column counts the workloads produce: the sweep/table/quadric orders of
# small-cases, the P^8 and n=5 vanishing bases of cubic-sweeps, and the
# rational solve orders of exact-solve-q.
RANK_ORDERS = (3, 4, 5, 6, 10, 15, 20, 21, 27, 35, 36, 46, 56, 63, 70, 126)
SOLVE_Q_ORDERS = (45, 56, 66)

TIMED_LAYERS = (
    "cli", "verify", "theory", "schemes.draw", "schemes.build.projective",
    "schemes.build.affine", "monomials", "linalg.rank", "linalg.solve.q",
    "linalg.solve.gf", "interp.solve.q", "interp.solve.gf",
)


def _dims(matrix):
    shape = getattr(matrix, "shape", None)
    if shape is not None:
        return (int(shape[0]), int(shape[1])) if len(shape) == 2 else (0, 0)
    rows = len(matrix)
    return rows, (len(matrix[0]) if rows else 0)


def _prime_arg(args, kwargs, pos):
    return args[pos] if len(args) > pos else kwargs.get("prime")


# Per-target attributes kept with the span: matrix dimensions for the work
# counts, the field of a solve, the argv of a CLI call.
MEASURE = {
    "cli.main": lambda args, kwargs, out: list(args[0]) if args else [],
    "linalg.rank": lambda args, kwargs, out: _dims(args[0]),
    "linalg.solve_square": lambda args, kwargs, out: (
        *_dims(args[0]), _prime_arg(args, kwargs, 2) is None),
    "linalg.solve_any": lambda args, kwargs, out: (
        *_dims(args[0]), _prime_arg(args, kwargs, 2) is None),
    "schemes.condition_matrix_projective": lambda args, kwargs, out: _dims(out),
    "schemes.condition_matrix_affine": lambda args, kwargs, out: _dims(out),
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.attrs = {}
        self.missing = []
        self._stack = [-1]
        self._replaced = []

    def wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, attrs, measure = self._stack, self.attrs, MEASURE.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            out = None
            starts[i] = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                ends[i] = clock()
                stack.pop()
                if measure is not None:
                    attrs[i] = measure(args, kwargs, out)

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target in every loaded ppinterp module namespace."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ppinterp" or name.startswith("ppinterp."))]
        for modname, _layer, fns in targets:
            module = importlib.import_module(modname)
            short = modname.rsplit(".", 1)[-1]
            for fname in fns:
                fn = getattr(module, fname, None)
                if not callable(fn):
                    self.missing.append(f"{short}.{fname}")
                    warnings.warn(f"trace target {modname}.{fname} not found; "
                                  "its layer metrics are dropped")
                    continue
                wrapped = self.wrap(f"{short}.{fname}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapped)
                            self._replaced.append((m, attr, fn))

    def uninstall(self):
        """Put the original functions back."""
        for m, attr, fn in reversed(self._replaced):
            setattr(m, attr, fn)
        self._replaced.clear()

    def dump(self, path, origin_ns):
        doc = {
            "names": self.names,
            "start_ns": [s - origin_ns for s in self.starts],
            "end_ns": [e - origin_ns for e in self.ends],
            "parent": self.parents,
            "attrs": {str(i): a for i, a in self.attrs.items()},
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def load_spans(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc["attrs"] = {int(i): a for i, a in doc["attrs"].items()}
    return doc


def self_times(starts, ends, parents):
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        covered = 0
        lo = hi = None
        for k in sorted(kids, key=starts.__getitem__):
            s, e = max(starts[k], starts[p]), min(ends[k], ends[p])
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out[p] -= covered
    return out


def _layer_of(targets=TARGETS):
    return {f"{m.rsplit('.', 1)[-1]}.{f}": layer for m, layer, fns in targets for f in fns}


def classify(spans, targets=TARGETS):
    """Layer of every span, with rank split by caller and solves split by field.

    A rank nested in a draw is the draw's direction check
    (``schemes.draw.rank``); ``linalg.solve`` and ``interp`` spans split into
    ``.q`` (rational) and ``.gf`` (GF(p)) by the solve's prime argument and by
    the ``--field`` of the CLI call they belong to.
    """
    layer_of = _layer_of(targets)
    names, parents, attrs = spans["names"], spans["parent"], spans["attrs"]
    layers = []
    root = []
    for i, name in enumerate(names):
        p = parents[i]
        root.append(root[p] if p >= 0 else i)
        layer = "probe" if name == PROBE_SPAN else layer_of[name]
        if layer == "linalg.rank" and p >= 0 and layers[p] == "schemes.draw":
            layer = "schemes.draw.rank"
        elif layer == "linalg.solve":
            layer += ".q" if attrs[i][2] else ".gf"
        elif layer == "interp":
            argv = attrs.get(root[i], [])
            layer += ".solve.gf" if "gf" in argv else ".solve.q"
        layers.append(layer)
    return layers, root


def _ops(m, n):
    return m * n * min(m, n)


def layer_metrics(spans, cases, targets=TARGETS):
    """Per-layer metrics of one traced pass; ``cases`` counts the reported cases."""
    starts, ends, parents, attrs = spans["start_ns"], spans["end_ns"], spans["parent"], spans["attrs"]
    names = spans["names"]
    layers, root = classify(spans, targets)
    selfs = self_times(starts, ends, parents)
    probed = [0] * len(names)  # probe time inside each span
    for i, layer in enumerate(layers):
        if layer == "probe":
            p = parents[i]
            while p >= 0:
                # a probe can fire inside the wrapper before the start or after the end
                if starts[p] <= starts[i] and ends[i] <= ends[p]:
                    probed[p] += ends[i] - starts[i]
                p = parents[p]
    dur = [e - s - q for s, e, q in zip(starts, ends, probed)]
    wall_ns = sum(dur[i] for i, p in enumerate(parents) if p < 0 and layers[i] != "probe")

    calls = defaultdict(int)
    incl = defaultdict(int)
    own = defaultdict(int)
    entries = []
    for i, layer in enumerate(layers):
        own[layer] += selfs[i]
        p = parents[i]
        if p < 0 or layers[p] != layer:
            entries.append(i)
            calls[layer] += 1
            incl[layer] += dur[i]

    sec = lambda ns: ns / 1e9
    out = {}
    for layer in ("cli", "verify", "schemes.draw"):
        out[f"{layer}.self_s"] = sec(own[layer])
    out["cli.calls"] = calls["cli"]
    out["verify.cases"] = cases
    # builds made by the verification harness, not by the exact solver
    builds = sum(1 for i in entries
                 if layers[i].startswith("schemes.build.") and "solve" not in attrs.get(root[i], []))
    out["verify.builds_per_case"] = builds / cases if cases else 0.0
    out["theory.calls"] = calls["theory"]
    out["theory.s"] = sec(incl["theory"])
    out["schemes.draw.calls"] = calls["schemes.draw"]
    out["schemes.draw.rank_calls"] = calls["schemes.draw.rank"]
    out["schemes.draw.rank_s"] = sec(incl["schemes.draw.rank"])

    for kind in ("projective", "affine"):
        layer = f"schemes.build.{kind}"
        cells = sum(attrs[i][0] * attrs[i][1] for i, l in enumerate(layers) if l == layer)
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.s"] = sec(incl[layer])
        out[f"{layer}.cells"] = cells
        out[f"{layer}.ns_per_cell"] = incl[layer] / cells if cells else 0.0

    out["monomials.row_calls"] = sum(1 for n in names if n in MONOMIAL_ROWS)
    out["monomials.s"] = sec(incl["monomials"])

    ranks = [i for i, l in enumerate(layers) if l == "linalg.rank"]
    rank_ops = sum(_ops(*attrs[i]) for i in ranks)
    out["linalg.rank.calls"] = len(ranks)
    out["linalg.rank.s"] = sec(incl["linalg.rank"])
    out["linalg.rank.ops"] = rank_ops
    out["linalg.rank.mops_per_s"] = rank_ops / incl["linalg.rank"] * 1e3 if ranks else 0.0
    by_order = defaultdict(list)
    for i in ranks:
        by_order[attrs[i][1]].append(dur[i])
    for order in sorted(set(RANK_ORDERS) | set(by_order)):
        ts = by_order.get(order)
        out[f"linalg.rank.us.o{order}"] = statistics.fmean(ts) / 1e3 if ts else 0.0

    for field in ("q", "gf"):
        layer = f"linalg.solve.{field}"
        solves = [i for i, l in enumerate(layers) if l == layer]
        out[f"{layer}.s"] = sec(incl[layer])
        out[f"{layer}.ops"] = sum(_ops(*attrs[i][:2]) for i in solves)
        out[f"interp.solve.{field}.self_s"] = sec(own[f"interp.solve.{field}"])
        if field == "q":
            q_by_order = defaultdict(int)
            for i in solves:
                q_by_order[attrs[i][1]] += dur[i]
            for order in sorted(set(SOLVE_Q_ORDERS) | set(q_by_order)):
                out[f"linalg.solve.q.s.o{order}"] = sec(q_by_order.get(order, 0))

    for layer in TIMED_LAYERS:
        out[f"{layer}.share"] = own[layer] / wall_ns if wall_ns else 0.0
    out["trace.spans"] = len(names) - calls["probe"]
    return _drop_missing(out, spans.get("missing", ()), targets)


def _drop_missing(metrics, missing, targets):
    """Remove the metrics of every layer that lost a wrap target."""
    if not missing:
        return metrics
    layer_of = _layer_of(targets)
    prefixes = {layer_of[name] for name in missing}
    if "linalg.rank" in prefixes:
        prefixes.add("schemes.draw.rank")
    return {k: v for k, v in metrics.items()
            if not any(k.startswith(p + ".") or k.startswith(p + "_") for p in prefixes)}
