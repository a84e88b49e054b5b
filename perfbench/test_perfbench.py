"""Tests of the benchmark's own arithmetic, checker, tracer and input generator."""

import json
import random
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _spans(rows, attrs=None):
    """Span dict from (name, start, end, parent) rows."""
    names, starts, ends, parents = (list(col) for col in zip(*rows))
    return {"names": names, "start_ns": starts, "end_ns": ends, "parent": parents,
            "attrs": attrs or {}, "missing": []}


def test_self_times_subtract_union_of_children():
    starts = [0, 10, 20, 50, 60]
    ends = [100, 40, 30, 70, 80]
    parents = [-1, 0, 1, 0, 0]  # children 3 and 4 overlap on [60, 70]
    assert spans.self_times(starts, ends, parents) == [100 - 30 - 30, 20, 10, 20, 20]


def test_layer_metrics_on_synthetic_tree():
    argv = ["verify", "--suite", "sweep"]
    tree = _spans([
        ("cli.main", 0, 1000, -1),                     # 0
        ("verify.run_rank_case", 100, 900, 0),         # 1
        ("schemes.random_affine_problem", 150, 350, 1),  # 2
        ("linalg.rank", 200, 250, 2),                  # 3: direction check of the draw
        ("schemes.condition_matrix_affine", 400, 700, 1),  # 4
        ("monomials.eval_row", 450, 550, 4),           # 5
        ("linalg.rank", 750, 850, 1),                  # 6
    ], attrs={0: argv, 3: [2, 3], 4: [4, 10], 6: [4, 10]})
    m = spans.layer_metrics(tree, cases=1)
    assert m["cli.calls"] == 1
    assert m["cli.self_s"] == pytest.approx(200e-9)
    assert m["verify.self_s"] == pytest.approx(200e-9)
    assert m["schemes.draw.calls"] == 1
    assert m["schemes.draw.self_s"] == pytest.approx(150e-9)
    assert m["schemes.draw.rank_calls"] == 1
    assert m["schemes.draw.rank_s"] == pytest.approx(50e-9)
    assert m["schemes.build.affine.s"] == pytest.approx(300e-9)
    assert m["schemes.build.affine.cells"] == 40
    assert m["schemes.build.affine.ns_per_cell"] == pytest.approx(300 / 40)
    assert m["monomials.row_calls"] == 1
    assert m["linalg.rank.calls"] == 1
    assert m["linalg.rank.ops"] == 4 * 10 * 4
    assert m["linalg.rank.us.o10"] == pytest.approx(0.1)
    assert m["verify.builds_per_case"] == 1
    assert m["schemes.build.affine.share"] == pytest.approx(200 / 1000)
    shares = sum(m[f"{layer}.share"] for layer in spans.TIMED_LAYERS)
    assert shares + m["schemes.draw.rank_s"] * 1e9 / 1000 == pytest.approx(1.0)


def test_probe_spans_are_charged_to_no_layer():
    tree = _spans([
        ("bench.probe", 0, 5, -1),
        ("cli.main", 10, 110, -1),
        ("linalg.rank", 20, 60, 1),
        ("bench.probe", 30, 40, 2),
        ("bench.probe", 70, 75, 1),
    ], attrs={1: ["verify"], 2: [4, 10]})
    m = spans.layer_metrics(tree, cases=1)
    assert m["linalg.rank.s"] == pytest.approx(30e-9)
    assert m["linalg.rank.us.o10"] == pytest.approx(0.03)
    assert m["cli.self_s"] == pytest.approx(55e-9)
    assert m["linalg.rank.share"] == pytest.approx(30 / 85)
    assert m["trace.spans"] == 2


def test_missing_target_drops_its_layer_with_a_warning():
    import ppinterp.linalg

    targets = spans.TARGETS + (("ppinterp.linalg", "linalg.rank", ("renamed_rank",)),)
    tracer = spans.Tracer()
    with pytest.warns(UserWarning, match="renamed_rank"):
        tracer.install(targets)
    try:
        assert ppinterp.linalg.rank([[1, 2], [2, 4]], 7) == 1
    finally:
        tracer.uninstall()
    assert tracer.names == ["linalg.rank"]
    doc = {"names": tracer.names, "start_ns": tracer.starts, "end_ns": tracer.ends,
           "parent": tracer.parents, "attrs": tracer.attrs, "missing": tracer.missing}
    m = spans.layer_metrics(doc, cases=0, targets=targets)
    assert not any(k.startswith(("linalg.rank.", "schemes.draw.rank")) for k in m)
    assert "cli.calls" in m


def test_tracer_attributes_nested_rank_to_the_draw(tmp_path):
    from ppinterp import cli

    tracer = spans.Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracer.install()
    try:
        assert cli.main(["verify", "-n", "2", "-d", "4", "-a", "1,1,1",
                         "--out", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    layers, _ = spans.classify({"names": tracer.names, "parent": tracer.parents,
                                "attrs": tracer.attrs})
    assert layers[0] == "cli"
    assert "schemes.draw.rank" in layers and "linalg.rank" in layers
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")


def _report(verdict="PASS"):
    return {"cases": [{"case": "a", "verdict": "PASS", "predicted": 3, "measured": [3]},
                      {"case": "b", "verdict": verdict, "predicted": 3, "measured": [3]}]}


def test_checker_counts_flipped_verdict():
    assert checks.check_report("x", 0, _report()) == (3, [])
    attempted, failures = checks.check_report("x", 0, _report("SUSPECT"))
    assert attempted == 3 and len(failures) == 1


def test_checker_counts_changed_digest_and_replay():
    doc = _report()
    digest = checks.cases_digest(doc["cases"])
    assert checks.check_report("x", 0, doc, 2, digest, replay_of=digest)[1] == []
    changed = _report()
    changed["cases"][0]["measured"] = [2]
    assert len(checks.check_report("x", 0, changed, 2, digest)[1]) == 1
    assert len(checks.check_report("x", 0, changed, 2, replay_of=digest)[1]) == 1
    assert len(checks.check_report("x", 0, {"cases": doc["cases"][:1]}, 2)[1]) == 2


def test_checker_expects_the_known_red():
    red = {"case": "P4 exception enumeration", "verdict": "SUSPECT",
           "predicted": 36, "measured": [39]}
    doc = {"cases": [red]}
    assert checks.check_report("tables -n 4", 1, doc)[1] == []
    assert len(checks.check_report("tables -n 4", 0, doc)[1]) == 1
    fixed = {"cases": [dict(red, verdict="PASS")]}
    assert len(checks.check_report("tables -n 4", 1, fixed)[1]) == 1
    assert len(checks.check_report("tables -n 4", 1, {"cases": []})[1]) == 1


def test_checker_counts_nonzero_residual(tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "n": 1, "d": 3, "mode": "affine", "points": [[0], [1]],
        "directions": [[[1]], [[1]]], "values": [[0, 1], [1, 1]],
    }))
    good = {"interpolant": {"n": 1, "d": 3, "prime": None, "coefficients": [0, 1, 0, 0]}}
    assert checks.check_solve("s", 0, good, problem, None) == (1, [])
    bad = {"interpolant": dict(good["interpolant"], coefficients=[0, 1, "1/2", 0])}
    assert len(checks.check_solve("s", 0, bad, problem, None)[1]) == 1
    gf = {"interpolant": dict(good["interpolant"], prime=31991, coefficients=[0, 1, 0, 0])}
    assert checks.check_solve("s", 0, gf, problem, 31991) == (1, [])
    assert len(checks.check_solve("s", 0, gf, problem, None)[1]) == 1
    assert len(checks.check_solve("s", 1, {"diagnosis": "x"}, problem, None)[1]) == 1


@pytest.mark.parametrize("kind", ["int", "frac"])
def test_generated_problem_is_well_posed(kind):
    from fractions import Fraction

    from ppinterp import interp

    doc = workloads.make_problem(random.Random(3), 2, 3, kind)
    points = [tuple(Fraction(x) for x in p) for p in doc["points"]]
    assert len(set(points)) == len(points)
    assert all(any(Fraction(x) for x in v) for ds in doc["directions"] for v in ds)
    prob = interp.problem_from_json(doc)
    f = interp.solve(prob)
    assert not any(interp.residuals(prob, f))
    assert workloads.make_problem(random.Random(3), 2, 3, kind) == doc
