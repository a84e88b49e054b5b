import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppinterp
from ppinterp import cli, interp, linalg, verify
from ppinterp.cli import main
from ppinterp.schemes import DegenerateDrawError
from ppinterp.verify import _partition_jobs


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_predict_exception_case(capsys):
    code, out, _ = run_cli(capsys, "predict", "-n", "4", "-d", "3", "-a", "4,4,4,4,4,4,4")
    assert code == 0
    doc = json.loads(out)
    assert doc["exception_id"] == "c"
    assert doc["exceptional"] is True
    assert doc["expected_codim"] == 35
    assert doc["schema_version"] == 1


def test_predict_quadric_lengths(capsys):
    code, out, _ = run_cli(capsys, "predict", "-n", "3", "-d", "2", "--lengths", "4,4,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["quadric"]["independent"] is False
    assert doc["quadric"]["max_delta"] == 1


def test_predict_unique_univariate(capsys):
    code, out, _ = run_cli(capsys, "predict", "-n", "1", "-d", "5", "-a", "0,0,0,0,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["expected_codim"] == 6
    assert doc["exceptional"] is False


def test_predict_usage_errors(capsys):
    code, _, err = run_cli(capsys, "predict", "-n", "3", "-d", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "predict", "-n", "3", "-d", "3",
                           "-a", "1,1", "--lengths", "2,2")
    assert code == 2
    code, _, err = run_cli(capsys, "predict", "-n", "3", "-d", "3", "-a", "9")
    assert code == 2
    # K^0 has no interpolation problem: no expected codimension is given
    for shape in (("-d", "3", "-a", "0"), ("-d", "2", "--lengths", "1")):
        code, out, err = run_cli(capsys, "predict", "-n", "0", *shape)
        assert code == 2 and out == "" and err == "error: need n >= 1, got n=0\n"
    # the profile and the degree are checked at every degree, d = 0 included
    code, out, err = run_cli(capsys, "predict", "-n", "2", "-d", "0", "-a", "9,-4")
    assert code == 2 and out == "" and err == "error: profile entries must lie in [0, 2]: (9, -4)\n"
    code, out, err = run_cli(capsys, "predict", "-n", "2", "-d", "-1", "-a", "1")
    assert code == 2 and out == "" and err == "error: need d >= 0, got d=-1\n"
    # a length error names the lengths as typed, not the lengths minus one
    code, out, err = run_cli(capsys, "predict", "-n", "2", "-d", "3", "--lengths", "9")
    assert code == 2 and out == "" and err == "error: lengths must lie in [1, 3]: (9,)\n"


def test_solve_round_trip(tmp_path, capsys):
    problem = {
        "n": 1, "d": 3, "mode": "affine",
        "points": [[0], [1]],
        "directions": [[[1]], [[1]]],
        "values": [[0, 1], [1, 1]],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["interpolant"]["coefficients"] == [0, 1, 0, 0]
    assert doc["prediction"]["exceptional"] is False


def test_solve_singular_exits_one(tmp_path, capsys):
    # two coincident points cannot both assign a value
    problem = {
        "n": 1, "d": 1, "mode": "affine",
        "points": [[0], [0]], "directions": [[], []],
        "values": [[1], [2]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 1
    doc = json.loads(out)
    assert "degenerate data" in doc["diagnosis"]


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/problem.json")
    assert code == 2


@pytest.mark.parametrize("bad", [
    {"points": [[0], [1.9]], "prime": 31991},       # was truncated to 1
    {"values": [[1], [True]], "prime": 31991},      # was read as 1
    {"points": [[0], [1.9]]},                       # was a TypeError traceback
    {"points": [[0], ["1/7"]], "prime": 7},         # no residue mod 7
    {"prime": "31991"},                             # a prime must be an integer
    {"d": 2.5},                                     # was a TypeError traceback
    {"d": True},                                    # was solved as d = 1
    {"n": 0, "points": [[], []]},                   # was "max() arg is an empty sequence"
    {"d": -1},
    {"points": [[0], ["1e100000000"]]},            # was a hang building 10**(10**8)
], ids=["float-mod-p", "bool-mod-p", "float-over-q", "no-residue", "string-prime",
        "float-d", "bool-d", "zero-n", "negative-d", "exponent"])
def test_problem_file_scalars_are_exact_or_refused(tmp_path, capsys, bad):
    problem = {"n": 1, "d": 1, "mode": "affine", "points": [[0], [1]],
               "directions": [[], []], "values": [[1], [2]], **bad}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error reading problem:")


@pytest.mark.parametrize("doc, kind", [([1, 2], "list"), (7, "int"), ("problem", "str")])
def test_a_problem_that_is_not_a_json_object_exits_two(tmp_path, capsys, doc, kind):
    # a list was an AttributeError traceback with exit 1
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert err == f"error reading problem: problem must be a JSON object, got {kind}\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(ppinterp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "ppinterp", "predict", "-n", "2", "-d", "3",
                           "-a", "1,1"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["expected_codim"] == 4
    # the package import must not run the CLI module
    probe = "import sys, ppinterp; assert 'ppinterp.__main__' not in sys.modules"
    subprocess.run([sys.executable, "-c", probe], check=True, env=env, timeout=60)


def test_rational_field_ignores_the_file_prime(tmp_path, capsys):
    # the slope 1/2 used to come back as its residue 15996 mod the file's prime
    problem = {"n": 1, "d": 1, "mode": "affine", "points": [[0], [2]],
               "directions": [[], []], "values": [[1], [2]], "prime": 31991}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "solve", str(path), "--field", "rational")
    assert code == 0
    f = json.loads(out)["interpolant"]
    assert f["coefficients"] == [1, "1/2"] and f["prime"] is None
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert json.loads(out)["interpolant"]["coefficients"] == [1, 15996]


def test_gf_field_reduces_the_exact_scalars(tmp_path, capsys):
    # 1/2 used to be reduced mod the file's 31991 first and then mod 7
    problem = {"n": 1, "d": 1, "mode": "affine", "points": [[0], [1]],
               "directions": [[], []], "values": [["1/2"], [1]], "prime": 31991}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "solve", str(path), "--field", "gf", "--prime", "7")
    assert code == 0
    f = json.loads(out)["interpolant"]
    assert f["coefficients"] == [4, 4] and f["prime"] == 7


def test_denominator_divisible_by_the_chosen_prime_exits_two(tmp_path, capsys):
    problem = {"n": 1, "d": 1, "mode": "affine", "points": [[0], [1]],
               "directions": [[], []], "values": [["1/7"], [1]]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, err = run_cli(capsys, "solve", str(path), "--field", "gf", "--prime", "7")
    assert code == 2 and out == ""
    assert err == "error reading problem: 1/7 has no residue mod 7\n"
    code, out, _ = run_cli(capsys, "solve", str(path), "--field", "gf", "--prime", "11")
    assert code == 0 and json.loads(out)["interpolant"]["prime"] == 11


# `ppinterp solve` outputs as the Fraction Gauss-Jordan solver made them
SOLVE_PROBLEMS = {
    # three points of the plane with one derivative each: 6 = C(4, 2) conditions
    "unique": {"n": 2, "d": 2, "mode": "affine",
               "points": [[0, 0], ["1/2", 3], [-2, "5/3"]],
               "directions": [[[1, 0]], [[1, "-1/4"]], [[2, 1]]],
               "values": [[1, "2/3"], [-1, 0], ["7/5", 4]]},
    # three conditions on six coefficients: free coefficients are 0
    "any": {"n": 2, "d": 2, "mode": "affine",
            "points": [["1/3", 2], [4, -1]], "directions": [[[1, 1]], []],
            "values": [["-3/2", 5], [2]]},
    # coincident points: square and not exceptional, but singular
    "degenerate": {"n": 1, "d": 2, "mode": "affine",
                   "points": [[0], ["1/2"], ["1/2"]], "directions": [[], [], []],
                   "values": [[1], [2], [3]]},
    # two double points of the plane: exceptional for conics, values unreachable
    "exceptional": {"n": 2, "d": 2, "mode": "affine",
                    "points": [[0, 0], [1, "2/3"]],
                    "directions": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
                    "values": [[1, 2, 3], ["1/2", -1, 4]]},
}
PINNED_SOLVES = (
    ("unique", "rational", 0, "dd6c53dabdff38894ead2d18731eac556431c485d9630cf3b7a7b90f49a0ed39"),
    ("unique", "gf", 0, "a7bf32bdec112a72a3cc087f70ebe8e06c5286ae93fd3ea0c8473deedbe8158d"),
    ("any", "rational", 0, "421a6e72ebbda3182a302f58a25edb407437b9dce00a371dfd518af22acd0576"),
    ("any", "gf", 0, "c023662ea9fca359e0304488e37c3fce0a7dfc48933aa76cda785527a350b94b"),
    ("degenerate", "rational", 1,
     "5ac2fdf227bf5fe1010e5c7b2cb34e923c8e8027906014d79d856f462b14e91f"),
    ("degenerate", "gf", 1, "5ac2fdf227bf5fe1010e5c7b2cb34e923c8e8027906014d79d856f462b14e91f"),
    ("exceptional", "rational", 1,
     "f7ac7720181360b8872d094e106b0c5184a26c1c2ac4af017934c31e6f92d902"),
    ("exceptional", "gf", 1, "f7ac7720181360b8872d094e106b0c5184a26c1c2ac4af017934c31e6f92d902"),
)


@pytest.mark.parametrize("name,field,code,digest", PINNED_SOLVES,
                         ids=[f"{name}-{field}" for name, field, _, _ in PINNED_SOLVES])
def test_solve_output_is_pinned(tmp_path, capsys, name, field, code, digest):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SOLVE_PROBLEMS[name]))
    rc, out, _ = run_cli(capsys, "solve", str(path), "--field", field)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tables_p3_json(capsys):
    code, out, _ = run_cli(capsys, "tables", "-n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["cases"]) == 8
    assert doc["config"]["prime"] == 31991
    assert "timing" in doc


def test_tables_p3_csv_mirrors_columns(capsys):
    code, out, _ = run_cli(capsys, "tables", "-n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("case,kind,predicted,measured,verdict,seed,prime,"
                        "profile,degree,max_delta,type_vector")
    assert lines[1].startswith("P3 exception enumeration,enumeration,7,7,PASS,")
    assert lines[1].endswith(",31991,,,,")
    assert lines[2].endswith(',31991,"4,4,4",12,3,"0,0,0,3"')
    assert len(lines) == 9


@pytest.mark.parametrize("argv", [("tables", "-n", "3"), ("tables", "-n", "4"),
                                  ("verify", "--suite", "ah"), ("props", "--prop", "4.6")],
                         ids=" ".join)
def test_csv_has_one_row_per_case(capsys, argv):
    # every case of the JSON report is a CSV row, in order, whatever its kind
    _, out, _ = run_cli(capsys, *argv)
    cases = json.loads(out)["cases"]
    _, out, _ = run_cli(capsys, *argv, "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["case"], r["verdict"], r["measured"]) for r in rows] == [
        (c["case"], c["verdict"], ";".join(map(str, c["measured"]))) for c in cases]


def test_tables_p4_documents_extra_rows(capsys):
    # the published 36-row fixture is strictly contained in the classification
    code, out, _ = run_cli(capsys, "tables", "-n", "4")
    assert code == 1
    doc = json.loads(out)
    enum = doc["cases"][0]
    assert enum["verdict"] == "SUSPECT" and enum["measured"] == [39]
    dims = doc["cases"][1:]
    assert all(c["verdict"] == "PASS" for c in dims)


def test_seed_replay_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "tables", "-n", "3", "--seed", "99")
    code2, out2, _ = run_cli(capsys, "tables", "-n", "3", "--seed", "99")
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("timing")
    doc2.pop("timing")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_props_45(capsys):
    code, out, _ = run_cli(capsys, "props", "--prop", "4.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len({c["case"].split(" ")[1] for c in doc["cases"]}) == 5


def test_props_48_sampled(capsys):
    code, out, _ = run_cli(capsys, "props", "--prop", "4.8", "--sample", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cases"]) == 9


def test_props_deep_gate(capsys):
    code, _, err = run_cli(capsys, "props", "--prop", "4.13", "-n", "6")
    assert code == 2
    assert "--deep" in err


def test_verify_generic_case(capsys):
    code, out, _ = run_cli(capsys, "verify", "-n", "2", "-d", "4", "-a", "2,2,2,2,2")
    assert code == 0
    doc = json.loads(out)
    case = doc["cases"][0]
    assert case["measured"] == [14, 14, 14]
    assert case["extra"]["prediction"]["exception_id"] == "a"


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_double_points_on_constants(capsys, n, k):
    # at d = 0 a double point's one condition is its value row: its jacobian
    # rows vanish, as Euler's relation d*F = sum x_i dF/dx_i gives no span at d = 0
    lengths = ",".join([str(n + 1)] * k)
    code, out, _ = run_cli(capsys, "verify", "-n", str(n), "-d", "0", "--lengths", lengths)
    case = json.loads(out)["cases"][0]
    assert code == 0 and (case["predicted"], case["measured"]) == (1, [1])


def test_verify_suite_selection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "ah")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cases"]) == 5


def test_verify_case_needs_dims(capsys):
    code, _, err = run_cli(capsys, "verify", "-a", "1,1")
    assert code == 2
    code, out, err = run_cli(capsys, "verify", "-n", "2", "-d", "3", "--lengths", "0,3")
    assert code == 2 and out == "" and err == "error: lengths must lie in [1, 3]: (3, 0)\n"


def test_bad_prime_rejected(capsys):
    code, _, err = run_cli(capsys, "tables", "-n", "3", "--prime", "91")
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "tables", "-n", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["all_pass"] is True


MERSENNE_61 = str(2**61 - 1)  # prime, but far past the int64 word-size bound


def test_oversized_prime_refused(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "-n", "2", "-d", "4", "-a", "2,2,2,2,2",
                           "--prime", MERSENNE_61)
    assert code == 2 and "2**26" in err
    problem = {
        "n": 1, "d": 3, "mode": "affine",
        "points": [[0], [1]], "directions": [[[1]], [[1]]], "values": [[0, 1], [1, 1]],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, err = run_cli(capsys, "solve", str(path), "--field", "gf",
                             "--prime", MERSENNE_61)
    assert code == 2 and out == "" and "2**26" in err
    path.write_text(json.dumps(dict(problem, prime=2**61 - 1)))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2 and out == "" and "2**26" in err


def test_prime_checked_against_the_run_degree(capsys):
    # the prime must exceed the degree the run measures, not a fixed 6
    code, _, err = run_cli(capsys, "verify", "-n", "2", "-d", "8", "-a", "0", "--prime", "7")
    assert code == 2 and "degree 8" in err
    code, _, err = run_cli(capsys, "verify", "--suite", "sweep", "--prime", "5")
    assert code == 2 and "degree 5" in err
    code, out, _ = run_cli(capsys, "tables", "-n", "3", "--prime", "5", "--trials", "1")
    assert code in (0, 1) and json.loads(out)["config"]["prime"] == 5


def test_degenerate_draw_is_a_usage_error(monkeypatch, capsys):
    # twelve distinct points cannot exist in GF(11)
    code, _, err = run_cli(capsys, "verify", "-n", "1", "-d", "7",
                           "-a", ",".join(["0"] * 12), "--prime", "11")
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: could not draw distinct points")

    def degenerate(*args, **kwargs):
        raise DegenerateDrawError("could not draw independent directions over GF(11)")

    # every trial round's draws, batched or alone, go through one builder call
    monkeypatch.setattr(verify, "condition_stacks", degenerate)
    for argv in (("tables", "-n", "3"), ("props", "--prop", "4.6")):
        code, _, err = run_cli(capsys, *argv, "--prime", "11")
        assert code == 2 and err.startswith("error: could not draw"), argv


def test_degenerate_draw_in_a_batched_round_is_a_usage_error(monkeypatch, capsys):
    # the tenth draw of the first 4.5 triple fails while its round is half built
    draws = []
    real = verify.condition_stacks

    def flaky(batch, prime):
        for draw in batch:
            draws.append(draw)
            if len(draws) == 10:
                raise DegenerateDrawError("could not draw independent directions over GF(31991)")
        return real(batch, prime)

    monkeypatch.setattr(verify, "condition_stacks", flaky)
    code, out, err = run_cli(capsys, "props", "--prop", "4.5")
    assert code == 2 and out == "" and len(draws) == 10
    assert err.count("\n") == 1 and err.startswith("error: could not draw")


def _one_at_a_time(policy, jobs):
    """The trial loop without batching: each case alone, one rank call per trial."""
    for job in jobs:
        label, build, stop = job[:3]
        measured = []
        for t in range(policy.trials):
            matrix = build(verify.child_seed(policy.seed, label, t), policy.prime)
            measured.append(linalg.rank(matrix, policy.prime))
            if measured[-1] == stop:
                break
        yield job, measured, 0.0


def _sampled_partition_jobs(policy, subspaces, basis, prefix, families, sample=None):
    # a seeded subset of each family product, so `--prop 4.13` stays cheap
    return _partition_jobs(policy, subspaces, basis, prefix, families, sample or (12, prefix))


@pytest.mark.parametrize("prime", ["31991", "5"])
@pytest.mark.parametrize("argv", [("props", "--prop", "4.6"), ("props", "--prop", "4.13"),
                                  ("props", "--prop", "4.5"),
                                  ("props", "--prop", "4.8", "--sample", "3"),
                                  ("verify", "--suite", "quadrics"), ("tables", "-n", "3"),
                                  ("tables", "-n", "4"), ("verify", "--suite", "ah")],
                         ids=" ".join)
def test_batched_runner_equals_one_case_at_a_time(monkeypatch, capsys, argv, prime):
    # rounds span triples (4.5, 4.8, 4.13), mix rank and dim claims (4.6) and
    # run second and third trials (at p = 5); none of it may change a case
    monkeypatch.setattr(verify, "_partition_jobs", _sampled_partition_jobs)
    code, out, _ = run_cli(capsys, *argv, "--prime", prime)
    batched = json.loads(out)["cases"]
    monkeypatch.setattr(verify, "_trials", _one_at_a_time)
    alone_code, out, _ = run_cli(capsys, *argv, "--prime", prime)
    assert (code, batched) == (alone_code, json.loads(out)["cases"])
    sampled = {"props --prop 4.13": 60, "props --prop 4.5": 60, "props --prop 4.8 --sample 3": 27}
    assert len(batched) == sampled.get(" ".join(argv), len(batched))
    if argv[-1] == "4.13":
        # at p = 5 many draws are deficient, so cases run their second and third trials
        lengths = {len(c["measured"]) for c in batched}
        assert lengths == ({1} if prime == "31991" else {1, 2, 3})


def test_sampled_48_triples_share_one_round(monkeypatch, capsys):
    # the nine triples' 90 cases fill one trial round across triple boundaries:
    # one draw-and-build call and one rank call for the whole command
    builds, ranked = [], []
    real_build, real_ranks = verify.condition_stacks, verify.stack_ranks
    monkeypatch.setattr(verify, "condition_stacks",
                        lambda draws, p: builds.append(len(draws)) or real_build(draws, p))
    monkeypatch.setattr(verify, "stack_ranks", lambda stacks, p: ranked.append(
        sum(len(index) for index, _ in stacks)) or real_ranks(stacks, p))
    code, out, _ = run_cli(capsys, "props", "--prop", "4.8", "--sample", "10")
    cases = json.loads(out)["cases"]
    assert code == 0 and len(cases) == 90 and len({c["case"].split(")")[0] for c in cases}) == 9
    assert builds == ranked == [90]


@pytest.mark.parametrize("argv", [("predict", "-n", "4", "-d", "3", "-a", "4,4,4,4,4,4,4"),
                                  ("props", "--prop", "4.6"), ("tables", "-n", "3")],
                         ids=" ".join)
def test_json_reports_are_written_as_dumps_would(capsys, tmp_path, argv):
    # the streamed JSON writer gives dumps' bytes: to a file as they are,
    # on stdout with a trailing newline
    path = tmp_path / "report.json"
    run_cli(capsys, *argv, "--out", str(path))
    text = path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True)
    _, out, _ = run_cli(capsys, *argv)
    assert out.endswith("}\n") and not out.endswith("\n\n")
    if argv[0] == "predict":  # no timing section, so the bytes are equal
        assert out == text + "\n"


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([-(10**3999) - 7, 10**3999 + 3]),
    st.floats(), st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.text(), st.text(alphabet="\x00\x1f\x7f\"\\\u00e9\u2028\U0001f600 ab"))
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=4), inner, max_size=5)),
    max_leaves=30)


def write_json(doc) -> str:
    fh = io.StringIO()
    cli._write_json(doc, fh)
    return fh.getvalue()


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS)
def test_json_writer_gives_the_bytes_of_dumps(doc):
    assert write_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
    # on stdout, the text and one newline
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(argparse.Namespace(out=None), doc)
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_writer_writes_a_large_report_in_chunks():
    doc = {"cases": [{"case": f"c{i}", "measured": [i, -i], "rows": [[i], []], "ok": i % 2 == 0}
                     for i in range(3000)], "timing": {f"c{i}": i / 7 for i in range(3000)}}
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    cli._write_json(doc, Sink())
    assert "".join(writes) == json.dumps(doc, indent=2, sort_keys=True)
    assert len(writes) > 10 and max(map(len, writes)) < 64 * 1024


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, [1, {"a": (2, object())}],
                                 {(1, 2): 3}, {"a": 1, 2: 3}, {"k": np.float32(1.5)}],
                         ids=["numpy-int", "set", "nested-object", "tuple-key", "mixed-keys",
                              "numpy-float32"])
def test_json_writer_refuses_what_json_refuses(bad):
    with pytest.raises(TypeError) as want:
        json.dumps(bad, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        write_json(bad)
    assert str(got.value) == str(want.value)


def test_an_answer_past_the_digit_limit_is_printed(tmp_path, capsys):
    # the slope (a - b)/(a b) has a 7622-digit denominator: str() refuses an int
    # past 4300 digits, which made this solve exit 2 after it had solved
    a, b = 3**8000, 7**4500
    problem = {"n": 1, "d": 1, "mode": "affine", "points": [[0], [1]],
               "directions": [[], []], "values": [[f"1/{a}"], [f"1/{b}"]]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, err = run_cli(capsys, "solve", str(path), "--field", "rational")
    assert (code, err) == (0, "")
    high, low = divmod(a * b, 10**4000)  # str() of each piece is below the limit
    want = [f"1/{a}", f"{a - b}/{high}{str(low).zfill(4000)}"]
    assert json.loads(out)["interpolant"]["coefficients"] == want
    prob = interp.problem_from_json(problem)
    assert interp.residuals(prob, interp.solve(prob)) == [0, 0]


def test_fail_lines_say_how_to_replay_each_case(capsys):
    # at p = 7 the 4.6 cases fall short; each FAIL line names the root seed,
    # the prime and the child seed of every measured trial
    code, out, err = run_cli(capsys, "props", "--prop", "4.6", "--prime", "7", "--seed", "5")
    cases = json.loads(out)["cases"]
    failed = [c for c in cases if c["verdict"] != "PASS"]
    assert code == 1 and failed
    assert err.splitlines() == [
        f"FAIL {c['case']}: measured {c['measured']}, predicted {c['predicted']};"
        f" replay: --seed 5 --prime 7, child seeds"
        f" {[verify.child_seed(5, c['case'], t) for t in range(len(c['measured']))]}"
        for c in failed
    ]
    # an enumeration report has no trials, so no child seeds
    _, _, err = run_cli(capsys, "tables", "-n", "4", "--trials", "1")
    assert err.splitlines()[0].startswith("FAIL P4 exception enumeration:")
    assert err.splitlines()[0].endswith(f"replay: --seed {verify.DEFAULT_SEED} --prime 31991")


def test_an_enumeration_fail_line_names_each_disagreeing_job(capsys, monkeypatch):
    # the brute force's verdict on (3, 3, 2) in the plane is flipped, so its
    # one job disagrees; the line names the job's label and the child seed
    # of each trial it ran, which replays it
    from ppinterp import theory
    predict = theory.predict_quadric_scheme

    def flipped(n, prof):
        got = predict(n, prof)
        if (n, prof) == (2, (3, 3, 2)):
            return dataclasses.replace(got, independent=not got.independent)
        return got

    monkeypatch.setattr(theory, "predict_quadric_scheme", flipped)
    code, out, err = run_cli(capsys, "verify", "--suite", "quadrics", "--seed", "5",
                             "--trials", "2")
    [case] = [c for c in json.loads(out)["cases"] if c["verdict"] != "PASS"]
    label = "bf P2 (3, 3, 2)"
    replay = verify.run_rank_case(verify.TrialPolicy(trials=2, seed=5), label, 6,
                                  verify._general_scheme(2, (3, 3, 2), 2))
    seeds = [verify.child_seed(5, label, t) for t in range(len(replay.measured))]
    assert code == 1 and case["case"] == "quadric brute force P2 deg<= 9"
    assert err.splitlines() == [
        f"FAIL {case['case']}: measured {case['measured']}, predicted {case['predicted']};"
        f" replay: --seed 5 --prime 31991, job {label!r} child seeds {seeds}"
    ]
    # the CaseReport carries the job, but its JSON and CSV forms are unchanged
    assert set(case) == {*verify.CASE_FIELDS, "note"}


def test_report_names_kernel_and_versions(capsys):
    import platform

    import numpy as np

    from ppinterp import __version__

    _, out, _ = run_cli(capsys, "verify", "--suite", "ah", "--trials", "1")
    config = json.loads(out)["config"]
    assert (config["kernel"], config["version"], config["numpy"], config["python"]) == (
        linalg.KERNEL, __version__, np.__version__, platform.python_version())


# cases digests of cheap commands as the first release made them, one per
# harness path: rank, dim with and without the cone bound, the exceptional
# rank branch, the quadric enumeration and the partition-case generator
PINNED_CASES = (
    ("verify -n 3 -d 3 -a 3,3,3,3,3", 0, 1,
     "de2d30a734b1b55e11798f0babb356fb6bd20b78a272bcec67d9675a8b012735"),
    ("tables -n 3", 0, 8,
     "b58cbcfa25ecebf108a88d7b879cdb9a8f0f33fb62f355570cde0bb715da7efc"),
    ("verify --suite ah", 0, 5,
     "c21fbe0bfe56006bff5299305df5aaf84b2ce8fb5604e8d0367cc2c2749e9982"),
    ("verify -n 2 -d 4 -a 2,2,2,2,2", 0, 1,
     "60e406f6b1144042f5074aeca394e3a14989266f37faa597a6c458d0e5b2c370"),
    ("verify --suite quadrics", 0, 4,
     "71fe672ad6610d7787e5a1521eb2bfc292dda928c3d8f8992b96da51b7ac437b"),
    ("props --prop 4.6", 0, 3,
     "97b82c5bc09d41d859d1887ee281bab3f234756c7f0140cf87677e067fed9dee"),
    ("props --prop 4.8 --sample 2", 0, 18,
     "d8bf5a7a49b6d1eb0d2fcd85669f9b63cfef8f9da0b22a9944d47b0259cae1d5"),
)


@pytest.mark.parametrize("command,code,count,digest", PINNED_CASES,
                         ids=[c[0] for c in PINNED_CASES])
def test_cases_payload_is_pinned(capsys, command, code, count, digest):
    rc, out, _ = run_cli(capsys, *command.split())
    cases = json.loads(out)["cases"]
    blob = json.dumps(cases, sort_keys=True, separators=(",", ":"))
    assert (rc, len(cases)) == (code, count)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "ah", "--trials", "0"),
    ("verify", "-n", "2", "-d", "4", "-a", "2,2,2,2,2", "--trials", "-3"),
])
def test_trials_below_one_refused(capsys, argv):
    # a deficiency claim with no measurement must not PASS
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "trials" in err


@pytest.mark.parametrize("sample", ["0", "-2"])
def test_sample_below_one_refused(capsys, sample):
    # a sample of no combinations is a verdict on no measurement
    code, out, err = run_cli(capsys, "props", "--prop", "4.8", "--sample", sample)
    assert code == 2 and out == ""
    assert err == f"error: --sample must be at least 1, got {sample}\n"


@pytest.mark.parametrize("argv,flag", [
    (("props", "--prop", "4.5", "--sample", "0"), "--sample"),
    (("props", "--prop", "4.13", "--sample", "2"), "--sample"),
    (("props", "--prop", "all", "-n", "7"), "-n"),
    (("props", "--prop", "4.8", "-n", "7"), "-n"),
    (("props", "--prop", "4.5", "--deep"), "--deep"),
    (("props", "--prop", "4.6", "--deep"), "--deep"),
    (("props", "--prop", "4.8", "--deep", "--sample", "2"), "--deep"),
    (("verify", "--suite", "sweep", "-n", "3"), "-n"),
    (("verify", "-d", "4"), "-d"),
    (("verify", "-n", "2", "-d", "4", "-a", "2,2,2,2,2", "--suite", "ah", "--deep"), "--suite"),
    (("verify", "-n", "2", "-d", "4", "-a", "2,2,2,2,2", "--deep"), "--deep"),
    (("verify", "--suite", "sweep", "--deep", "--trials", "1"), "--deep"),
    (("verify", "--suite", "p8", "--deep"), "--deep"),
    (("props", "--prop", "base", "--deep"), "--deep"),
    (("props", "--prop", "4.7", "-n", "5", "--deep"), "--deep"),
    (("props", "--prop", "4.13", "--deep"), "--deep"),
    (("solve", "x.json", "--prime", "101"), "--prime"),
    (("solve", "x.json", "--field", "rational", "--prime", "101"), "--prime"),
])
def test_unread_flags_refused(capsys, monkeypatch, argv, flag):
    # a flag the command would ignore changes nothing, so it is refused, not
    # dropped, and before any work
    from ppinterp import interp

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(verify, "_trials", refuse)
    monkeypatch.setattr(interp, "load_problem", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {flag} ")


@functools.cache
def _base_cases():
    # one `props --prop base` run (about 8 s) shared by the subset tests
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["props", "--prop", "base"]) == 0
    return json.loads(out.getvalue())["cases"]


def test_props_413_is_the_base_subset(capsys):
    code, only, _ = run_cli(capsys, "props", "--prop", "4.13")
    subset = [c for c in _base_cases() if c["case"].startswith("4.13 ")]
    assert code == 0 and len(subset) == 301
    assert json.loads(only)["cases"] == subset


def test_props_47_is_the_base_subset(capsys, monkeypatch):
    subset = [c for c in _base_cases() if c["case"].startswith("4.7 ")]
    # the 4.8 triples are skipped, not run and then filtered out
    prefixes = []

    def spy(policy, subspaces, basis, prefix, families, sample=None):
        prefixes.append(prefix)
        return _partition_jobs(policy, subspaces, basis, prefix, families, sample)

    monkeypatch.setattr(verify, "_partition_jobs", spy)
    code, only, _ = run_cli(capsys, "props", "--prop", "4.7")
    assert code == 0 and len(subset) == 1621
    assert json.loads(only)["cases"] == subset
    assert prefixes and all(p.startswith("4.7 ") for p in prefixes)


def test_parser_built_once(monkeypatch, capsys):
    from ppinterp import cli

    def refuse():
        raise AssertionError("parser rebuilt")

    run_cli(capsys, "verify", "--suite", "ah", "--trials", "1")
    monkeypatch.setattr(cli, "build_parser", refuse)
    code, _, _ = run_cli(capsys, "verify", "--suite", "ah", "--trials", "1")
    assert code == 0


def _no_child_left():
    import os

    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("batch", [1, 2], ids=["child batch", "parent batch"])
@pytest.mark.parametrize("error", ["degenerate", "value", "rank bound"])
def test_round_errors_end_the_command_as_when_serial(monkeypatch, capsys, error, batch):
    # props --prop 4.5 in batches of 16 on two processes: batch 1 runs in the
    # forked worker, batch 2 in this process; the error is raised by the draw
    # (or, for the rank bound, by the ranks) of the batch's first job
    monkeypatch.setattr(verify, "ROUND_CASES", 16)
    jobs = list(verify._prop45_jobs(verify.TrialPolicy()))
    target = verify.child_seed(verify.DEFAULT_SEED, jobs[16 * batch][0], 0)
    real_build, real_ranks = verify.condition_stacks, verify.stack_ranks
    hit = []

    def build(draws, prime):
        draws = list(draws)
        if any(seed == target for _, seed in draws):
            if error == "degenerate":
                raise DegenerateDrawError("could not draw independent directions over GF(31991)")
            if error == "value":
                raise ValueError("a value error in a round")
            hit.append(True)
        return real_build(draws, prime)

    def ranks(stacks, p):
        return [r + 1 if hit else r for r in real_ranks(stacks, p)]

    monkeypatch.setattr(verify, "condition_stacks", build)
    monkeypatch.setattr(verify, "stack_ranks", ranks)
    outcomes = []
    for count in (1, 2):
        monkeypatch.setattr(verify, "_process_count", lambda: count)
        hit.clear()
        if error == "rank bound":
            with pytest.raises(AssertionError) as raised:
                main(["props", "--prop", "4.5"])
            out, err = capsys.readouterr()
            outcomes.append((type(raised.value), str(raised.value), out, err))
        else:
            outcomes.append(run_cli(capsys, "props", "--prop", "4.5"))
        _no_child_left()
    assert outcomes[0] == outcomes[1]
    if error == "rank bound":
        assert outcomes[0] == (AssertionError, "measured rank 28 above the theoretical bound 27",
                               "", "")
    else:
        code, out, err = outcomes[0]
        assert code == 2 and out == "" and err.count("\n") == 1 and err.startswith("error: ")


def test_a_killed_worker_is_replaced(monkeypatch, capsys):
    # props --prop 4.5 in batches of 16 on two processes, where the forked
    # worker dies on its first batch: the parent runs every batch the worker
    # did not deliver, and the command gives the cases of the serial run
    import os
    import signal

    monkeypatch.setattr(verify, "ROUND_CASES", 16)
    parent, real = os.getpid(), verify._round

    def round_(policy, batch):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(policy, batch)

    monkeypatch.setattr(verify, "_round", round_)
    outcomes = []
    for count in (1, 2):
        monkeypatch.setattr(verify, "_process_count", lambda: count)
        code, out, err = run_cli(capsys, "props", "--prop", "4.5")
        outcomes.append((code, json.loads(out)["cases"], err))
        _no_child_left()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and len(outcomes[0][1]) == 222


def test_forked_report_says_how_many_processes(monkeypatch, capsys):
    monkeypatch.setattr(verify, "ROUND_CASES", 32)
    docs = []
    for count in (1, 2):
        monkeypatch.setattr(verify, "_process_count", lambda: count)
        code, out, _ = run_cli(capsys, "props", "--prop", "4.5")
        docs.append(json.loads(out))
        _no_child_left()
    assert docs[0]["cases"] == docs[1]["cases"] and len(docs[0]["cases"]) == 222
    assert [doc["config"]["processes"] for doc in docs] == [1, 2]
    code, out, _ = run_cli(capsys, "verify", "--suite", "ah")  # one batch: no worker
    assert json.loads(out)["config"]["processes"] == 1


def _out_commands(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"n": 1, "d": 3, "mode": "affine", "points": [[0], [1]],
                                   "directions": [[[1]], [[1]]],
                                   "values": [[0, 1], [1, 1]]}))
    return [("predict", "-n", "2", "-d", "4", "-a", "2,2"), ("solve", str(problem)),
            ("verify", "--suite", "ah"), ("tables", "-n", "3"), ("props", "--prop", "4.6")]


@pytest.mark.parametrize("target", ["missing parent", "directory"])
def test_unwritable_out_is_refused_before_any_work(monkeypatch, capsys, tmp_path, target):
    from ppinterp import interp

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(verify, "_trials", refuse)
    monkeypatch.setattr(interp, "load_problem", refuse)
    path = tmp_path / "missing" / "x.json" if target == "missing parent" else tmp_path
    for argv in _out_commands(tmp_path):
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, argv


def test_out_write_failure_is_a_usage_error(monkeypatch, capsys, tmp_path):
    # a target that passes the early check but cannot be opened when written
    from ppinterp import cli

    monkeypatch.setattr(cli, "_check_out", lambda path: None)
    for argv in _out_commands(tmp_path) + [("tables", "-n", "3", "--format", "csv")]:
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert (code, out) == (2, ""), argv
        assert err == f"error: cannot write {tmp_path}: Is a directory\n", argv
