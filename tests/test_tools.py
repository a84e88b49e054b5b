"""The scripts under ``benchmarks/`` still import and find every ppinterp name they use,
and every example command of the README passes the CLI's flag rules.

Nothing else runs the scripts, and ``bench_rank.py`` reads private names
(``linalg._ROWS_WORK``, ``linalg._echelon_numpy``, ``schemes._slot_rule``,
...), so a rename would break them unseen.  Their ``main`` is not called;
``bench_rank.py --help`` runs in a subprocess with no PYTHONPATH, as the
README runs it, to show that the script finds its checkout's package.
Nothing else runs the README's examples either, so a new flag rule could
refuse one unseen.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_benchmarks_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["bench_rank", "compare_outputs"])
def test_benchmark_script_imports(name):
    assert callable(_load(name).main)


def test_compare_outputs_checks_the_report_bytes(tmp_path):
    # a checkout whose CLI prints its report in another form than
    # json.dumps(doc, indent=2, sort_keys=True) and a newline is caught,
    # though its cases are the same
    compare = _load("compare_outputs")
    fake = tmp_path / "fake"
    (fake / "src" / "ppinterp").mkdir(parents=True)
    (fake / "src" / "ppinterp" / "__init__.py").write_text("")
    (fake / "src" / "ppinterp" / "cli.py").write_text(
        'print(\'{"cases": [], "timing": {}}\')\n')
    real = BENCHMARKS.parent
    argv = ["verify", "--suite", "ah", "--trials", "1"]
    code, cases, _, canonical = compare.run(real, argv, tmp_path)
    assert (code, canonical) == (0, True)
    assert compare.run(fake, argv, tmp_path)[3] is False
    assert compare.run(real, ["solve", str(tmp_path / "missing.json")], tmp_path)[3] is None


def test_bench_rank_reads_only_names_that_exist():
    # imports inside functions and attributes of the ppinterp modules, which importing skips
    tree = ast.parse((BENCHMARKS / "bench_rank.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("ppinterp"):
            for alias in node.names:
                source = importlib.import_module(node.module)
                assert hasattr(source, alias.name), f"{node.module}.{alias.name}"
                if node.module == "ppinterp":
                    modules[alias.asname or alias.name] = getattr(source, alias.name)
    read = [(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]
    assert read
    missing = [f"{name}.{attr}" for name, attr in read if not hasattr(modules[name], attr)]
    assert missing == []


def test_bench_rank_runs_from_an_uninstalled_checkout(tmp_path):
    # the README runs the script with no PYTHONPATH; it must find the checkout's src itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(BENCHMARKS / "bench_rank.py"), "--help"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class _Reached(Exception):
    """Raised where a command would start its work: every flag rule passed."""


def _readme_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
            if line.startswith("ppinterp ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_pass_the_flag_rules(monkeypatch, capsys, argv):
    # each example either exits 0 (it does no trial or solve) or reaches the
    # work a trial or a solve starts, so no example would be refused
    from ppinterp import cli, interp, verify

    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(verify, "_trials", reached)
    monkeypatch.setattr(interp, "load_problem", reached)
    try:
        code = cli.main(argv)
    except _Reached:
        return
    assert code == 0, capsys.readouterr().err
