"""The scripts under ``benchmarks/`` still import and find every ppinterp name they use.

Nothing else runs them, and ``bench_rank.py`` reads private names
(``linalg._ROWS_WORK``, ``linalg._echelon_numpy``, ``schemes._slot_rule``,
...), so a rename would break them unseen.  Their ``main`` is not called.
"""

import ast
import importlib
import importlib.util
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
