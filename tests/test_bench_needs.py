"""What the benchmark under ``bench/`` needs from gridmon.

The benchmark imports gridmon names and wraps gridmon functions by (module,
name), so a name deleted from gridmon would first fail a benchmark run.
These tests read the benchmark's files, change none of them, and fail on
such a deletion at once.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_imports():
    """``(file, module, name)`` for each gridmon import in ``bench/*.py``;
    ``name`` is None for a plain ``import gridmon...``."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gridmon"):
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, alias.name, None) for alias in node.names
                            if alias.name.startswith("gridmon"))


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for mod_name, fn_name in spans.TARGETS:
        module = importlib.import_module(f"gridmon.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"gridmon.{mod_name}.{fn_name}"
    # the tracer also counts the truth cache's lookups
    from gridmon.evaluation import TruthCache
    assert callable(TruthCache.get)


def test_every_name_the_benchmark_imports_exists():
    found = list(bench_imports())
    # the truth and forward-pass checks and the workloads call these
    assert {"solve_pf", "injections", "apply_switch_config", "predict_batch",
            "load_model", "train_monitor_pair", "tune_architecture"} <= {
        name for _, _, name in found}
    for file, module, name in found:
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), f"{file}: {module}.{name}"
