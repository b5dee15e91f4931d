"""Every exported name resolves: the package's __all__, each module's, and
the functions the benchmark traces."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import pstruct

MODULES = sorted(info.name for info in pkgutil.iter_modules(pstruct.__path__)
                 if info.name != "__main__")
BENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_the_package_exports_resolve():
    assert len(set(pstruct.__all__)) == len(pstruct.__all__)
    assert [name for name in pstruct.__all__ if not hasattr(pstruct, name)] == []
    assert [name for name in pstruct.__all__
            if isinstance(getattr(pstruct, name), types.ModuleType)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"pstruct.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def _benchmark_layers() -> list:
    """(metric, module, function) of TRACED, SOLVE and POOL_ENTRY, read from
    perfbench/run.py's source without importing it."""
    layers = []
    for node in ast.parse(BENCH_RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name == "TRACED":
                layers += ast.literal_eval(node.value)
            elif name in ("SOLVE", "POOL_ENTRY"):
                layers.append(ast.literal_eval(node.value))
    return layers


def test_the_benchmark_layers_resolve():
    # a renamed or deleted function is only reported as "not traced" by the
    # benchmark, which then drops its layer from the per-layer metrics
    layers = _benchmark_layers()
    assert {key for key, _, _ in layers} >= {"solver.solve", "cli.pool", "solver.operator"}
    missing = [f"{module}.{attr}" for _, module, attr in layers
               if not callable(getattr(importlib.import_module(f"pstruct.{module}"), attr, None))]
    assert missing == []
