"""The package surface: every declared public name exists and star-imports."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import pcr3bp

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ["pcr3bp"] + [f"pcr3bp.{m.name}" for m in pkgutil.iter_modules(pcr3bp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_every_function_the_bench_tracer_patches_exists():
    # perfbench/run.py --trace 1 patches these by name (the module reads
    # only the standard library), and one that is gone breaks it at
    # Tracer.install
    patched = runpy.run_path(str(SPANS))["PATCHED"]
    missing = []
    for _, module_name, attr in patched:
        holder = importlib.import_module(module_name)
        owner, _, name = attr.rpartition(".")
        if owner:  # a method, patched on its class
            holder = getattr(holder, owner, None)
        if name not in getattr(holder, "__dict__", {}):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"the tracer patches missing functions: {missing}"
