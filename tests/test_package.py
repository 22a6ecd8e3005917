"""The package surface: every declared public name exists and star-imports."""

import importlib
import json
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import pcr3bp

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
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


def test_the_bench_setup_probe_runs():
    # perfbench/run.py times this probe for setup_s; it calls iv_var_coeffs
    # and point_var_coeffs with one (4,) state at order 21, so both keep
    # their one-box signatures
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
                           str(ROOT / "src")], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    setup_s = json.loads(done.stdout.splitlines()[-1])["setup_s"]
    assert isinstance(setup_s, float) and setup_s > 0.0
