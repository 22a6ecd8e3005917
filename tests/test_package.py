"""The package surface: every declared public name exists and star-imports."""

import importlib
import pkgutil

import pytest

import pcr3bp

MODULES = ["pcr3bp"] + [f"pcr3bp.{m.name}" for m in pkgutil.iter_modules(pcr3bp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
