"""Every public name a module of sogl exports is one it defines."""
import importlib
import pkgutil

import pytest

import sogl

# sogl.__main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(sogl.__path__)
                 if m.name != "__main__")


def test_modules_are_found():
    assert {"admm", "bounds", "cli", "dual", "instances", "model", "oracle"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"sogl.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from sogl.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
