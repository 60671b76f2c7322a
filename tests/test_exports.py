"""Every export list names something that exists."""

import importlib
import pkgutil

import pytest

import sevrel

MODULES = ["sevrel"] + [f"sevrel.{m.name}" for m in pkgutil.iter_modules(sevrel.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"


def test_star_import():
    namespace = {}
    exec("from sevrel import *", namespace)
    assert set(sevrel.__all__) <= set(namespace)
