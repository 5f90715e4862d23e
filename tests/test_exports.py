"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import cherednik

MODULES = ["cherednik"] + sorted(
    m.name for m in pkgutil.iter_modules(cherednik.__path__, "cherednik."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_an_attribute(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is listed twice"
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert set(getattr(module, "__all__", [])) <= set(namespace)

