"""The examples in the package docstrings run and print what they show."""

import doctest
import importlib
import pkgutil

import pytest

import cherednik

MODULES = sorted(m.name for m in pkgutil.iter_modules(cherednik.__path__,
                                                      "cherednik."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
