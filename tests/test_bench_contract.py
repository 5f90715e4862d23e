"""The names the benchmark reaches into the package by must exist.

``bench/tracer.py`` rebinds package attributes by name, and the bench scripts
import package names inside functions, so a deletion or rename in ``src/``
would only surface when ``--trace 1`` or the gate runs.  These tests read the
bench files (they never edit them) and look every such name up.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    tracer = _load_tracer()
    for table in (tracer.FUNCTION_SPANS, tracer.COUNTED_GENERATORS):
        for name, (modname, attr) in table.items():
            assert hasattr(importlib.import_module(modname), attr), name
    for table in (tracer.METHOD_SPANS, tracer.COUNTED_METHODS):
        for name, (cls, attrs) in table.items():
            for attr in attrs:
                # the tracer reads cls.__dict__, so inherited names miss
                assert attr in cls.__dict__, f"{name}: {cls.__name__}.{attr}"


def _imported_names():
    """(file, module, name) for every ``from cherednik... import`` and
    ``from oracles import`` anywhere in a bench script."""
    out = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module == "oracles"
                    or node.module.split(".")[0] == "cherednik"):
                out += [(path.name, node.module, alias.name)
                        for alias in node.names]
    return out


def test_bench_imports_include_the_gate():
    names = {(f, m, a) for f, m, a in _imported_names()}
    assert {("gate.py", "cherednik", "RatFunc"),
            ("gate.py", "cherednik.scalars", "mp_gcd"),
            ("gate.py", "cherednik.parsing", "parse_scalar"),
            ("gate.py", "oracles", "oracle_z")} <= names


@pytest.mark.parametrize("path,module,name", _imported_names())
def test_bench_imports_exist(path, module, name):
    # ``from cherednik import cli`` may name a submodule not yet imported
    assert hasattr(importlib.import_module(module), name) \
        or importlib.util.find_spec(f"{module}.{name}") is not None
