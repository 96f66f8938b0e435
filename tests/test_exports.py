import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gradedseries

MODULES = sorted(info.name for info in pkgutil.iter_modules(gradedseries.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name removed from a module must leave its __all__ as well
    module = importlib.import_module(f"gradedseries.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


SOURCES = sorted(Path(gradedseries.__file__).parent.glob("*.py"))
EXACT_MATH = {"gcd", "lcm"}


def float_uses(tree):
    """(line, what) of each floating-point use ast can see: a float or
    complex constant, the name ``float``, and an import from ``math`` of
    anything but gcd and lcm (``import math`` counts as all of it)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float,
                                                                   complex):
            yield node.lineno, f"constant {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in EXACT_MATH:
                    yield node.lineno, f"math.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "math":
                    yield node.lineno, "import math"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    # the package computes over Q and Q(zeta_N) only
    assert list(float_uses(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_the_float_guard_sees_each_kind_of_use():
    source = ("from math import gcd, log\nimport math\n"
              "x = 0.5 + 1j\ny = float(3)\n")
    assert sorted(float_uses(ast.parse(source))) == [
        (1, "math.log"), (2, "import math"), (3, "constant 0.5"),
        (3, "constant 1j"), (4, "the name float")]
