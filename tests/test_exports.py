import importlib
import pkgutil

import pytest

import gradedseries

MODULES = sorted(info.name for info in pkgutil.iter_modules(gradedseries.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name removed from a module must leave its __all__ as well
    module = importlib.import_module(f"gradedseries.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
