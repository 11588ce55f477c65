import importlib
import pkgutil

import pytest

import mtcalc

MODULES = ["mtcalc"] + sorted(
    f"mtcalc.{m.name}" for m in pkgutil.iter_modules(mtcalc.__path__)
)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
