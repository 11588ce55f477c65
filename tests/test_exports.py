import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import mtcalc

MODULES = ["mtcalc"] + sorted(
    f"mtcalc.{m.name}" for m in pkgutil.iter_modules(mtcalc.__path__)
)

SRC = pathlib.Path(mtcalc.__file__).parent
# what the package offers its callers without calling it itself
ENTRY_POINTS = re.compile(r"(verify_|loads_|emit_)\w+|load_category|builtin_category")
GUARDED = ["fusion_data", "graphcalc", "deligne_double", "diagonal_frobenius",
           "sewing_operad", "table_arrays", "bending", "report", "cli_io"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def _parsed_sources() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


def _referenced(trees, name, home) -> bool:
    """Whether ``name`` is read anywhere in the package outside its own
    top-level definition in module ``home``; an import does not count."""
    for module, tree in trees.items():
        for stmt in tree.body:
            if (module == home and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name == name):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id == name:
                    return True
                if isinstance(node, ast.Attribute) and node.attr == name:
                    return True
    return False


@pytest.mark.parametrize("module", GUARDED)
def test_exports_are_reached_in_the_package(module):
    """Every exported name and every top-level function and class is used by
    the package itself or is an entry point: a name that only tests reach
    belongs in tests/, or nowhere."""
    trees = _parsed_sources()
    names = set(getattr(importlib.import_module(f"mtcalc.{module}"), "__all__", ())) | {
        stmt.name for stmt in trees[module].body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    unreached = [
        n for n in sorted(names)
        if not ENTRY_POINTS.fullmatch(n) and not _referenced(trees, n, module)
    ]
    assert not unreached


def _overrides(cls, name) -> bool:
    """Whether the method ``name`` of ``cls`` overrides one of a base class,
    which the base's own callers call (a hook such as
    ``argparse.ArgumentParser.error``)."""
    return any(name in vars(base) for base in cls.__mro__[1:])


@pytest.mark.parametrize("module", GUARDED)
def test_methods_are_reached_in_the_package(module):
    """Every method of a class of the module, dunders and overrides of a
    base class's method aside, is used by the package itself: a method that
    only tests call belongs in tests/."""
    trees = _parsed_sources()
    mod = importlib.import_module(f"mtcalc.{module}")
    names = {
        member.name
        for stmt in trees[module].body if isinstance(stmt, ast.ClassDef)
        for member in stmt.body if isinstance(member, ast.FunctionDef)
        and not (member.name.startswith("__") and member.name.endswith("__"))
        and not _overrides(getattr(mod, stmt.name), member.name)
    }
    unreached = [n for n in sorted(names) if not _referenced(trees, n, module)]
    assert not unreached
