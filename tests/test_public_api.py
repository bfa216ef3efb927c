"""Every name a module lists in ``__all__`` resolves, and star-imports work."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import wonderco

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(wonderco.__path__)
    if info.name != "__main__"
)


def load(name):
    return importlib.import_module(f"wonderco.{name}")


def test_every_library_module_declares_its_api():
    # the command-line front end is the only module without an export list
    undeclared = [name for name in MODULES if not hasattr(load(name), "__all__")]
    assert undeclared == ["cli"]
    assert {"charring", "gitgrass", "schubert", "wondercoh"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = load(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    assert [attr for attr in exported if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from wonderco.{name} import *", namespace)
    assert set(getattr(load(name), "__all__", ())) <= set(namespace)


def test_character_kernel_imports_no_fractions():
    # the Freudenthal recursion and the dimension formula run on the
    # integer form of rootsys; no rational arithmetic enters charring
    tree = ast.parse(inspect.getsource(load("charring")))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "fractions" not in imported
