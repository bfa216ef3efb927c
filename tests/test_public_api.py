"""Every name a module lists in ``__all__`` resolves, star-imports work,
and every export is called by the package or kept for a stated reason."""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

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


@pytest.mark.parametrize("name", ["charring", "satake", "opcrit"])
def test_character_kernel_imports_no_fractions(name):
    # the Freudenthal recursion and the dimension formula run on the
    # integer form of rootsys; restricted roots are the integer vectors
    # alpha - theta(alpha), and the criterion's elimination keeps integer
    # rows; no rational arithmetic enters these modules
    tree = ast.parse(inspect.getsource(load(name)))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "fractions" not in imported


def test_stratum_read_off_has_one_owner():
    # schubert alone knows the packed-series format and the stratum frame;
    # the degree-3 cross-check reads them through public schubert names
    packed = {"packed", "_key_of", "cone", "image", "swapped_image", "weights"}
    private = {"_stratum_bounds", "_stratum_weights", "_Cone", "TruncatedSeries"}
    for name in MODULES:
        if name == "schubert":
            continue
        tree = ast.parse(inspect.getsource(load(name)))
        reads = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "schubert"
            for alias in node.names
        }
        assert reads & packed == set(), name
        assert imported & private == set(), name
        if name == "wondercoh":
            assert imported <= set(load("schubert").__all__)


def test_cli_import_leaves_out_heavy_stdlib_modules():
    # every process pays for its imports first; the records are built
    # without dataclasses (which pulls in inspect), and annotations name
    # collections.abc and io types rather than typing.  -S keeps site
    # from preloading any of them.
    src = str(pathlib.Path(wonderco.__file__).parent.parent)
    probe = (
        "import sys, wonderco.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


# exports that no code of the package calls, each with why it stays
UNCALLED_EXPORTS = {
    "charring.TruncationError": "raised nowhere in the package; perfbench/worker.py imports it",
    "schubert.cousin_terms": "groups closure-cell series by depth for ROADMAP item 1",
}


def uncalled_exports() -> set[str]:
    """``module.name`` of each export referenced by no code of the package
    outside its own definition and the definitions of other such exports.

    A load of a name resolves through the module's ``from .x import``
    bindings, else to the module's own top-level definition.  Exports only
    reached from uncalled ones are uncalled too, found by repeating the
    scan until nothing changes.
    """
    spans: dict[str, tuple[str, int, int]] = {}
    uses: dict[str, list[tuple[str, int]]] = {}
    for path in pathlib.Path(wonderco.__file__).parent.glob("*.py"):
        mod, tree = path.stem, ast.parse(path.read_text())
        local = {
            node.name: (node.lineno, node.end_lineno)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        exported = getattr(load(mod), "__all__", ()) if mod in MODULES else ()
        for name in exported:
            spans[f"{mod}.{name}"] = (mod, *local.get(name, (0, -1)))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = bound.get(node.id, f"{mod}.{node.id}")
                uses.setdefault(target, []).append((mod, node.lineno))

    def outside(mod: str, line: int, defs) -> bool:
        return not any(m == mod and lo <= line <= hi for m, lo, hi in defs)

    uncalled: set[str] = set()
    while True:
        skipped = [spans[key] for key in uncalled]
        found = {
            key
            for key, own in spans.items()
            if not any(
                outside(mod, line, [own, *skipped]) for mod, line in uses.get(key, ())
            )
        }
        if found == uncalled:
            return found
        uncalled = found


def test_every_export_has_a_caller_or_a_reason():
    # a new export without a caller in the package needs an entry above
    assert uncalled_exports() == set(UNCALLED_EXPORTS)


# public methods that no code of the package calls, each with why it stays
UNCALLED_METHODS: dict[str, str] = {}


def uncalled_methods() -> set[str]:
    """``module.Class.method`` of each public method of a public class whose
    name is read as an attribute (``x.method``) nowhere in the package
    outside its own definition.

    The scan goes by attribute name, not by the receiver's type: any
    attribute of the same name counts as a call, so a name shared by two
    classes, such as ``multiplicity``, is called if either one is.
    """
    methods: dict[str, tuple[str, int, int]] = {}
    reads: dict[str, list[tuple[str, int]]] = {}
    for path in pathlib.Path(wonderco.__file__).parent.glob("*.py"):
        mod, tree = path.stem, ast.parse(path.read_text())
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    key = f"{mod}.{cls.name}.{node.name}"
                    methods[key] = (mod, node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((mod, node.lineno))
    return {
        key
        for key, (own, lo, hi) in methods.items()
        if all(
            mod == own and lo <= line <= hi
            for mod, line in reads.get(key.rsplit(".", 1)[1], ())
        )
    }


def test_every_public_method_has_a_caller_or_a_reason():
    # a new public method without a caller in the package needs an entry
    # above
    assert uncalled_methods() == set(UNCALLED_METHODS)
