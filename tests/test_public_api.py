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
    packed = {"packed", "_key_of", "cone", "image", "weight_columns", "weights"}
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


# caches that can grow without bound, each with why it may
UNBOUNDED_CACHES = {
    "rootsys.build_root_system": "one entry per type label",
    "rootsys.all_roots": "one entry per root system",
    "rootsys._cartan_inverse": "one entry per root system",
    "rootsys._orbit": "weight-keyed; to be bounded under ROADMAP item 5",
    "rootsys.dominant_representative": "weight-keyed; to be bounded under ROADMAP item 5",
    "rootsys._symmetrizer": "one entry per root system",
    "charring._scaled_roots": "one entry per root system",
    "satake.catalog_diagram": "one entry per catalog name",
    "satake.theta_matrix": "one entry per diagram; a process reads the catalog and at most one --spec",
    "acceptance._vector_partition_counts.count": "one cache per root system of one c10 run, dropped after it",
}


def unbounded_caches(paths) -> set[str]:
    """``module.function`` (``module.outer.function`` when nested) of each
    function in ``paths`` decorated with ``lru_cache(maxsize=None)``,
    ``lru_cache(None)`` or ``cache``, bare or through ``functools``."""

    def unbounded(dec) -> bool:
        if isinstance(dec, ast.Call):
            name = getattr(dec.func, "id", getattr(dec.func, "attr", None))
            size = [k.value for k in dec.keywords if k.arg == "maxsize"] + dec.args[:1]
            return name == "lru_cache" and any(
                isinstance(v, ast.Constant) and v.value is None for v in size
            )
        return getattr(dec, "id", getattr(dec, "attr", None)) == "cache"

    found = set()

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = f"{prefix}.{child.name}"
                if any(unbounded(dec) for dec in child.decorator_list):
                    found.add(name)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    for path in paths:
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_every_unbounded_cache_has_a_reason():
    # a cache without a size bound holds every key it is ever asked; a new
    # one needs an entry above
    paths = pathlib.Path(wonderco.__file__).parent.glob("*.py")
    assert unbounded_caches(paths) == set(UNBOUNDED_CACHES)


def test_unbounded_cache_scan_flags_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(): pass\n"
        "@functools.lru_cache(None)\ndef b(): pass\n"
        "@cache\ndef c(): pass\n"
        "@functools.cache\ndef d(): pass\n"
        "@lru_cache(maxsize=8)\ndef e(): pass\n"
        "@lru_cache\ndef f(): pass\n"
        "class K:\n"
        "    @lru_cache(maxsize=None)\n"
        "    def g(self):\n"
        "        @cache\n"
        "        def h(): pass\n"
    )
    assert unbounded_caches([probe]) == {
        "probe.a", "probe.b", "probe.c", "probe.d", "probe.K.g", "probe.K.g.h",
    }


# public methods that no code of the package calls, each with why it stays
UNCALLED_METHODS: dict[str, str] = {}


def uncalled_methods() -> set[str]:
    """``module.Class.method`` of each public method of a public class whose
    name is read as an attribute (``x.method``) nowhere in the package
    outside its own definition.

    The scan goes by attribute name, not by the receiver's type: any
    attribute of the same name counts as a call, so
    ``TruncatedSeries.terms`` counts as called wherever the field
    ``Character.terms`` is read.
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


# parameters with a default that no call in the package passes, each with
# why it stays
UNPASSED_PARAMETERS = {
    "cli.main(argv)": "tests drive the CLI in-process with their own arguments",
    "cli.main(out)": "tests drive the CLI in-process and capture its output",
    "cli.main(err)": "tests drive the CLI in-process and capture its errors",
    "acceptance.run_acceptance(stream)": "streams each criterion's line as it finishes",
}


def signatures_and_calls(paths) -> tuple[list, dict]:
    """The definitions and calls that the parameter scans read.

    ``defs`` holds ``(key, called, arguments, receiver)`` for each
    module-level function and method: ``module.function`` or
    ``module.Class.method``, the name a call uses, its ``ast.arguments``,
    and 1 where a call leaves out the first parameter (a method's receiver,
    or ``C.__init__`` and ``C.__new__`` called as ``C(...)``), else 0.
    ``calls`` maps a called name to the ``(args, keywords)`` of each call,
    keywords by name (``None`` for a ``**kwargs``).  Calls go by the
    callee's name, as the method scan goes by attribute name: ``f(...)``
    (through the module's ``from .x import`` names) and ``x.f(...)`` both
    count for every function or method named ``f``.
    """
    defs: list[tuple[str, str, ast.arguments, int]] = []
    calls: dict[str, list[tuple[list, dict]]] = {}
    for path in paths:
        mod, tree = path.stem, ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{mod}.{node.name}", node.name, node.args, 0))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in fn.decorator_list
                    )
                    called = node.name if fn.name in ("__init__", "__new__") else fn.name
                    key = f"{mod}.{node.name}.{fn.name}"
                    defs.append((key, called, fn.args, 0 if static else 1))
        bound = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = bound.get(func.id, func.id)
            else:
                name = getattr(func, "attr", None)
            keywords = {k.arg: k.value for k in node.keywords}
            calls.setdefault(name, []).append((node.args, keywords))
    return defs, calls


def package_paths():
    return pathlib.Path(wonderco.__file__).parent.glob("*.py")


def unpassed_parameters() -> set[str]:
    """``module.function(parameter)`` or ``module.Class.method(parameter)``
    of each defaulted parameter of a module-level function or a method that
    no call in the package passes, by keyword or by position.

    Only a parameter with a default can go unpassed by a call that runs.
    Calls go by name (:func:`signatures_and_calls`).  A ``*args`` passes
    every positional parameter from its place on, a ``**kwargs`` every
    parameter.
    """
    defs, calls = signatures_and_calls(package_paths())
    unpassed = set()
    for key, name, args, receiver in defs:
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        params = [(positional.index(a) - receiver, a.arg) for a in defaulted]
        params += [
            (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        for place, param in params:
            if not any(
                param in keywords
                or None in keywords
                or (place is not None and (
                    place < len(given) or any(isinstance(a, ast.Starred) for a in given)
                ))
                for given, keywords in calls.get(name, ())
            ):
                unpassed.add(f"{key}({param})")
    return unpassed


def test_every_parameter_is_passed_or_has_a_reason():
    # a new defaulted parameter that no package call passes needs an entry
    # above
    assert unpassed_parameters() == set(UNPASSED_PARAMETERS)


# parameters that every package call passes as one constant, each with why
# it stays a parameter
CONSTANT_PARAMETERS = {
    "opcrit.joint_solution_set(bound)": "criterion 1 states its bound 12 at the "
    "call; tests ask bounds 3 to 50 against a brute-force scan",
    "opcrit.abstract_sweep(max_rank)": "criterion 1 states its rank 8 at the "
    "call, next to the 'rank <= 8' of its detail line",
    "schubert.component_cell(component)": "perfbench/queries.py calls "
    "component_cell(\"F1\"); tests check that \"F2\" is refused",
    "acceptance.AcceptanceReport.to_dict(timed)": "the CLI leaves the run times "
    "out for byte-stable output; tests read them, and ROADMAP item 5 puts "
    "counters behind timed=True",
}


def is_constant(node: ast.expr) -> bool:
    """A literal, or an upper-case name: a module constant."""
    if isinstance(node, ast.Name):
        return node.id.isupper()
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):
        return False
    return True


def constant_parameters(paths) -> set[str]:
    """``module.function(parameter)`` or ``module.Class.method(parameter)``
    of each parameter that every call in ``paths`` passes explicitly, by
    position or by keyword, as one and the same constant (:func:`is_constant`).

    Calls go by name (:func:`signatures_and_calls`).  A parameter that no
    call reaches, or that some call leaves to its default or passes through
    ``*args`` or ``**kwargs``, is not flagged.
    """
    defs, calls = signatures_and_calls(paths)
    flagged = set()
    for key, name, args, receiver in defs:
        positional = [a.arg for a in args.posonlyargs + args.args][receiver:]
        places = dict(zip(positional, range(len(positional))))
        for param in positional + [a.arg for a in args.kwonlyargs]:
            values = []
            for given, keywords in calls.get(name, ()):
                starred = [i for i, a in enumerate(given) if isinstance(a, ast.Starred)]
                explicit = given[: starred[0] if starred else len(given)]
                if param in keywords:
                    values.append(keywords[param])
                elif places.get(param, len(explicit)) < len(explicit):
                    values.append(explicit[places[param]])
                else:
                    break
            else:
                if all(map(is_constant, values)) and len({*map(ast.dump, values)}) == 1:
                    flagged.add(f"{key}({param})")
    return flagged


def test_every_constant_parameter_has_a_reason():
    # a parameter that every package call passes as one constant is a
    # setting no caller varies; a new one needs an entry above
    assert constant_parameters(package_paths()) == set(CONSTANT_PARAMETERS)


def test_constant_parameter_scan_flags_each_form(tmp_path):
    # a literal, an upper-case constant and a keyword pass are flagged; a
    # varied, defaulted, starred or lower-case pass is not
    probe = tmp_path / "probe.py"
    probe.write_text(
        "LIMIT = 3\n"
        "limit = 3\n"
        "def f(a, b, c=0, d=1): pass\n"
        "def g(x, y=2): pass\n"
        "def h(u): pass\n"
        "def k(v): pass\n"
        "class K:\n"
        "    def m(self, z): pass\n"
        "f(1, LIMIT, c=None, d=limit)\n"
        "f(1, LIMIT, c=None)\n"
        "g(1)\n"
        "g(2, 5)\n"
        "h(1)\n"
        "h(*[1])\n"
        "k(limit)\n"
        "K().m(-4)\n"
        "K().m(z=-4)\n"
    )
    assert constant_parameters([probe]) == {
        "probe.f(a)", "probe.f(b)", "probe.f(c)", "probe.K.m(z)",
    }


def unused_imports(path: pathlib.Path) -> list[str]:
    """``name:line`` of each name a module imports and never reads.

    A name counts as read where it appears as a name node anywhere in the
    module, annotations included.  ``from __future__`` imports, names the
    module lists in ``__all__`` and explicit re-exports (``import x as x``,
    ``from m import x as x``) are allowed.
    """
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                bound = alias.asname or alias.name
                if isinstance(node, ast.Import) and not alias.asname:
                    bound = alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return [
        f"{name}:{line}"
        for name, line in sorted(imported.items())
        if name not in read and name not in exported
    ]


def test_every_import_is_used():
    # an import nobody reads costs start-up time and misleads the reader
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
    assert len(paths) > 20
    unused = {
        str(path.relative_to(root)): names
        for path in paths
        if (names := unused_imports(path))
    }
    assert unused == {}


def test_unused_import_scan_flags_and_allows(tmp_path):
    # the scan flags a plain unused import and keeps the allowed forms
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import pi, tau\n"
        "from math import e as e\n"
        "from itertools import chain\n"
        "__all__ = ['chain']\n"
        "def f(x: tau) -> None:\n"
        "    return os\n"
    )
    assert unused_imports(probe) == ["js:3", "pi:4"]
