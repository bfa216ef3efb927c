"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import ast
import importlib
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from wonderco import cli  # noqa: E402
from wonderco.gitgrass import sheaf_correspondence  # noqa: E402
from wonderco.wondercoh import spanning_weight  # noqa: E402

BENCH_FILES = ("queries.py", "worker.py", "run.py")


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    gen = inputs.WORKLOADS[name]
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


def test_query_list_sizes():
    sizes = {name: len(gen(0)) for name, gen in inputs.WORKLOADS.items()}
    assert sizes == {
        "profile-box": 385,
        "bundle-characters": 177,
        "kempf-bounds": 16,
        "cross-h3": 51,
    }


@pytest.mark.parametrize("seed", range(20))
def test_kempf_queries_share_one_level_per_width(seed):
    queries = inputs.kempf_bounds(seed)
    for width in inputs.WIDTHS:
        # the first stratum's (level, window) that each query's series use
        keys = [
            (k, (k, k + width)) if comp == "F1" else (-k, (-k, -k + width))
            for comp, k, w in queries
            if w == width
        ]
        assert len(keys) == 4 and len(set(keys)) == 3


def test_bundle_formula_matches_spanning_weight():
    for coeffs in inputs.box_bundles(3):
        f1, f2 = inputs.bundle_coords(*coeffs)
        assert spanning_weight(*coeffs).coords == (f1, f2, f1, f2)


def test_box_bundles_are_distinct():
    bundles = inputs.box_bundles(3)
    assert len({spanning_weight(*c) for c in bundles}) == len(bundles)


def test_open_stratum_formula_matches_sheaf_correspondence():
    for coeffs in inputs.cross_h3(0):
        desc = sheaf_correspondence(spanning_weight(*coeffs))
        f1, f2 = inputs.bundle_coords(*coeffs)
        assert (desc.k, desc.n) == inputs.level_and_grade(f1, f2)
        assert desc.n >= desc.k + 8 or desc.n <= -desc.k - 8


def test_p90_needs_100_samples():
    with pytest.raises(ValueError):
        run.p90([1.0] * 99)
    assert run.p90([float(x) for x in range(1, 101)]) == pytest.approx(90.9)


def _bench_trees():
    for name in BENCH_FILES:
        with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
            yield name, ast.parse(fh.read())


def _public_names(module: str) -> set[str]:
    """Names in the module's ``__all__`` or imported from it by ``cli.py``."""
    with open(cli.__file__, encoding="utf-8") as fh:
        cli_tree = ast.parse(fh.read())
    cli_imports = {
        alias.name
        for node in ast.walk(cli_tree)
        if isinstance(node, ast.ImportFrom) and f"wonderco.{node.module}" == module
        for alias in node.names
    }
    return set(importlib.import_module(module).__all__) | cli_imports


def test_benchmark_uses_only_public_names():
    for fname, tree in _bench_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wonderco"):
                for alias in node.names:
                    assert not alias.name.startswith("_"), (fname, alias.name)
                    if node.module != "wonderco":
                        assert alias.name in _public_names(node.module), (fname, alias.name)
            if isinstance(node, ast.Attribute):
                assert node.attr != "offsets", fname
                base = node.value
                if isinstance(base, ast.Name) and base.id in ("wondercoh", "charring", "schubert"):
                    assert not node.attr.startswith("_") or node.attr == "__file__", (fname, node.attr)
            if isinstance(node, ast.keyword):
                assert node.arg != "box", fname
