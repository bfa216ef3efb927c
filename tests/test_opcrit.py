"""Tests for the exponent criterion solver."""

import itertools
import operator

import pytest
from fm_reference import has_solutions as reference_has_solutions
from hypothesis import given, settings
from hypothesis import strategies as st

from wonderco import opcrit
from wonderco.opcrit import (
    _sweep_labels,
    abstract_sweep,
    bordered_chain_matrix,
    classify,
    joint_has_solutions,
    joint_solution_set,
    minimal_solutions,
    series_matrices,
)
from wonderco.rootsys import build_root_system
from wonderco.satake import catalog_diagram, catalog_names

A1 = ((2,),)
A2 = ((2, -1), (-1, 2))


def brute_solutions(matrices, bound):
    """Direct enumeration of the inequality system, no shortcuts: every
    nonzero vector of the box, kept while it meets each inequality in turn."""
    candidates = itertools.product(range(bound + 1), repeat=len(matrices[0]))
    for m in matrices:
        for i, row in enumerate(m):
            candidates = [
                n for n in candidates if sum(map(operator.mul, row, n)) >= n[i]
            ]
    return {n for n in candidates if any(n)}


def square_matrices(r, count):
    """``count`` random r x r matrices with entries in -2..3."""
    row = st.tuples(*[st.integers(-2, 3)] * r)
    return st.tuples(*[st.tuples(*[row] * r)] * count)


class TestSolutionSet:
    def test_rank_one_all_positive(self):
        assert joint_solution_set((A1,), 3) == {(1,), (2,), (3,)}

    def test_rank_two_diagonal(self):
        assert joint_solution_set((A2,), 3) == {(1, 1), (2, 2), (3, 3)}

    def test_chain_of_three_empty(self):
        a3 = build_root_system("A", 3).cartan
        assert joint_solution_set((a3,), 50) == frozenset()

    def test_doubled_bond_empty(self):
        b2 = build_root_system("B", 2).cartan
        assert joint_solution_set((b2,), 50) == frozenset()

    def test_zero_vector_excluded(self):
        assert (0,) not in joint_solution_set((A1,), 5)
        assert (0, 0) not in joint_solution_set((A2,), 5)

    def test_lowered_corner_rank_one(self):
        assert joint_solution_set((bordered_chain_matrix(1),), 3) == {(1,), (2,), (3,)}

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_lowered_corner_higher_ranks_empty(self, r):
        assert joint_solution_set((bordered_chain_matrix(r),), 20) == frozenset()

    def test_joint_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            joint_solution_set([A1, A2], 3)
        with pytest.raises(ValueError):
            joint_solution_set([], 3)
        with pytest.raises(ValueError):
            joint_solution_set([((2, -1),)], 3)

    def test_matches_brute_enumeration(self):
        for mats in ([A2], [A1], [bordered_chain_matrix(2)], [A2, A2]):
            assert joint_solution_set(mats, 6) == brute_solutions(mats, 6)


class TestMinimal:
    def test_generators(self):
        corner = bordered_chain_matrix(1)
        assert minimal_solutions(joint_solution_set((A1,), 10)) == ((1,),)
        assert minimal_solutions(joint_solution_set((A2,), 10)) == ((1, 1),)
        assert minimal_solutions(joint_solution_set((corner,), 10)) == ((1,),)

    def test_sums_of_minimal_are_solutions(self):
        sols = joint_solution_set((A2,), 9)
        for a in minimal_solutions(sols):
            for b in minimal_solutions(sols):
                s = tuple(x + y for x, y in zip(a, b))
                if all(c <= 9 for c in s):
                    assert s in sols


class TestExistence:
    def test_sweep_verdicts(self):
        sweep = abstract_sweep()
        exists = {k for k, v in sweep.items() if v}
        assert exists == {"A1", "A2", "BC1"}

    def test_sweep_labels(self):
        labels = _sweep_labels(8)
        assert len(labels) == 41
        assert "A8" in labels and "BC8" in labels
        assert "E7" in labels and "G2" in labels
        # every valid rank up to 8 of each series, series by series
        assert labels == (
            *(f"A{r}" for r in range(1, 9)),
            *(f"{s}{r}" for s in "BC" for r in range(2, 9)),
            *(f"D{r}" for r in range(3, 9)),
            "E6", "E7", "E8", "F4", "G2",
            *(f"BC{r}" for r in range(1, 9)),
        )
        assert _sweep_labels(3) == (
            "A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2", "BC1", "BC2", "BC3",
        )

    def test_displayed_policy(self):
        # the displayed bordered chain matrix, joined with the reduced B3
        assert series_matrices("BC3") == (
            bordered_chain_matrix(3),
            build_root_system("B", 3).cartan,
        )
        assert series_matrices("A3") == (build_root_system("A", 3).cartan,)

    def test_bordered_matrix_shape(self):
        assert bordered_chain_matrix(3) == ((2, -1, 0), (-1, 2, -1), (0, -1, 1))
        with pytest.raises(ValueError):
            bordered_chain_matrix(0)

    def test_agrees_with_enumeration_at_small_bound(self):
        for label in _sweep_labels(8):
            mats = series_matrices(label)
            brute = brute_solutions(mats, 4)
            if brute:
                assert joint_has_solutions(mats), label
            if label in ("A1", "A2", "BC1"):
                assert brute, label

    @given(
        st.integers(1, 3).flatmap(
            lambda r: st.lists(
                st.lists(st.integers(-2, 3), min_size=r, max_size=r),
                min_size=r,
                max_size=r,
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_enumerated_solutions_imply_existence(self, rows):
        m = tuple(tuple(row) for row in rows)
        if brute_solutions([m], 4):
            assert joint_has_solutions((m,))

    @given(
        st.one_of(
            st.integers(1, 4).flatmap(lambda r: square_matrices(r, 1)),
            # pairs stop at rank 3: the reference, one Fraction elimination
            # per coordinate, took 14 s on a single rank-4 pair
            st.integers(1, 3).flatmap(lambda r: square_matrices(r, 2)),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_rational_reference(self, mats):
        # one integer elimination with sum(n) >= 1 against the rational
        # route that points each coordinate in turn
        assert joint_has_solutions(mats) == reference_has_solutions(mats)


class TestClassify:
    @pytest.mark.parametrize("name", sorted(catalog_names()))
    def test_catalog_always_admits_operators(self, name):
        c = classify(catalog_diagram(name), bound=6)
        assert c.exists
        assert c.solutions
        assert c.minimal in (((1,),), ((1, 1),))

    def test_rank_two_solutions_are_diagonal(self):
        c = classify(catalog_diagram("split-A2"), bound=5)
        assert c.solutions == {(k, k) for k in range(1, 6)}
        assert c.minimal == ((1, 1),)

    def test_one_elimination_and_one_scan(self, monkeypatch):
        calls = {"_fm_feasible": 0, "_scan": 0}
        for name in calls:
            original = getattr(opcrit, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(opcrit, name, counted)
        c = classify(catalog_diagram("GxG-A2"), bound=5)
        assert c.minimal == ((1, 1),)
        assert calls == {"_fm_feasible": 1, "_scan": 1}

    def test_compact_pair_matches_split_form(self):
        paired = classify(catalog_diagram("PGL6-PSp6"), bound=5)
        split = classify(catalog_diagram("split-A2"), bound=5)
        assert paired.solutions == split.solutions
        assert paired.matrices == split.matrices
