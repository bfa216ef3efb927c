"""Tests for the exponent criterion solver."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wonderco.opcrit import (
    _sweep_labels,
    abstract_sweep,
    bordered_chain_matrix,
    classify,
    joint_has_solutions,
    joint_solution_set,
    minimal_solutions,
    series_matrices,
    solution_set,
)
from wonderco.rootsys import build_root_system
from wonderco.satake import catalog_diagram, catalog_names

A1 = ((2,),)
A2 = ((2, -1), (-1, 2))


def brute_solutions(matrices, bound):
    """Direct enumeration of the inequality system, no shortcuts."""
    r = len(matrices[0])
    out = set()
    for n in itertools.product(range(bound + 1), repeat=r):
        if not any(n):
            continue
        ok = all(
            sum(row[j] * n[j] for j in range(r)) >= n[i]
            for m in matrices
            for i, row in enumerate(m)
        )
        if ok:
            out.add(n)
    return out


class TestSolutionSet:
    def test_rank_one_all_positive(self):
        assert solution_set(A1, 3) == {(1,), (2,), (3,)}

    def test_rank_two_diagonal(self):
        assert solution_set(A2, 3) == {(1, 1), (2, 2), (3, 3)}

    def test_chain_of_three_empty(self):
        a3 = build_root_system("A", 3).cartan
        assert solution_set(a3, 50) == frozenset()

    def test_doubled_bond_empty(self):
        b2 = build_root_system("B", 2).cartan
        assert solution_set(b2, 50) == frozenset()

    def test_default_bound(self):
        assert len(solution_set(A1)) == 100

    def test_zero_vector_excluded(self):
        assert (0,) not in solution_set(A1, 5)
        assert (0, 0) not in solution_set(A2, 5)

    def test_lowered_corner_rank_one(self):
        assert solution_set(bordered_chain_matrix(1), 3) == {(1,), (2,), (3,)}

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_lowered_corner_higher_ranks_empty(self, r):
        assert solution_set(bordered_chain_matrix(r), 20) == frozenset()

    def test_joint_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            joint_solution_set([A1, A2])
        with pytest.raises(ValueError):
            joint_solution_set([])
        with pytest.raises(ValueError):
            joint_solution_set([((2, -1),)])

    def test_matches_brute_enumeration(self):
        for mats in ([A2], [A1], [bordered_chain_matrix(2)], [A2, A2]):
            assert joint_solution_set(mats, 6) == brute_solutions(mats, 6)


class TestMinimal:
    def test_generators(self):
        assert minimal_solutions(A1, 10) == ((1,),)
        assert minimal_solutions(A2, 10) == ((1, 1),)
        assert minimal_solutions(bordered_chain_matrix(1), 10) == ((1,),)

    def test_sums_of_minimal_are_solutions(self):
        sols = solution_set(A2, 9)
        for a in minimal_solutions(A2, 9):
            for b in minimal_solutions(A2, 9):
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

    def test_displayed_policy(self):
        assert series_matrices("BC3", "displayed") == (bordered_chain_matrix(3),)
        assert len(series_matrices("BC3", "both")) == 2
        assert series_matrices("A3") == (build_root_system("A", 3).cartan,)
        with pytest.raises(ValueError):
            series_matrices("BC2", "neither")

    def test_displayed_policy_same_verdicts(self):
        assert abstract_sweep(max_rank=4, bc_policy="displayed") == abstract_sweep(
            max_rank=4, bc_policy="both"
        )

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

    def test_compact_pair_matches_split_form(self):
        paired = classify(catalog_diagram("PGL6-PSp6"), bound=5)
        split = classify(catalog_diagram("split-A2"), bound=5)
        assert paired.solutions == split.solutions
        assert paired.matrices == split.matrices
