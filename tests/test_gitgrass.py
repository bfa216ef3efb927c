"""Tests for the scaling action on 3-planes in the split 6-space."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wonderco.charring import weyl_character
from wonderco.gitgrass import (
    PluckerIndex,
    SubspacePoint,
    all_plucker_indices,
    coordinate_point,
    cstar_weight,
    decompose_module,
    fixed_points,
    graph_point,
    intersection_dims,
    sheaf_correspondence,
    subspace_point,
    unstable_component,
)
from wonderco.rootsys import Weight, build_root_system
from weyl_descent import weyl_dimension

A2xA2 = build_root_system("A2xA2")

E1 = (1, 0, 0, 0, 0, 0)
E2 = (0, 1, 0, 0, 0, 0)
E3 = (0, 0, 1, 0, 0, 0)
E1S = (0, 0, 0, 1, 0, 0)
E2S = (0, 0, 0, 0, 1, 0)
E3S = (0, 0, 0, 0, 0, 1)


# weights of the block bases under the two rank-2 torus factors: the first
# block carries the standard representation, the second its dual
_EPS = {1: (1, 0), 2: (-1, 1), 3: (0, -1)}
_EPS_DUAL = {1: (-1, 0), 2: (1, -1), 3: (0, 1)}


def torus_weight(p: PluckerIndex) -> Weight:
    """Weight of the basis vector under the two rank-2 torus factors: the
    oracle for the table of summands in ``decompose_module``."""
    a = [0, 0]
    b = [0, 0]
    for i in p.first:
        a[0] += _EPS[i][0]
        a[1] += _EPS[i][1]
    for j in p.second:
        b[0] += _EPS_DUAL[j][0]
        b[1] += _EPS_DUAL[j][1]
    return Weight((a[0], a[1], b[0], b[1]))


def block_swap(u: SubspacePoint) -> SubspacePoint:
    """Exchange the two blocks, e_i <-> e*_i: the geometric check behind
    ``schubert.swap_blocks_weight``."""
    return subspace_point([row[3:] + row[:3] for row in u.rows])


def random_rows(rng, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(6)] for _ in range(3)]


def random_point(rng):
    while True:
        rows = random_rows(rng)
        try:
            return subspace_point(rows)
        except ValueError:
            continue


class TestPluckerIndices:
    def test_twenty_indices(self):
        assert len(all_plucker_indices()) == 20
        assert len(set(all_plucker_indices())) == 20

    def test_weight_multiset(self):
        counts = Counter(cstar_weight(p) for p in all_plucker_indices())
        assert counts == {3: 1, 1: 9, -1: 9, -3: 1}

    def test_extreme_indices(self):
        assert cstar_weight(PluckerIndex((1, 2, 3), ())) == 3
        assert cstar_weight(PluckerIndex((), (1, 2, 3))) == -3
        assert cstar_weight(PluckerIndex((1, 2), (3,))) == 1
        assert cstar_weight(PluckerIndex((1,), (2, 3))) == -1

    def test_factor_count_enforced(self):
        with pytest.raises(ValueError, match="three wedge factors"):
            PluckerIndex((1, 2), (1, 2))
        with pytest.raises(ValueError, match="three wedge factors"):
            PluckerIndex((1,), (2,))

    def test_range_and_repeats_enforced(self):
        with pytest.raises(ValueError, match="out of range"):
            PluckerIndex((1, 4), (1,))
        with pytest.raises(ValueError, match="repeated"):
            PluckerIndex((1, 1), (2,))

    def test_sorting_is_canonical(self):
        assert PluckerIndex((2, 1), (3,)) == PluckerIndex((1, 2), (3,))

    def test_first_summand_highest_vector(self):
        # wedge of e_1, e_2, e*_3 sits in the scaling-weight-1 block and is
        # a highest-weight vector there
        p = PluckerIndex((1, 2), (3,))
        assert torus_weight(p) == Weight((0, 1, 0, 1))

    def test_weights_per_block_match_characters(self):
        # the torus weights of the 20 basis vectors, grouped by scaling
        # weight, reproduce the irreducible characters of the four summands
        by_cstar = {}
        for p in all_plucker_indices():
            by_cstar.setdefault(cstar_weight(p), []).append(torus_weight(p))
        for summand in decompose_module():
            got = Counter(by_cstar[summand.cstar])
            want = Counter(
                dict(weyl_character(A2xA2, summand.highest_weight).terms)
            )
            assert got == want


class TestSubspacePoints:
    def test_equality_is_subspace_equality(self):
        a = subspace_point([E1, E2, E3S])
        b = subspace_point(
            [
                (2, 0, 0, 0, 0, 0),
                (1, 3, 0, 0, 0, 0),
                (5, -1, 0, 0, 0, 7),
            ]
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_entries_are_fractions(self):
        u = subspace_point([E1, E2, (0, 0, 2, 0, 0, 1)])
        assert all(
            isinstance(x, Fraction) for row in u.rows for x in row
        )
        assert u.rows[2] == (0, 0, 1, 0, 0, Fraction(1, 2))

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="span"):
            subspace_point([E1, E2, (1, 1, 0, 0, 0, 0)])
        with pytest.raises(ValueError, match="span"):
            subspace_point([E1, E1, E1])

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="3x6"):
            subspace_point([E1, E2])
        with pytest.raises(ValueError, match="3x6"):
            subspace_point([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_canonical_under_row_operations(self, seed):
        rng = random.Random(seed)
        u = random_point(rng)
        # random invertible row mixing fixes the row space
        while True:
            g = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            det = (
                g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
                - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
                + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
            )
            if det != 0:
                break
        mixed = [
            [
                sum(g[i][k] * u.rows[k][j] for k in range(3))
                for j in range(6)
            ]
            for i in range(3)
        ]
        assert subspace_point(mixed) == u


class TestIntersectionDims:
    def test_invertible_graph(self):
        m = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]
        assert intersection_dims(graph_point(m)) == (0, 0)

    def test_first_block(self):
        assert intersection_dims(subspace_point([E1, E2, E3])) == (3, 0)

    def test_second_block(self):
        assert intersection_dims(subspace_point([E1S, E2S, E3S])) == (0, 3)

    def test_mixed_span(self):
        assert intersection_dims(subspace_point([E1, E2, E1S])) == (2, 1)

    def test_graph_kernel_controls_first_dim(self):
        # rank-2 operator: one kernel line lands in V, nothing in V*
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
        assert intersection_dims(graph_point(m)) == (1, 0)
        # rank-1 operator: kernel plane
        m = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
        assert intersection_dims(graph_point(m)) == (2, 0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_dims_bounded_and_summed(self, seed):
        rng = random.Random(seed)
        u = random_point(rng)
        d_v, d_vstar = intersection_dims(u)
        assert 0 <= d_v <= 3 and 0 <= d_vstar <= 3
        # the two intersections meet only in 0, so they fit inside U
        assert d_v + d_vstar <= 3


class TestStability:
    def test_graph_points_semistable(self):
        assert unstable_component(graph_point([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) is None
        assert unstable_component(graph_point([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) is None

    def test_kernel_line_still_semistable(self):
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
        assert unstable_component(graph_point(m)) is None

    def test_unstable_components(self):
        assert unstable_component(subspace_point([E1, E2, E3])) == "F1"
        assert unstable_component(subspace_point([E1, E2, E3S])) == "F1"
        assert unstable_component(subspace_point([E1S, E2S, E3S])) == "F2"
        assert unstable_component(subspace_point([E1, E1S, E2S])) == "F2"

    def test_components_exclusive(self):
        # a plane cannot meet both blocks in dimension two
        for u in fixed_points():
            d_v, d_vstar = intersection_dims(u)
            assert not (d_v >= 2 and d_vstar >= 2)

    def test_fixed_points_all_unstable(self):
        points = fixed_points()
        assert len(points) == 20
        labels = Counter(unstable_component(u) for u in points)
        assert labels == {"F1": 10, "F2": 10}

    def test_fixed_point_component_matches_index_balance(self):
        # a coordinate plane lies in the first stratum exactly when at
        # least two of its wedge factors come from V
        for p in all_plucker_indices():
            want = "F1" if len(p.first) >= 2 else "F2"
            assert unstable_component(coordinate_point(p)) == want

    def test_block_swap_exchanges_strata(self):
        rng = random.Random(3)
        for _ in range(20):
            u = random_point(rng)
            swapped = block_swap(u)
            d = intersection_dims(u)
            assert intersection_dims(swapped) == (d[1], d[0])
            comp, comp_sw = unstable_component(u), unstable_component(swapped)
            assert (comp, comp_sw) in {
                (None, None),
                ("F1", "F2"),
                ("F2", "F1"),
            }

    def test_block_swap_involutive(self):
        u = subspace_point(
            [
                (1, 2, 0, 3, 0, 1),
                (0, 1, 1, 0, 2, 0),
                (1, 0, 0, 0, 0, 4),
            ]
        )
        assert block_swap(block_swap(u)) == u

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_flag_preserving_action_keeps_first_dim(self, seed):
        # unipotent upper-triangular moves preserve V, so the dimension of
        # the intersection with V never drops
        rng = random.Random(seed)
        u = random_point(rng)
        d_v = intersection_dims(u)[0]
        g = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
        for _ in range(4):
            i = rng.randint(0, 4)
            j = rng.randint(i + 1, 5)
            g[i][j] += rng.randint(-3, 3)
        moved = subspace_point(
            [
                [
                    sum(g[i][k] * row[k] for k in range(6))
                    for i in range(6)
                ]
                for row in u.rows
            ]
        )
        assert intersection_dims(moved)[0] >= d_v


class TestPluckerCoordinates:
    def test_coordinate_point_supported_at_its_index(self):
        p = PluckerIndex((1, 3), (2,))
        units = [[int(j == col) for j in range(6)] for col in p.columns()]
        assert coordinate_point(p).rows == tuple(map(tuple, units))


class TestModuleDecomposition:
    def test_four_summands(self):
        summands = decompose_module()
        assert len(summands) == 4
        assert [s.cstar for s in summands] == [3, 1, -1, -3]
        assert [s.dim for s in summands] == [1, 9, 9, 1]
        assert sum(s.dim for s in summands) == 20

    def test_middle_highest_weights(self):
        summands = decompose_module()
        assert summands[1].highest_weight == Weight((0, 1, 0, 1))
        assert summands[2].highest_weight == Weight((1, 0, 1, 0))

    def test_dims_match_weyl_formula(self):
        for s in decompose_module():
            assert weyl_dimension(A2xA2, s.highest_weight) == s.dim


class TestSheafCorrespondence:
    def test_basis_images(self):
        assert sheaf_correspondence(Weight((1, 0, 1, 0))).k == 1
        assert sheaf_correspondence(Weight((1, 0, 1, 0))).n == -1
        assert sheaf_correspondence(Weight((0, 1, 0, 1))).k == 1
        assert sheaf_correspondence(Weight((0, 1, 0, 1))).n == 1

    def test_doubled_restricted_roots(self):
        d = sheaf_correspondence(Weight((2, -1, 2, -1)))
        assert (d.k, d.n) == (1, -3)
        d = sheaf_correspondence(Weight((-1, 2, -1, 2)))
        assert (d.k, d.n) == (1, 3)

    def test_off_diagonal_rejected(self):
        with pytest.raises(ValueError, match="block-diagonal"):
            sheaf_correspondence(Weight((1, 0, 0, 1)))
        with pytest.raises(ValueError, match="block-diagonal"):
            sheaf_correspondence(Weight((1, 0, 1, 1)))

    @given(
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.integers(-6, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_additive(self, a1, a2, b1, b2):
        lam = Weight((a1, a2, a1, a2))
        mu = Weight((b1, b2, b1, b2))
        d_sum = sheaf_correspondence(lam + mu)
        d_l, d_m = sheaf_correspondence(lam), sheaf_correspondence(mu)
        assert d_sum.k == d_l.k + d_m.k
        assert d_sum.n == d_l.n + d_m.n
