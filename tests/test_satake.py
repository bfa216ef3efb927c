"""Tests for diagram parsing, involutions, and restricted root data."""

import itertools
import time

import pytest

from wonderco.rootsys import Root, all_roots, build_root_system, simple_root
from wonderco.satake import (
    CATALOG,
    DiagramError,
    apply_theta,
    catalog_diagram,
    catalog_names,
    check_involution,
    criterion_matrices,
    family_choices,
    make_diagram,
    parse_diagram,
    phi_split,
    restricted_system,
    theta_matrix,
    theta_of_simple,
)

A2_CARTAN = ((2, -1), (-1, 2))

# every series of rank at most five, the exceptional types up to E6, and
# the products of small type-A factors
PROBE_LABELS = (
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4",
    "D3", "D4", "D5", "G2", "F4", "E6", "A1xA1", "A1xA2", "A2xA2",
)

# name -> (type label, classes, family sizes, gamma coords, criterion matrices)
RESTRICTED_GOLDEN = {
    "PGL6-PSp6": ("A2", ((2,), (4,)), (4, 4), ((1, 2, 1, 0, 0), (0, 0, 1, 2, 1)), (A2_CARTAN,)),
    "PGL3-GL2": ("BC1", ((1, 2),), (2,), ((1, 1),), (((1,),),)),
    "PGL4-GL3": ("BC1", ((1, 3),), (4,), ((1, 1, 1),), (((1,),),)),
    "PGL5-GL4": ("BC1", ((1, 4),), (6,), ((1, 1, 1, 1),), (((1,),),)),
    "PGL6-GL5": ("BC1", ((1, 5),), (8,), ((1, 1, 1, 1, 1),), (((1,),),)),
    "PSp4-SL2xSp2": ("A1", ((2,),), (3,), ((2, 2),), (((2,),),)),
    "PSp6-SL2xSp4": ("BC1", ((2,),), (4,), ((1, 2, 1),), (((1,),),)),
    "PSp8-SL2xSp6": ("BC1", ((2,),), (8,), ((1, 2, 2, 1),), (((1,),),)),
    "PSO5-SO4": ("A1", ((1,),), (3,), ((2, 2),), (((2,),),)),
    "PSO6-SO5": ("A1", ((1,),), (4,), ((2, 1, 1),), (((2,),),)),
    "PSO7-SO6": ("A1", ((1,),), (5,), ((2, 2, 2),), (((2,),),)),
    "PSO8-SO7": ("A1", ((1,),), (6,), ((2, 2, 1, 1),), (((2,),),)),
    "split-A1": ("A1", ((1,),), (1,), ((2,),), (((2,),),)),
    "split-A2": ("A2", ((1,), (2,)), (1, 1), ((2, 0), (0, 2)), (A2_CARTAN,)),
    "GxG-A1": ("A1", ((1, 2),), (2,), ((1, 1),), (((2,),),)),
    "GxG-A2": ("A2", ((1, 3), (2, 4)), (2, 2), ((1, 0, 1, 0), (0, 1, 0, 1)), (A2_CARTAN,)),
    "E6-F4": ("A2", ((1,), (6,)), (8, 8), ((2, 1, 2, 2, 1, 0), (0, 1, 1, 2, 2, 2)), (A2_CARTAN,)),
    "F4-PSO9": ("BC1", ((4,),), (8,), ((1, 2, 3, 2),), (((1,),),)),
}

PHI_SPLIT_GOLDEN = {
    "PGL6-PSp6": (6, 12),
    "PGL3-GL2": (0, 3),
    "PGL4-GL3": (2, 5),
    "PGL5-GL4": (6, 7),
    "PGL6-GL5": (12, 9),
    "PSp4-SL2xSp2": (2, 3),
    "PSp6-SL2xSp4": (4, 7),
    "PSp8-SL2xSp6": (10, 11),
    "PSO5-SO4": (2, 3),
    "PSO6-SO5": (4, 4),
    "PSO7-SO6": (8, 5),
    "PSO8-SO7": (12, 6),
    "split-A1": (0, 1),
    "split-A2": (0, 3),
    "GxG-A1": (0, 2),
    "GxG-A2": (0, 6),
    "E6-F4": (24, 24),
    "F4-PSO9": (18, 15),
}


# ---------------------------------------------------------------------------
# construction and parsing

class TestDiagramConstruction:
    def test_catalog_complete(self):
        assert len(catalog_names()) == 18
        assert set(catalog_names()) == set(CATALOG)

    def test_unknown_name(self):
        with pytest.raises(DiagramError, match="unknown diagram"):
            catalog_diagram("nope")

    def test_comments_and_blanks(self):
        d = parse_diagram("# header\ntype A3\n\nblack 2  # middle\narrow 1 3\n")
        assert d.black == frozenset({2})
        assert d.arrows == ((1, 3),)

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("black 1", "missing 'type'"),
            ("type A2\ntype A2", "malformed type"),
            ("type A2\narrow 1", "malformed arrow"),
            ("type A2\ncolour 1", "unknown directive"),
            ("type A2\nblack x", "invalid literal for int"),
            ("type A2\narrow 1 y", "invalid literal for int"),
            ("type Z3", "unknown series 'Z'"),
            ("type E9", "invalid rank 9 for series E"),
        ],
    )
    def test_parse_errors(self, text, msg):
        with pytest.raises(DiagramError, match=msg):
            parse_diagram(text)

    def test_validation(self):
        a5 = build_root_system("A", 5)
        with pytest.raises(DiagramError, match="out of range"):
            make_diagram(a5, black={6})
        with pytest.raises(DiagramError, match="out of range"):
            make_diagram(a5, arrows=[(0, 1)])
        with pytest.raises(DiagramError, match="distinct"):
            make_diagram(a5, arrows=[(2, 2)])
        with pytest.raises(DiagramError, match="black"):
            make_diagram(a5, black={1}, arrows=[(1, 3)])
        with pytest.raises(DiagramError, match="more than one arrow"):
            make_diagram(a5, arrows=[(1, 2), (2, 3)])

    def test_arrow_normalization(self):
        a5 = build_root_system("A", 5)
        d = make_diagram(a5, arrows=[(5, 1), (4, 2)])
        assert d.arrows == ((1, 5), (2, 4))
        assert d.arrow_partner(5) == 1
        assert d.arrow_partner(3) == 3


# ---------------------------------------------------------------------------
# the involution

def theta_by_search(d, i):
    """theta(alpha_i) by search: a black vertex is fixed; a white vertex
    goes to minus the highest positive root with coefficient one at the
    arrow partner and the rest of its support black, which must be the
    unique maximal such root."""
    if i in d.black:
        return simple_root(d.system, i)
    partner = d.arrow_partner(i)
    candidates = [
        beta
        for beta in d.system.positive_roots
        if beta[partner - 1] == 1
        and all(c == 0 or j + 1 in d.black or j + 1 == partner for j, c in enumerate(beta))
    ]
    maximal = [
        b
        for b in candidates
        if not any(o != b and all(x >= y for x, y in zip(o, b)) for o in candidates)
    ]
    assert len(maximal) == 1, (d, i, maximal)
    return -maximal[0]


def probe_diagrams():
    """Every black subset of every probe label, with up to two disjoint
    arrows among the whites when there are at most four of them."""
    for label in PROBE_LABELS:
        system = build_root_system(label)
        vertices = range(1, system.rank + 1)
        for size in range(system.rank + 1):
            for black in itertools.combinations(vertices, size):
                whites = [v for v in vertices if v not in black]
                pairings = [()]
                if len(whites) <= 4:
                    pairs = list(itertools.combinations(whites, 2))
                    pairings += [(p,) for p in pairs]
                    pairings += [
                        (p, q) for p, q in itertools.combinations(pairs, 2)
                        if not set(p) & set(q)
                    ]
                for arrows in pairings:
                    yield make_diagram(system, set(black), arrows)


class TestTheta:
    def test_black_vertices_fixed(self):
        d = catalog_diagram("PGL6-PSp6")
        for i in (1, 3, 5):
            assert theta_of_simple(d, i) == simple_root(d.system, i)

    def test_compact_pair_images(self):
        d = catalog_diagram("PGL6-PSp6")
        assert theta_of_simple(d, 2) == Root((-1, -1, -1, 0, 0))
        assert theta_of_simple(d, 4) == Root((0, 0, -1, -1, -1))

    def test_arrowed_images(self):
        d = catalog_diagram("PGL3-GL2")
        assert theta_of_simple(d, 1) == Root((0, -1))
        assert theta_of_simple(d, 2) == Root((-1, 0))

    def test_long_end_image(self):
        d = catalog_diagram("PSO7-SO6")
        assert theta_of_simple(d, 1) == Root((-1, -2, -2))

    def test_split_is_negation(self):
        d = catalog_diagram("split-A2")
        for i in (1, 2):
            assert theta_of_simple(d, i) == -simple_root(d.system, i)

    def test_index_out_of_range(self):
        d = catalog_diagram("split-A1")
        with pytest.raises(IndexError):
            theta_of_simple(d, 2)

    def test_araki_formula_matches_root_search(self):
        # theta = -w_black o p against the highest-root search, on every
        # vertex of every probe diagram, valid Satake diagram or not
        start = time.perf_counter()
        images = 0
        for d in probe_diagrams():
            for i in range(1, d.system.rank + 1):
                assert theta_of_simple(d, i) == theta_by_search(d, i), (d, i)
                images += 1
        assert images == 4108
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_involution_properties(self, name):
        d = catalog_diagram(name)
        mat = theta_matrix(d)
        n = d.system.rank
        # squares to the identity
        for i in range(n):
            for j in range(n):
                assert sum(mat[i][k] * mat[k][j] for k in range(n)) == (i == j)
        # permutes the roots
        for beta in d.system.positive_roots:
            image = apply_theta(d, beta)
            assert image in all_roots(d.system)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_phi_split_counts(self, name):
        d = catalog_diagram(name)
        phi0, phi1_plus = phi_split(d)
        assert (len(phi0), len(phi1_plus)) == PHI_SPLIT_GOLDEN[name]
        # the fixed part is closed under negation and pointwise fixed
        for r in phi0:
            assert apply_theta(d, r) == r
            assert (-r) in phi0
        # the rest is genuinely moved into the negative span direction
        for r in phi1_plus:
            assert apply_theta(d, r) != r


# ---------------------------------------------------------------------------
# restricted systems

class TestRestrictedSystem:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_golden_data(self, name):
        rs = restricted_system(catalog_diagram(name))
        label, classes, fam_sizes, gammas, mats = RESTRICTED_GOLDEN[name]
        assert rs.type_label == label
        assert rs.classes == classes
        assert tuple(len(f) for f in rs.families) == fam_sizes
        assert tuple(g.coords for g in rs.gammas) == gammas
        assert criterion_matrices(rs) == mats
        assert rs.nonreduced == label.startswith("BC")

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_families_restrict_onto_their_class(self, name):
        d = catalog_diagram(name)
        rs = restricted_system(d)
        for gamma, family in zip(rs.gammas, rs.families):
            for alpha in family:
                doubled = alpha - apply_theta(d, alpha)
                assert doubled == gamma

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_reduced_matrices_equal_restricted_cartan(self, name):
        rs = restricted_system(catalog_diagram(name))
        if rs.nonreduced:
            return
        assert criterion_matrices(rs) == (rs.cartan,)

    def test_compact_pair_family_membership(self):
        rs = restricted_system(catalog_diagram("PGL6-PSp6"))
        slot2 = {r.coords for r in rs.families[0]}
        assert slot2 == {
            (0, 1, 0, 0, 0),
            (1, 1, 0, 0, 0),
            (0, 1, 1, 0, 0),
            (1, 1, 1, 0, 0),
        }
        choices = list(family_choices(rs))
        assert len(choices) == 16
        assert all(m == A2_CARTAN for _, m in choices)

    def test_row_halving_for_negated_roots(self):
        d = catalog_diagram("PSO5-SO4")
        rs = restricted_system(d)
        fixed = [a for a in rs.families[0] if apply_theta(d, a) == -a]
        assert [a.coords for a in fixed] == [(1, 1)]
        for choice, mat in family_choices(rs):
            assert mat == ((2,),)

    def test_no_white_vertices(self):
        a2 = build_root_system("A", 2)
        with pytest.raises(DiagramError, match="no white vertices"):
            restricted_system(make_diagram(a2, black={1, 2}))


# ---------------------------------------------------------------------------
# colorings that define an involution but no symmetric space

class TestInvalidColorings:
    def test_alternating_a5(self):
        a5 = build_root_system("A", 5)
        d = make_diagram(a5, black={2, 4})
        assert check_involution(d)
        assert theta_of_simple(d, 1) == Root((-1, -1, 0, 0, 0))
        phi0, phi1_plus = phi_split(d)
        assert (len(phi0), len(phi1_plus)) == (4, 13)
        with pytest.raises(DiagramError, match="not of symmetric-space type"):
            restricted_system(d)

    def test_single_black_a3(self):
        a3 = build_root_system("A", 3)
        d = make_diagram(a3, black={1})
        assert check_involution(d)
        with pytest.raises(DiagramError, match="not of symmetric-space type"):
            restricted_system(d)
