"""Tests for the Grassmannian cell and character-series machinery."""

import itertools
import random
from collections import Counter

import pytest

from wonderco.rootsys import (
    Root,
    Weight,
    act,
    longest_parabolic,
    root_to_weight,
    weyl_element,
)
from wonderco.schubert import (
    CSTAR_GRADING,
    GRASS_SYSTEM,
    LEVI,
    _cone_keys,
    cell_exponent,
    cell_for_fixed_point,
    closure_contains,
    component_cell,
    covering_cells,
    cousin_terms,
    enumerate_cells,
    kempf_character,
    kl_sets,
    one_line,
    swap_blocks_weight,
    unstable_character_bounds,
)

# printed inversion sets of the three cells at the unstable boundary, in
# simple-root coordinates
K_W = {(0, 1, 1, 0, 0), (0, 0, 1, 0, 0), (0, 0, 1, 1, 0), (0, 1, 1, 1, 0)}
L_W = {
    (1, 0, 0, 0, 0),
    (1, 1, 0, 0, 0),
    (0, 0, 0, 1, 1),
    (0, 0, 0, 0, 1),
    (1, 1, 1, 1, 1),
}
K_S1W = {
    (1, 0, 0, 0, 0),
    (1, 1, 1, 0, 0),
    (0, 0, 1, 0, 0),
    (1, 1, 1, 1, 0),
    (0, 0, 1, 1, 0),
}
L_S1W = {(0, 1, 0, 0, 0), (0, 0, 0, 1, 1), (0, 0, 0, 0, 1), (0, 1, 1, 1, 1)}
K_S5W = {
    (0, 1, 1, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 1, 1, 1, 1),
    (0, 0, 1, 1, 1),
    (0, 0, 0, 0, 1),
}
L_S5W = {(1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 0, 1, 0), (1, 1, 1, 1, 0)}

# the fixed-point poset of the first unstable stratum: ten nodes and
# thirteen cover relations
DIAGRAM_NODES = [
    (1, 2, 3),
    (1, 2, 4),
    (1, 3, 4),
    (1, 2, 5),
    (2, 3, 4),
    (1, 3, 5),
    (1, 2, 6),
    (2, 3, 5),
    (1, 3, 6),
    (2, 3, 6),
]
DIAGRAM_COVERS = {
    ((1, 2, 4), (1, 2, 3)),
    ((1, 3, 4), (1, 2, 4)),
    ((1, 2, 5), (1, 2, 4)),
    ((2, 3, 4), (1, 3, 4)),
    ((1, 3, 5), (1, 3, 4)),
    ((1, 2, 6), (1, 2, 5)),
    ((1, 3, 5), (1, 2, 5)),
    ((2, 3, 5), (2, 3, 4)),
    ((2, 3, 5), (1, 3, 5)),
    ((1, 3, 6), (1, 3, 5)),
    ((1, 3, 6), (1, 2, 6)),
    ((2, 3, 6), (2, 3, 5)),
    ((2, 3, 6), (1, 3, 6)),
}


def f1_cell():
    return component_cell("F1")


def boundary_cells():
    top = f1_cell()
    s1w = weyl_element(GRASS_SYSTEM, (1,) + top.w.word)
    s5w = weyl_element(GRASS_SYSTEM, (5,) + top.w.word)
    return s1w, s5w


def numerator_weight(w, k):
    num = cell_exponent(w, k)
    for alpha in kl_sets(w).K:
        num = num + root_to_weight(GRASS_SYSTEM, alpha)
    return num


def offsets_of(s):
    """A series' stored terms keyed by offset tuples."""
    return dict(zip(zip(*s._columns()), s.packed.values()))


def brute_offsets(w, k, window, cutoff):
    """The Kempf series offsets by direct convolution: every denominator
    root is folded in as a full geometric factor, stopping each run where
    the height passes the cutoff or the degree the window top, then terms
    below the window floor are dropped."""
    base = CSTAR_GRADING.degree(numerator_weight(w, k))
    combos = {(0, 0, 0, 0, 0): 1}
    for beta in kl_sets(w).J:
        new = {}
        for off, m in combos.items():
            t = 0
            while True:
                key = tuple(off[i] + t * beta.coords[i] for i in range(5))
                if sum(key) > cutoff or base + 2 * key[2] > window[1]:
                    break
                new[key] = new.get(key, 0) + m
                t += 1
        combos = new
    return {
        key: m
        for key, m in combos.items()
        if window[0] <= base + 2 * key[2] <= window[1]
    }


def weight_space_bounds(component, k, window, cutoff):
    """Stratum bounds by subtraction in weight space: every covering-cell
    series is read off to weights on its own, and the boundary characters
    are subtracted weight by weight from the open cell's."""
    lo, hi = window
    if component == "F2":
        k, window = -k, (-hi, -lo)
    top, *boundary = (
        kempf_character(cell.w, k, window, cutoff) for cell in covering_cells()
    )
    upper = top.terms()
    lower = dict(upper)
    for series in boundary:
        for w, m in series.terms().items():
            lower[w] = lower.get(w, 0) - m
    lower = {w: m for w, m in lower.items() if m > 0}
    if component == "F2":
        lower = {swap_blocks_weight(w): m for w, m in lower.items()}
        upper = {swap_blocks_weight(w): m for w, m in upper.items()}
    return lower, upper


def bruhat_leq(u, v):
    """Prefix-domination order on one-line permutations."""
    for i in range(1, len(u)):
        if any(a > b for a, b in zip(sorted(u[:i]), sorted(v[:i]))):
            return False
    return True


class TestCells:
    def test_twenty_cells(self):
        cells = enumerate_cells()
        assert len(cells) == 20
        assert len({c.fixed_point for c in cells}) == 20

    def test_fixed_points_are_all_subsets(self):
        got = {c.fixed_point for c in enumerate_cells()}
        assert got == set(itertools.combinations(range(1, 7), 3))

    def test_codim_distribution(self):
        # cell dimension equals the shifted sum of the fixed-point subset,
        # so the codimension counts match the subset-sum statistics
        want = Counter(
            9 - (sum(s) - 6) for s in itertools.combinations(range(1, 7), 3)
        )
        got = Counter(c.codim for c in enumerate_cells())
        assert got == want

    def test_closed_point_and_open_cell(self):
        closed = cell_for_fixed_point((1, 2, 3))
        assert closed.codim == 9
        assert closed.w.word == ()
        assert cell_for_fixed_point((4, 5, 6)).codim == 0

    def test_codim_is_complement_of_length(self):
        for c in enumerate_cells():
            assert c.codim == 9 - len(c.w)
            assert c.codim == 9 - (sum(c.fixed_point) - 6)

    def test_one_line_matches_weight_action(self):
        # the permutation computed from the word agrees with the action on
        # the coordinate-line weights
        def eps(i):
            c = [0] * 5
            if i <= 5:
                c[i - 1] += 1
            if i >= 2:
                c[i - 2] -= 1
            return Weight(tuple(c))

        for cell in enumerate_cells():
            perm = one_line(cell.w)
            for i in range(1, 7):
                assert act(cell.w, eps(i)) == eps(perm[i - 1])

    def test_representatives_sort_each_block(self):
        for c in enumerate_cells():
            perm = one_line(c.w)
            assert list(perm[:3]) == sorted(perm[:3])
            assert list(perm[3:]) == sorted(perm[3:])

    def test_unknown_fixed_point(self):
        with pytest.raises(ValueError, match="3-subset"):
            cell_for_fixed_point((1, 2, 7))

    def test_sorted_by_dimension(self):
        codims = [c.codim for c in enumerate_cells()]
        assert codims == sorted(codims, reverse=True)


class TestComponentCell:
    def test_f1_cell(self):
        cell = f1_cell()
        assert cell.fixed_point == (2, 3, 6)
        assert cell.codim == 4
        assert cell.w == weyl_element(GRASS_SYSTEM, (5, 4, 1, 2, 3))

    def test_f2_has_no_cell(self):
        with pytest.raises(ValueError, match="no cell closure"):
            component_cell("F2")

    def test_closure_is_the_first_stratum(self):
        # the cells inside the closure are exactly those whose coordinate
        # plane meets the first block in dimension at least 2
        top = f1_cell()
        inside = {
            c.fixed_point
            for c in enumerate_cells()
            if closure_contains(top, c)
        }
        want = {
            s
            for s in itertools.combinations(range(1, 7), 3)
            if sum(1 for i in s if i <= 3) >= 2
        }
        assert inside == want
        assert len(inside) == 10

    def test_boundary_cells(self):
        s1w, s5w = boundary_cells()
        cells = enumerate_cells()
        assert next(c for c in cells if c.w == s1w).fixed_point == (1, 3, 6)
        assert next(c for c in cells if c.w == s5w).fixed_point == (2, 3, 5)

    def test_covering_cells(self):
        top, *rest = covering_cells()
        assert top == f1_cell()
        assert len(rest) == 2
        assert {c.w for c in rest} == set(boundary_cells())


class TestClosureOrder:
    def test_matches_prefix_domination(self):
        cells = enumerate_cells()
        for a in cells:
            for b in cells:
                assert closure_contains(a, b) == bruhat_leq(
                    one_line(b.w), one_line(a.w)
                )

    def test_covers_are_graded(self):
        cells = enumerate_cells()
        for a in cells:
            for b in cells:
                if a == b or not closure_contains(a, b):
                    continue
                strict_between = [
                    c
                    for c in cells
                    if c not in (a, b)
                    and closure_contains(a, c)
                    and closure_contains(c, b)
                ]
                if not strict_between:
                    assert b.codim == a.codim + 1

    def test_stratum_diagram_embeds(self):
        cells = {c.fixed_point: c for c in enumerate_cells()}
        covers = set()
        for x in DIAGRAM_NODES:
            for y in DIAGRAM_NODES:
                if x == y or not closure_contains(cells[x], cells[y]):
                    continue
                between = [
                    z
                    for z in DIAGRAM_NODES
                    if z not in (x, y)
                    and closure_contains(cells[x], cells[z])
                    and closure_contains(cells[z], cells[y])
                ]
                if not between:
                    covers.add((x, y))
        assert covers == DIAGRAM_COVERS

    def test_top_of_diagram(self):
        cells = {c.fixed_point: c for c in enumerate_cells()}
        top = f1_cell()
        for node in DIAGRAM_NODES:
            assert closure_contains(top, cells[node])


class TestInversionData:
    def test_printed_sets(self):
        s1w, s5w = boundary_cells()
        cases = [
            (f1_cell().w, K_W, L_W),
            (s1w, K_S1W, L_S1W),
            (s5w, K_S5W, L_S5W),
        ]
        for w, want_k, want_l in cases:
            data = kl_sets(w)
            assert {r.coords for r in data.K} == want_k
            assert {r.coords for r in data.L} == want_l

    def test_sizes_and_disjointness(self):
        for c in enumerate_cells():
            data = kl_sets(c.w)
            assert len(data.K) + len(data.L) == 9
            assert len(data.J) == 9
            assert not set(data.K) & set(data.L)
            for r in data.J:
                assert all(x >= 0 for x in r.coords)

    def test_identity_keeps_all(self):
        data = kl_sets(weyl_element(GRASS_SYSTEM, ()))
        assert len(data.K) == 9
        assert data.L == ()

    def test_open_cell_flips_all(self):
        cell = cell_for_fixed_point((4, 5, 6))
        data = kl_sets(cell.w)
        assert data.K == ()
        assert len(data.L) == 9

    def test_k_size_tracks_codim(self):
        # each kept root is a coordinate pair not inverted by the cell
        for c in enumerate_cells():
            assert len(kl_sets(c.w).K) == c.codim

    def test_rejects_non_minimal_words(self):
        with pytest.raises(ValueError, match="minimal coset"):
            kl_sets(weyl_element(GRASS_SYSTEM, (1,)))


class TestCellExponent:
    def test_three_printed_exponents(self):
        s1w, s5w = boundary_cells()
        for k in range(0, 5):
            assert cell_exponent(f1_cell().w, k) == Weight(
                (-k, 0, k, 0, -k)
            )
            assert cell_exponent(s1w, k) == Weight((k, -k, k, 0, -k))
            assert cell_exponent(s5w, k) == Weight((-k, 0, k, -k, k))

    def test_identity_exponent_fixed_by_levi(self):
        ident = weyl_element(GRASS_SYSTEM, ())
        assert cell_exponent(ident, 3) == Weight((0, 0, 3, 0, 0))

    def test_numerator_degree_is_shifted(self):
        s1w, s5w = boundary_cells()
        for k in range(0, 4):
            for w in (f1_cell().w, s1w, s5w):
                num = numerator_weight(w, k)
                assert CSTAR_GRADING.degree(num) == k + 8


class TestGrading:
    def test_degree_values(self):
        g = CSTAR_GRADING
        assert g.degree(Weight((0, 0, 1, 0, 0))) == 3
        assert g.degree(Weight((1, 0, 0, 0, 0))) == 1
        assert g.degree(Weight((-1, 0, 1, 0, -1))) == 1

    def test_root_degrees_count_middle_node(self):
        g = CSTAR_GRADING
        for r in GRASS_SYSTEM.positive_roots:
            degree = sum(d * c for d, c in zip(g.simple_root_degrees, r.coords))
            assert degree == 2 * r.coords[2]


class TestKempfSeries:
    def test_min_degree(self):
        for k in range(0, 5):
            s = kempf_character(f1_cell().w, k, (k, k + 14))
            assert min(CSTAR_GRADING.degree(w) for w in s.terms()) == k + 8

    def test_leading_multiplicity(self):
        for k in (0, 2):
            s = kempf_character(f1_cell().w, k, (k, k + 14))
            assert s.multiplicity(numerator_weight(f1_cell().w, k)) == 1

    def test_positivity(self):
        s = kempf_character(f1_cell().w, 1, (1, 13))
        assert offsets_of(s)
        assert all(m > 0 for m in offsets_of(s).values())

    def test_empty_below_support(self):
        s = kempf_character(f1_cell().w, 2, (0, 7))
        assert offsets_of(s) == {}
        assert s.window == (0, 7)

    def test_matches_brute_convolution(self):
        # one fixed F1 case at an odd cutoff, then two cases per cell with
        # windows relative to the level: wide, single-grade, reaching below
        # the numerator degree, and wholly below the support
        shapes = [
            lambda k: (k, k + 14),
            lambda k: (k + 9, k + 9),
            lambda k: (k - 6, k + 10),
            lambda k: (k - 20, k - 4),
        ]
        levels = (-9, -4, -1, 2, 5)
        cases = [(f1_cell().w, 1, (1, 11), 7)]
        for i, cell in enumerate(enumerate_cells()):
            for j in (i, i + 7):
                k = levels[j % len(levels)]
                window = shapes[j % len(shapes)](k)
                cases.append((cell.w, k, window, (6, 12)[j % 2]))
        seen = set()
        for w, k, window, cutoff in cases:
            want = brute_offsets(w, k, window, cutoff)
            got = kempf_character(w, k, window, cutoff)
            assert got.window == window
            assert got.height_cutoff == cutoff
            assert got.numerator_exponent == numerator_weight(w, k)
            assert got.denominator == tuple(
                sorted(kl_sets(w).J, key=lambda r: r.coords)
            )
            assert offsets_of(got) == want
            base = CSTAR_GRADING.degree(got.numerator_exponent)
            seen.add(("negative k", k < 0))
            seen.add(("single grade", window[0] == window[1]))
            seen.add(("floor below base", window[0] < base <= window[1]))
            seen.add(("terms", bool(want)))
            seen.add(("cutoff", cutoff))
        for kind in ("negative k", "single grade", "floor below base", "terms"):
            assert (kind, True) in seen and (kind, False) in seen
        assert {("cutoff", 6), ("cutoff", 12)} <= seen

    def test_slice_below_floor_is_empty(self):
        s = kempf_character(f1_cell().w, 2, (2, 16))
        degrees = {CSTAR_GRADING.degree(w) for w in s.terms()}
        assert degrees and min(degrees) > 9

    def test_cone_ignores_root_order(self):
        # the fold sorts its roots itself, so every order of a cell's J set
        # gives the same terms, on windows whose floor sits at the
        # numerator degree, above it, and on a single grade
        rng = random.Random(18)
        base, cutoff = 3, 9
        windows = [(base, base + 8), (base + 2, base + 8), (base + 4, base + 8)]
        windows.append((base + 4, base + 4))
        for cell in enumerate_cells():
            roots = kl_sets(cell.w).J
            for lo, hi in windows:
                bits, want = _cone_keys(roots, base, (lo, hi), cutoff)
                shift = bits * GRASS_SYSTEM.rank
                assert all(lo <= base + (x >> shift) <= hi for x in want)
                for _ in range(3):
                    shuffled = rng.sample(roots, len(roots))
                    got = _cone_keys(tuple(shuffled), base, (lo, hi), cutoff)
                    assert got == (bits, want), (cell.fixed_point, (lo, hi))

    def test_cone_without_roots(self):
        for window, want in (((2, 5), {0: 1}), ((3, 5), {}), ((0, 1), {})):
            assert _cone_keys((), 2, window, 6) == (3, want)

    def test_rejects_negative_degree_root(self):
        # no cell denominator has one; the guard keeps the expansion from
        # certifying a window that terms below the floor could reach
        with pytest.raises(AssertionError, match="negative-degree"):
            _cone_keys((Root((0, 0, -1, 0, 0)),), 0, (0, 4), 6)

    def test_cached_series_is_read_only(self):
        w = f1_cell().w
        s = kempf_character(w, 1, (1, 13))
        before = offsets_of(s)
        packed = dict(s.packed)
        with pytest.raises(TypeError):
            s.packed[0] = 7
        with pytest.raises(TypeError):
            del s.packed[next(iter(packed))]
        fields = {"window": (0, 0), "packed": {}, "bits": 1}
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(s, name, value)
        again = kempf_character(w, 1, (1, 13))
        assert offsets_of(again) == before
        assert again.packed == packed
        assert again == kempf_character.__wrapped__(w, 1, (1, 13))

    def test_weight_columns_of_a_column_subset(self):
        # every third term's offset columns give exactly those terms'
        # weights, although the series holds three times as many terms
        s = kempf_character(f1_cell().w, -3, (5, 15))
        cols = s._columns()
        picked = range(0, len(s.packed), 3)
        sub = [[col[i] for i in picked] for col in cols]
        weights = list(map(Weight, zip(*s._weight_columns(sub))))
        terms = list(s.terms())
        assert len(s.packed) > 3 * len(weights) - 3 > 100
        assert weights == [terms[i] for i in picked]

    def test_negative_level_narrow_window(self):
        # the numerator degree sits below the requested floor, so the
        # expansions must certify past the window top for the product to
        # still cover it
        w = f1_cell().w
        narrow = kempf_character(w, -12, (0, 0))
        wide = kempf_character(w, -12, (-4, 4))
        assert narrow.window == (0, 0)
        sliced = {
            wt: m
            for wt, m in wide.terms().items()
            if CSTAR_GRADING.degree(wt) == 0
        }
        assert narrow.terms() == sliced
        assert narrow.terms()


class TestBlockSwap:
    def test_matches_weyl_element(self):
        sigma = longest_parabolic(GRASS_SYSTEM, {1, 2, 3, 4, 5}) * (
            longest_parabolic(GRASS_SYSTEM, LEVI)
        )
        for coords in [
            (1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0),
            (1, -2, 3, 0, 1),
            (2, 1, -1, 4, 0),
        ]:
            mu = Weight(coords)
            assert swap_blocks_weight(mu) == act(sigma, mu)

    def test_negates_middle_weight(self):
        assert swap_blocks_weight(Weight((0, 0, 5, 0, 0))) == Weight(
            (0, 0, -5, 0, 0)
        )

    def test_involution(self):
        mu = Weight((3, -1, 2, 0, 4))
        assert swap_blocks_weight(swap_blocks_weight(mu)) == mu

    def test_negates_degree(self):
        for coords in [(1, 2, 3, 4, 5), (0, 1, -1, 2, 0)]:
            mu = Weight(coords)
            assert CSTAR_GRADING.degree(
                swap_blocks_weight(mu)
            ) == -CSTAR_GRADING.degree(mu)


class TestUnstableBounds:
    def test_leading_weight_is_pinned(self):
        for k in range(0, 4):
            lower, upper = unstable_character_bounds("F1", k, (k, k + 12))
            lead = numerator_weight(f1_cell().w, k)
            assert upper.terms.get(lead, 0) == 1
            assert lower.terms.get(lead, 0) == 1

    def test_f1_floor(self):
        for k in range(0, 4):
            lower, upper = unstable_character_bounds("F1", k, (k, k + 12))
            degs = [CSTAR_GRADING.degree(w) for w in upper.terms]
            assert degs and min(degs) == k + 8
            for w, m in lower.terms.items():
                assert 0 <= m <= upper.terms.get(w, 0)

    def test_f2_ceiling(self):
        for k in range(0, 4):
            lower, upper = unstable_character_bounds("F2", k, (k - 12, k))
            degs = [CSTAR_GRADING.degree(w) for w in upper.terms]
            assert degs and max(degs) == k - 8

    def test_f2_leading_weight(self):
        k = 2
        lower, upper = unstable_character_bounds("F2", k, (k - 12, k))
        lead = swap_blocks_weight(numerator_weight(f1_cell().w, -k))
        assert upper.terms.get(lead, 0) == 1
        assert lower.terms.get(lead, 0) == 1

    def test_strata_cannot_both_reach_a_degree(self):
        # the first stratum lives in degrees >= k+8, the second in
        # degrees <= k-8; no degree satisfies both
        k = 3
        _, up1 = unstable_character_bounds("F1", k, (k, k + 12))
        _, up2 = unstable_character_bounds("F2", k, (k - 12, k))
        d1 = {CSTAR_GRADING.degree(w) for w in up1.terms}
        d2 = {CSTAR_GRADING.degree(w) for w in up2.terms}
        assert not d1 & d2

    def test_unknown_component(self):
        with pytest.raises(ValueError, match="unknown component"):
            unstable_character_bounds("F3", 0, (0, 10))

    @pytest.mark.parametrize(
        "cutoff,near,widths",
        [
            (6, range(-9, 10), (10, 40)),
            (7, range(-9, 10), ()),
            (12, range(-9, 10), (10,)),
            (15, range(-9, 10, 6), ()),
            (17, range(-9, 10), ()),
        ],
        ids=["cutoff6", "cutoff7", "cutoff12", "cutoff15", "cutoff17"],
    )
    def test_matches_weight_space_subtraction(self, cutoff, near, widths):
        # single grades from each stratum's degree edge inward, as the
        # cross-check reads them at cutoffs up to 17, and the wide windows
        # of the bounds queries where they cost well under a second a
        # level; cutoff 15 takes every sixth near level to save time.
        # Level -3 is the one level where the three numerators coincide.
        # A boundary numerator sits k + 3 along the first or last simple
        # root from the open cell's, so the far levels shift a key field by
        # more than it holds: by 256 at levels 253 and -259 (-253 and 259
        # for the mirror), a whole number of spans of any field up to 8
        # bits wide.  At cutoffs 7 and 15 the cutoff fills its field.
        far = (-300, -259, -253, -40, 40, 253, 259, 300)
        for comp, sign in (("F1", 1), ("F2", -1)):
            for k in (*near, *far):
                edge = k + sign * 8
                windows = [(edge + sign * j,) * 2 for j in (0, 4)]
                if k in near:
                    windows += [tuple(sorted((k, k + sign * w))) for w in widths]
                for window in windows:
                    lower, upper = unstable_character_bounds(comp, k, window, cutoff)
                    want_lower, want_upper = weight_space_bounds(
                        comp, k, window, cutoff
                    )
                    assert upper.terms == want_upper, (comp, k, window)
                    assert lower.terms == want_lower, (comp, k, window)


class TestCousinTerms:
    def test_depth_zero_is_the_cell(self):
        w = f1_cell().w
        ((term,),) = cousin_terms(w, 1, 0, (1, 12))
        assert term == kempf_character(w, 1, (1, 12))

    def test_first_boundary_terms(self):
        w = f1_cell().w
        window = (1, 12)
        terms = cousin_terms(w, 1, 1, window)
        assert len(terms) == 2
        merged, summed = Counter(), Counter()
        for v in boundary_cells():
            merged.update(kempf_character(v, 1, window).terms())
        assert len(terms[1]) == 2
        for member in terms[1]:
            summed.update(member.terms())
        assert summed == merged

    def test_bottom_cell_stops(self):
        w = cell_for_fixed_point((1, 2, 3)).w
        terms = cousin_terms(w, 0, 3, (0, 10))
        assert len(terms) == 1
        assert len(terms[0]) == 1

    def test_open_cell_reaches_every_codim(self):
        # every cell lies in the open cell's closure, and each group's
        # degree floor is the smallest numerator degree among its cells
        w = cell_for_fixed_point((4, 5, 6)).w
        terms = cousin_terms(w, 0, 9, (0, 8), height_cutoff=6)
        assert len(terms) == 10
        for j, group in enumerate(terms):
            floors = [
                CSTAR_GRADING.degree(numerator_weight(c.w, 0))
                for c in enumerate_cells()
                if c.codim == j
            ]
            degrees = [CSTAR_GRADING.degree(v) for s in group for v in s.terms()]
            if min(floors) <= 8:
                assert min(degrees) == min(floors)
            else:
                assert degrees == []

    def test_open_cell_groups_are_cached_cell_series(self):
        # the groups partition the 20 cells by codimension, each member is
        # the cell's cached series, and a member is complete from its window
        # floor: widening the floor by 6 and dropping what lies below the
        # old floor gives it back, also where the floor is below its base
        w = cell_for_fixed_point((4, 5, 6)).w
        k, cutoff = 2, 6
        below_base = dropped = 0
        for lo, hi in ((-2, 8), (9, 12)):
            groups = cousin_terms(w, k, 9, (lo, hi), cutoff)
            assert len(groups) == 10
            assert sum(map(len, groups)) == len(enumerate_cells()) == 20
            for j, group in enumerate(groups):
                cells = [c for c in enumerate_cells() if c.codim == j]
                assert len(group) == len(cells)
                for cell, member in zip(cells, group):
                    assert member is kempf_character(cell.w, k, (lo, hi), cutoff)
                    wide = kempf_character(cell.w, k, (lo - 6, hi), cutoff).terms()
                    kept = {
                        v: m for v, m in wide.items() if CSTAR_GRADING.degree(v) >= lo
                    }
                    assert member.terms() == kept
                    below_base += lo < CSTAR_GRADING.degree(member.numerator_exponent)
                    dropped += len(wide) > len(kept)
        assert below_base and dropped

    def test_negative_depth(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cousin_terms(f1_cell().w, 0, -1, (0, 10))
