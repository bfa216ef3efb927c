"""Tests for line-bundle cohomology on the compactified group."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wonderco.charring import Character, weyl_character, weyl_dimension
from wonderco.gitgrass import sheaf_correspondence
from wonderco.rootsys import Weight, build_root_system, root_lattice_coords
from wonderco.schubert import (
    CSTAR_GRADING,
    GRASS_SYSTEM,
    _numerator,
    covering_cells,
    kempf_character,
    swap_blocks_weight,
)
from wonderco.wondercoh import (
    _DEFAULT_CROSS_CUTOFF,
    BoxTooSmallError,
    CrossCheckReport,
    SphericalData,
    _auto_height_cutoff,
    _binding_cell,
    _dual_module_character,
    _required_radius,
    _shell_clear,
    _sign_pattern_ranges,
    cross_validate_h3,
    h_character,
    serre_dual_check,
    spanning_weight,
    spherical_data,
    tchoudjem_components,
    vanishing_profile,
)
from cross_h3_reference import every_series_certified, reference_cross_h3
from weyl_descent import dominant_conjugate, weight_to_root

A5 = build_root_system("A5")


def diag(a1, a2):
    return Weight((a1, a2, a1, a2))


def negated(ch):
    """The terms of the dual module's character: every weight negated."""
    return {-w: m for w, m in ch.terms.items()}


def oracle_components(a1, a2, i):
    """Independent enumeration in block coordinates.

    Works entirely with the pair (p, q) = shifted pairing values: a signed
    offset (t1, t2) contributes when p = a1+1+2t1-t2 and q = a2+1-t1+2t2
    match the offset signs, (p, q, p+q) avoids zero, and twice the number
    of negatives among (p, q, p+q) plus the number of positive offsets
    equals the degree.  The box is scanned brute force, two layers past
    the module's own certified radius.
    """
    radius = 3 * (1 + abs(a1) + abs(a2)) + 2
    out = []
    for t1 in range(-radius, radius + 1):
        for t2 in range(-radius, radius + 1):
            p = a1 + 1 + 2 * t1 - t2
            q = a2 + 1 - t1 + 2 * t2
            if p == 0 or q == 0 or p + q == 0:
                continue
            if (t1 >= 1) != (p < 0) or (t2 >= 1) != (q < 0):
                continue
            crossed = (p < 0) + (q < 0)
            length = 2 * ((p < 0) + (q < 0) + (p + q < 0))
            if length + crossed != i:
                continue
            x, y = p, q
            while x < 0 or y < 0:
                if x < 0:
                    x, y = -x, x + y
                else:
                    x, y = x + y, -y
            out.append((x - 1, y - 1, x - 1, y - 1))
    return sorted(out)


def descent_components(lam):
    """Second oracle: Weyl descent on the four-coordinate weights.

    Each candidate lam + t1 g1 + t2 g2 + rho is built in ``Weight``
    arithmetic, moved to the dominant chamber of the doubled system by
    ``dominant_conjugate``, and tested against the boundary classes by the
    invariant pairing through their simple-root coordinates.  Only the
    candidate offsets come from the module, and sharing them is sound:
    ``test_sign_pattern_ranges_cover_every_valid_offset`` checks, in plain
    (p, q) arithmetic, that they hold every valid offset of each bundle
    this oracle is run on.  Returns {degree: sorted highest-weight
    coordinates}.
    """
    data = spherical_data()
    g1, g2 = data.sigma_x
    gamma_roots = []
    for g in data.sigma_x:
        coords = weight_to_root(data.lattice, g)
        assert all(c.denominator == 1 for c in coords)
        gamma_roots.append([int(c) for c in coords])

    def pairing(nu, k):
        return sum(c * f for c, f in zip(gamma_roots[k], nu.coords))

    a1, a2 = lam.coords[:2]
    out = {}
    for t1, t2 in _sign_pattern_ranges(a1, a2):
        nu = lam + g1.scale(t1) + g2.scale(t2) + data.rho
        plus, _, length, regular = dominant_conjugate(data.lattice, nu)
        if not regular:
            continue
        if (t1 >= 1) != (pairing(nu, 0) < 0) or (
            (t2 >= 1) != (pairing(nu, 1) < 0)
        ):
            continue
        degree = length + (t1 >= 1) + (t2 >= 1)
        out.setdefault(degree, []).append((plus - data.rho).coords)
    return {i: sorted(ws) for i, ws in out.items()}


class TestSphericalData:
    def test_boundary_classes(self):
        data = spherical_data()
        assert [g.coords for g in data.sigma_x] == [
            (2, -1, 2, -1),
            (-1, 2, -1, 2),
        ]

    def test_rho_and_dimension(self):
        data = spherical_data()
        assert data.rho.coords == (1, 1, 1, 1)
        assert data.dim_y == 8

    def test_canonical_shift(self):
        data = spherical_data()
        assert data.canonical_shift.coords == (3, 3, 3, 3)
        expect = data.rho + data.rho + data.sigma_x[0] + data.sigma_x[1]
        assert data.canonical_shift == expect

    def test_lattice_is_doubled(self):
        data = spherical_data()
        assert data.lattice.type_label == "A2xA2"
        assert data.lattice.rank == 4

    def test_frozen(self):
        data = spherical_data()
        assert isinstance(data, SphericalData)
        with pytest.raises(AttributeError):
            data.dim_y = 9


class TestSpanningWeight:
    def test_fundamental_pieces(self):
        assert spanning_weight(1, 0, 0, 0) == diag(1, 0)
        assert spanning_weight(0, 1, 0, 0) == diag(0, 1)

    def test_boundary_pieces(self):
        assert spanning_weight(0, 0, 1, 0) == diag(2, -1)
        assert spanning_weight(0, 0, 0, 1) == diag(-1, 2)

    def test_combination(self):
        assert spanning_weight(2, -1, 1, 3) == diag(2 + 2 - 3, -1 - 1 + 6)

    def test_always_block_diagonal(self):
        w = spanning_weight(3, -2, -1, 4)
        f = w.coords
        assert (f[0], f[1]) == (f[2], f[3])


class TestComponentEnumeration:
    def test_trivial_weight(self):
        assert tchoudjem_components(diag(0, 0), 0) == (diag(0, 0),)
        for i in range(1, 9):
            assert tchoudjem_components(diag(0, 0), i) == ()

    def test_fundamental_weight(self):
        assert tchoudjem_components(diag(1, 0), 0) == (diag(1, 0),)

    def test_second_power_collects_lower_term(self):
        assert tchoudjem_components(diag(2, 0), 0) == (
            diag(0, 1),
            diag(2, 0),
        )

    def test_interior_weight_contains_itself_once(self):
        comps = tchoudjem_components(diag(3, 2), 0)
        assert comps.count(diag(3, 2)) == 1

    def test_outside_cone_no_sections(self):
        assert tchoudjem_components(diag(-1, 0), 0) == ()

    def test_section_cone_criterion(self):
        # sections exist exactly on the cone spanned by the boundary
        # classes: both 2 a1 + a2 and a1 + 2 a2 nonnegative
        for a1 in range(-4, 5):
            for a2 in range(-4, 5):
                has = bool(tchoudjem_components(diag(a1, a2), 0))
                want = 2 * a1 + a2 >= 0 and a1 + 2 * a2 >= 0
                assert has == want, (a1, a2)

    def test_middle_degree_translate(self):
        comps = tchoudjem_components(diag(-4, 2), 3)
        assert comps == (diag(0, 0),)

    def test_all_components_dominant(self):
        for a1 in range(-5, 4):
            for a2 in range(-5, 4):
                for i in (0, 3, 5, 8):
                    for mu in tchoudjem_components(diag(a1, a2), i):
                        assert mu.is_dominant()

    def test_matches_independent_oracle(self):
        for a1 in range(-6, 5):
            for a2 in range(-6, 5):
                for i in range(0, 9):
                    got = [
                        w.coords
                        for w in tchoudjem_components(diag(a1, a2), i)
                    ]
                    assert got == oracle_components(a1, a2, i), (a1, a2, i)

    def test_matches_descent_oracle_on_coefficient_box(self):
        # every bundle of the radius-5 coefficient box (acceptance c7)
        bundles = {
            spanning_weight(*c)
            for c in itertools.product(range(-5, 6), repeat=4)
        }
        assert len(bundles) == 1041
        for lam in bundles:
            want = descent_components(lam)
            for i in range(0, 9):
                got = [w.coords for w in tchoudjem_components(lam, i)]
                assert got == want.get(i, []), (lam.coords, i)

    def test_sign_pattern_ranges_cover_every_valid_offset(self):
        # the offsets the descent oracle shares with the module, checked
        # against a brute-force scan of each coefficient-box bundle's
        # (a1, a2) = lam + b1 g1 + b2 g2 in block coordinates: the sign
        # constraints keep valid offsets within |a1| + |a2|, so the box
        # below has slack on every side
        pairs = {
            (a1 + 2 * b1 - b2, a2 - b1 + 2 * b2)
            for a1, a2, b1, b2 in itertools.product(range(-5, 6), repeat=4)
        }
        assert len(pairs) == 1041
        for a1, a2 in pairs:
            ranges = set(_sign_pattern_ranges(a1, a2))
            radius = abs(a1) + abs(a2) + 6
            for t1 in range(-radius, radius + 1):
                for t2 in range(-radius, radius + 1):
                    p = a1 + 1 + 2 * t1 - t2
                    q = a2 + 1 - t1 + 2 * t2
                    if p == 0 or q == 0 or p + q == 0:
                        continue
                    if (t1 >= 1) != (p < 0) or (t2 >= 1) != (q < 0):
                        continue
                    assert (t1, t2) in ranges, (a1, a2, t1, t2)

    def test_shell_scan_catches_candidate_outside_box(self):
        # (6, 6) needs radius 12; at radius 3 its valid offset (-4, -4)
        # lies on the first layer outside the box
        assert _required_radius(6, 6) == 12
        with pytest.raises(BoxTooSmallError, match=r"\(-4, -4\) just outside"):
            _shell_clear(6, 6, 3)
        _shell_clear(6, 6, 12)

    def test_non_diagonal_rejected(self):
        with pytest.raises(ValueError, match="block-diagonal"):
            tchoudjem_components(Weight((1, 0, 0, 1)), 0)

    def test_box_too_small(self):
        with pytest.raises(BoxTooSmallError, match="radius 3"):
            tchoudjem_components(diag(6, 6), 0, box=3)

    def test_exact_box_suffices(self):
        # the certified radius for (6, 6) is 12; at that box the answer
        # matches the default box
        assert tchoudjem_components(diag(6, 6), 0, box=12) == (
            tchoudjem_components(diag(6, 6), 0)
        )


class TestHCharacter:
    def test_trivial(self):
        assert h_character(diag(0, 0), 0) == Character({diag(0, 0): 1})

    def test_fundamental_is_dual_module(self):
        data = spherical_data()
        h = h_character(diag(1, 0), 0)
        assert h.terms == negated(weyl_character(data.lattice, diag(1, 0)))
        assert h.dimension() == 9

    def test_cached_characters_are_read_only(self):
        # the module characters are cached; no caller can write through a
        # returned character into the cache behind the next call
        data = spherical_data()
        cached = _dual_module_character(diag(1, 0))
        w = next(iter(cached.terms))
        with pytest.raises(TypeError):
            cached.terms[w] += 5
        with pytest.raises(AttributeError):
            cached.terms = {}
        assert h_character(diag(1, 0), 0).dimension() == 9
        expected = dict(weyl_character(data.lattice, diag(1, 0)).terms)
        ch = weyl_character(data.lattice, diag(1, 0))
        with pytest.raises(TypeError):
            ch.terms[diag(1, 0)] = 5
        with pytest.raises(AttributeError):
            ch.terms = {}
        assert weyl_character(data.lattice, diag(1, 0)).terms == expected

    def test_outside_cone_empty(self):
        assert h_character(diag(-1, 0), 0) == Character({})

    def test_middle_degree_trivial_module(self):
        assert h_character(diag(-4, 2), 3) == Character({diag(0, 0): 1})
        assert h_character(diag(1, -5), 5) == Character({diag(0, 0): 1})

    def test_middle_degree_nontrivial_module(self):
        data = spherical_data()
        h = h_character(diag(-4, 3), 3)
        assert h.terms == negated(weyl_character(data.lattice, diag(0, 1)))

    def test_top_degree_dimension(self):
        # dual to the sections of (1, 1): dimensions 64 + 1
        assert h_character(diag(-4, -4), 8).dimension() == 65

    def test_level_slices_fill_ambient_sections(self):
        # summing section dimensions over one level of the block
        # lattice recovers the ambient space of sections on 3-planes
        for k, third in ((1, 1), (2, 2)):
            lam = Weight(tuple(third * int(i == 2) for i in range(5)))
            total = sum(
                h_character(diag(a, k - a), 0).dimension()
                for a in range(-3 * k - 6, 3 * k + 7)
            )
            assert total == weyl_dimension(A5, lam)


class TestVanishingProfile:
    def test_dominant_interior(self):
        assert vanishing_profile(diag(2, 1)) == {0}
        assert vanishing_profile(diag(0, 0)) == {0}

    def test_middle_degrees(self):
        assert vanishing_profile(diag(-4, 2)) == {3}
        assert vanishing_profile(diag(2, -4)) == {3}
        assert vanishing_profile(diag(1, -5)) == {5}

    def test_deep_antidominant(self):
        assert vanishing_profile(diag(-4, -4)) == {8}

    def test_canonical_gap_all_vanish(self):
        # between the section cone and its dualized mirror nothing
        # survives in any degree
        assert vanishing_profile(diag(-1, -1)) == frozenset()
        assert vanishing_profile(diag(-2, 1)) == frozenset()

    def test_profile_subset_box(self):
        for a1 in range(-6, 7):
            for a2 in range(-6, 7):
                assert vanishing_profile(diag(a1, a2)) <= {0, 3, 5, 8}

    @given(st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=60, deadline=None)
    def test_profile_subset_random(self, a1, a2):
        assert vanishing_profile(diag(a1, a2)) <= {0, 3, 5, 8}


class TestSerreDuality:
    def test_trivial_pair(self):
        for i in (0, 3, 5, 8):
            assert serre_dual_check(diag(0, 0), i)

    def test_golden_pair_explicit(self):
        left = h_character(diag(-4, 2), 3)
        right = h_character(diag(1, -5), 5)
        assert left.terms == negated(right)

    def test_mirror_weights(self):
        shift = spherical_data().canonical_shift
        lam = diag(-4, 2)
        assert (-lam - shift).coords == (1, -5, 1, -5)

    def test_small_box_sweep(self):
        for a1 in range(-4, 2):
            for a2 in range(-4, 2):
                for i in (0, 3, 5, 8):
                    assert serre_dual_check(diag(a1, a2), i), (a1, a2, i)

    @given(st.integers(-5, 4), st.integers(-5, 4), st.sampled_from([0, 3, 5, 8]))
    @settings(max_examples=40, deadline=None)
    def test_random(self, a1, a2, i):
        assert serre_dual_check(diag(a1, a2), i)

    def test_matches_character_comparison(self):
        # the character-level comparison serre_dual_check replaces, kept as
        # its oracle: degree i against the negated character of degree
        # 8 - i of the mirror (the compactified group has dimension 8),
        # over every bundle of the radius-3 coefficient box
        shift = spherical_data().canonical_shift
        span = range(-3, 4)
        bundles = {spanning_weight(*c) for c in itertools.product(span, repeat=4)}
        disagree, fail = [], []
        for lam in sorted(bundles):
            mirror = -lam - shift
            for i in range(9):
                want = h_character(lam, i).terms == negated(h_character(mirror, 8 - i))
                if serre_dual_check(lam, i) != want:
                    disagree.append((lam.coords, i))
                if not want:
                    fail.append((lam.coords, i))
        assert len(bundles) == 385
        assert disagree == [] and fail == []

    def test_shift_without_boundary_classes_fails(self):
        # dropping the boundary classes from the dualizing twist breaks
        # the pairing already at the trivial bundle: degree 8 at the
        # naive mirror is empty
        assert h_character(diag(0, 0), 0)
        assert not h_character(diag(-2, -2), 8)
        assert h_character(diag(-3, -3), 8)


class TestCrossValidation:
    def test_profile_zero_weight(self):
        rep = cross_validate_h3(diag(1, 0))
        assert isinstance(rep, CrossCheckReport)
        assert rep.component is None
        assert rep.ok and rep.certified and rep.at_most_one
        assert rep.rows == ()
        assert (rep.k, rep.n) == (1, -1)

    def test_first_stratum_exact(self):
        rep = cross_validate_h3(diag(-4, 2))
        assert rep.component == "F1"
        assert (rep.k, rep.n) == (-2, 6)
        assert rep.ok
        assert rep.rows == ((Weight((0, 0, 2, 0, 0)), 1, 1, 1),)

    def test_mirror_stratum_exact(self):
        rep = cross_validate_h3(diag(2, -4))
        assert rep.component == "F2"
        assert (rep.k, rep.n) == (-2, -6)
        assert rep.ok
        assert rep.rows == ((Weight((0, 0, -2, 0, 0)), 1, 1, 1),)

    def test_nine_dimensional_module(self):
        rep = cross_validate_h3(diag(-4, 3))
        assert rep.component == "F1"
        assert rep.ok
        assert len(rep.rows) == 9
        assert all(low == found == up == 1 for _, low, found, up in rep.rows)
        assert all(CSTAR_GRADING.degree(nu) == rep.n for nu, *_ in rep.rows)

    def test_mirror_nine_dimensional_module(self):
        rep = cross_validate_h3(diag(3, -4))
        assert rep.component == "F2"
        assert rep.ok
        assert len(rep.rows) == 9
        assert all(low == found == up == 1 for _, low, found, up in rep.rows)

    def test_grade_matches_stratum_floor(self):
        # the smallest first-stratum example sits exactly on the
        # stratum's degree floor k + 8
        rep = cross_validate_h3(diag(-4, 2))
        assert rep.n == rep.k + 8

    def test_window_missing_grade_reported(self):
        rep = cross_validate_h3(diag(-4, 2), window=(0, 3))
        assert not rep.certified
        assert not rep.ok
        assert any("does not contain" in msg for msg in rep.issues)

    def test_wide_window_reports_single_grade_result(self):
        # only grade n is compared, so a window around it changes nothing
        # but the reported window
        cases = (((-4, 2), None), ((2, -4), None), ((-4, 4), 10), ((-5, -5), None))
        for ab, cutoff in cases:
            rep = cross_validate_h3(diag(*ab), height_cutoff=cutoff)
            wide = (rep.n - 3, rep.n + 2)
            got = cross_validate_h3(diag(*ab), window=wide, height_cutoff=cutoff)
            assert got.window == wide
            assert dataclasses.replace(got, window=rep.window) == rep, ab

    def test_both_windows_deep_level(self):
        rep = cross_validate_h3(diag(-5, -5))
        assert rep.component == "F1+F2"
        assert rep.ok and rep.at_most_one
        assert rep.rows == ()

    def test_small_box_sweep(self):
        for a1 in range(-3, 4):
            for a2 in range(-3, 4):
                rep = cross_validate_h3(diag(a1, a2))
                assert rep.ok, (a1, a2, rep.issues)

    def test_nonzero_rows_certified(self):
        # every checked row carries formula content within exact bounds
        for ab in ((-4, 2), (-4, 3), (-4, 4), (2, -4), (4, -4)):
            rep = cross_validate_h3(diag(*ab))
            assert rep.ok and rep.rows, ab
            for nu, low, found, up in rep.rows:
                assert low <= found <= up

    def test_matches_per_weight_reference(self):
        # the radius-3 box bundles that a stratum reaches, |f1| + |f2| <= 11:
        # a seeded sample of the one-stratum ones and every F1+F2 one, at
        # the auto cutoff, at cutoff 8 (uncertified reports) and on a wide
        # window
        span = range(-3, 4)
        one, both = [], []
        for f1, f2 in sorted({
            (a1 + 2 * b1 - b2, a2 - b1 + 2 * b2)
            for a1, a2, b1, b2 in itertools.product(span, repeat=4)
        }):
            desc = sheaf_correspondence(diag(f1, f2))
            f1_open, f2_open = desc.n >= desc.k + 8, desc.n <= -desc.k - 8
            if abs(f1) + abs(f2) <= 11 and (f1_open or f2_open):
                (both if f1_open and f2_open else one).append((diag(f1, f2), desc.n))
        assert (len(one), len(both)) == (94, 10)
        seen = set()
        for lam, n in random.Random(15).sample(one, 24) + both:
            for window, cutoff in ((None, None), (None, 8), ((n - 3, n + 2), None)):
                rep = cross_validate_h3(lam, window, height_cutoff=cutoff)
                assert rep == reference_cross_h3(lam, window, cutoff), (lam, window, cutoff)
                seen.add((rep.component, rep.certified, bool(rep.unverified)))
        # both strata, uncertified reports and unverified entries occur
        assert {c for c, *_ in seen} == {"F1", "F2", "F1+F2"}
        assert {cert for _, cert, _ in seen} == {True, False}
        assert any(unv for *_, unv in seen)


def every_numerator_cutoff(k, probes, f1_open, f2_open):
    """The cutoff reaching each integral probe's offset height over every
    covering-cell numerator, and at least the default."""
    targets = set()
    if f1_open:
        targets |= probes
    if f2_open:
        targets |= {swap_blocks_weight(nu) for nu in probes}
    cutoff = _DEFAULT_CROSS_CUTOFF
    for cell in covering_cells():
        num = _numerator(cell.w, k)
        for probe in targets:
            off = root_lattice_coords(GRASS_SYSTEM, probe - num)
            if off is not None:
                cutoff = max(cutoff, sum(off))
    return cutoff


class TestBindingCertification:
    # w1 - w5 keeps the degree and leaves the root lattice; alpha3 moves
    # the degree by two, out of any narrow window; twice the highest root
    # adds 10 to every offset height
    OFF_LATTICE = Weight((1, 0, 0, 0, -1))
    ALPHA3 = Weight((0, -1, 2, -1, 0))
    LIFT = Weight((2, 0, 0, 0, 2))

    def test_binding_cell_switches_at_level_minus_four(self):
        top, s5w, _ = covering_cells()
        assert s5w.w.word == (1, 2, 4, 3)
        for k in range(-9, 10):
            assert _binding_cell(k) == (top if k >= -3 else s5w), k

    @pytest.mark.parametrize("width", [0, 6])
    def test_binding_series_matches_every_series(self, width):
        # at cutoff 6 the probes straddle the cutoff in the binding series
        # on every level
        cut = 6
        for k in range(-9, 10):
            starts = (k + 8, k + 12) if width == 0 else (k + 8,)
            for start in starts:
                window = (start, start + width)
                series = [
                    kempf_character(c.w, k, window, cut) for c in covering_cells()
                ]
                binding = kempf_character(_binding_cell(k).w, k, window, cut)
                stored = set().union(*(s.terms() for s in series))
                probes = set(stored)
                for w in stored:
                    probes |= {w + self.OFF_LATTICE, w + self.ALPHA3, w - self.ALPHA3}
                verdicts = set()
                for p in probes:
                    want = every_series_certified(series, p)
                    assert binding.is_certified(p) == want, (k, window, p)
                    verdicts.add(want)
                # the probes reach both sides of the rule
                assert verdicts == {True, False}, (k, window)
                # the cutoff ignores the window; lifted by twice the
                # highest root, every level's probes need more than the
                # default cutoff.  The second stratum's probes arrive
                # swapped into the ambient frame and the cutoff swaps
                # them back.
                reach = {
                    w + lift for w in stored for lift in (self.LIFT, self.OFF_LATTICE)
                }
                ambient = {swap_blocks_weight(p) for p in reach}
                for f1_open, f2_open, targets in (
                    (True, False, reach),
                    (False, True, ambient),
                ):
                    num = _numerator(_binding_cell(k).w, k)
                    got = _auto_height_cutoff(num, targets, f1_open, f2_open)
                    want = every_numerator_cutoff(k, targets, f1_open, f2_open)
                    assert got == want, (k, window, f1_open, f2_open)
