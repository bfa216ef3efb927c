"""Tests for line-bundle cohomology on the compactified group."""

import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wonderco import wondercoh
from wonderco.cli import main
from wonderco.charring import (
    DEFAULT_HEIGHT_CUTOFF,
    Character,
    weyl_character,
)
from wonderco.gitgrass import sheaf_correspondence
from wonderco.rootsys import (
    Weight,
    build_root_system,
    dominant_representative,
    root_lattice_coords,
)
from wonderco.schubert import (
    CSTAR_GRADING,
    GRASS_SYSTEM,
    UnstableStratum,
    covering_cells,
    kempf_character,
    swap_blocks_weight,
    unstable_character_bounds,
)
from wonderco.wondercoh import (
    BoxTooSmallError,
    CrossCheckReport,
    SphericalData,
    _ambient_weight,
    _required_radius,
    _sign_pattern_ranges,
    certify_box,
    cross_validate_h3,
    h_character,
    serre_dual_check,
    spanning_weight,
    spherical_data,
    tchoudjem_components,
    vanishing_profile,
)
import cross_h3_reference
from cross_h3_reference import (
    every_numerator_cutoff,
    every_series_certified,
    reference_cross_h3,
)
from test_charring import kostant_character, summed
from weyl_descent import dominant_conjugate, weight_to_root, weyl_dimension

A5 = build_root_system("A5")


def diag(a1, a2):
    return Weight((a1, a2, a1, a2))


def negated(ch):
    """The terms of the dual module's character: every weight negated."""
    return {-w: m for w, m in ch.terms.items()}


def dual_module_character(mu):
    """Character of V(mu)*, the irreducible of highest weight -w0 mu."""
    lattice = spherical_data().lattice
    return weyl_character(lattice, dominant_representative(lattice, -mu))


def per_component_character(lam, i):
    """The degree-i group summed module by module over every weight: the
    oracle of ``h_character``, which sums on dominant weights."""
    return summed(dual_module_character(mu) for mu in tchoudjem_components(lam, i))


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


def layer_point_valid(a1, a2, t1, t2):
    """Whether the offset (t1, t2) gives a valid candidate, in plain
    (p, q) arithmetic: p, q and p + q nonzero, and each offset positive
    exactly where its pairing is negative."""
    p = a1 + 1 + 2 * t1 - t2
    q = a2 + 1 - t1 + 2 * t2
    if p == 0 or q == 0 or p + q == 0:
        return False
    return (t1 >= 1) == (p < 0) and (t2 >= 1) == (q < 0)


def first_valid(a1, a2, radius):
    """The first valid point of the layer just outside the box, point by
    point in the layer's scan order: rows t2 = -edge, edge interleaved
    along t1 in -edge..edge, then columns t1 = -edge, edge interleaved
    along t2 in -radius..radius, with edge = radius + 1."""
    edge = radius + 1
    signs = (-1, 1)
    layer = [(t, s * edge) for t in range(-edge, edge + 1) for s in signs]
    layer += [(s * edge, t) for t in range(-radius, radius + 1) for s in signs]
    return next((pt for pt in layer if layer_point_valid(a1, a2, *pt)), None)


def breakpoint_first_valid(a1, a2, radius):
    """The first valid point of the layer just outside the box, from its
    breakpoints alone: rows t2 = -edge, edge interleaved along t1, then
    columns t1 = -edge, edge interleaved along t2 in -radius..radius.

    Along a side p, q and p + q are affine in the free offset t, and the
    free offset is positive exactly for t >= 1.  Validity depends on t
    only through these four signs, which are constant on the runs that
    the points f and f + 1, f = floor(-c / b), of each affine c + b t
    (with c + b t = t - 1 for the offset's own sign) cut a side into; so
    the first valid point of a side is its first point or a breakpoint.
    """
    edge = radius + 1
    columns = 2 * (2 * edge + 1)
    sides = (
        (lambda t: (t, -edge), -edge, edge, 0),
        (lambda t: (t, edge), -edge, edge, 1),
        (lambda t: (-edge, t), -radius, radius, columns),
        (lambda t: (edge, t), -radius, radius, columns + 1),
    )
    points = {}
    for point, lo, hi, start in sides:

        def pq(t):
            t1, t2 = point(t)
            return a1 + 1 + 2 * t1 - t2, a2 + 1 - t1 + 2 * t2

        (p0, q0), (p1, q1) = pq(0), pq(1)
        ts = {lo}
        for c, b in ((p0, p1 - p0), (q0, q1 - q0), (p0 + q0, p1 + q1 - p0 - q0), (-1, 1)):
            if b:
                ts.update((-c // b, -c // b + 1))
        for t in ts:
            if lo <= t <= hi:
                points[start + 2 * (t - lo)] = point(t)
    return next(
        (points[k] for k in sorted(points) if layer_point_valid(a1, a2, *points[k])),
        None,
    )


def box_outcome(a1, a2, radius):
    """The message ``certify_box`` raises, or None when it certifies."""
    try:
        certify_box(diag(a1, a2), radius)
    except BoxTooSmallError as exc:
        return str(exc)
    return None


def radius_message(a1, a2, radius):
    """The message of a box below the required radius."""
    return (
        f"box radius {radius} cannot certify completeness for weight "
        f"({a1}, {a2}); the sign constraints stay satisfiable out to "
        f"radius {_required_radius(a1, a2)}"
    )


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

    def test_de_concini_procesi_degrees_0_and_8(self):
        # De Concini-Procesi: the sections of (f1, f2, f1, f2) hold each
        # dominant (f1, f2) - c1 (2, -1) - c2 (-1, 2), c1, c2 >= 0, once;
        # Serre duality (shift (3, 3, 3, 3), dimension 8) makes that set of
        # the mirror -lam - (3, 3, 3, 3), with (x, y) -> (y, x), degree 8
        def sections(f1, f2):
            reach = range(max(0, f1 + f2) + 1)  # x + y = f1 + f2 - c1 - c2
            return sorted(
                (x, y)
                for c1, c2 in itertools.product(reach, repeat=2)
                for x, y in [(f1 - 2 * c1 + c2, f2 + c1 - 2 * c2)]
                if x >= 0 and y >= 0
            )

        bundles = {
            spanning_weight(*c) for c in itertools.product(range(-5, 6), repeat=4)
        }
        assert len(bundles) == 1041
        nonzero = [0, 0]
        for lam in bundles:
            f1, f2 = lam[:2]
            top, bottom = (
                [(w[0], w[1]) for w in tchoudjem_components(lam, i)] for i in (0, 8)
            )
            assert top == sections(f1, f2), lam.coords
            mirror = sections(-f1 - 3, -f2 - 3)
            assert bottom == sorted((y, x) for x, y in mirror), lam.coords
            nonzero[0] += bool(top)
            nonzero[1] += bool(bottom)
        assert nonzero == [321, 162]

    def test_sign_pattern_ranges_cover_every_valid_offset(self):
        # the offsets the descent oracle shares with the module, checked
        # against a brute-force scan of each coefficient-box bundle's
        # (a1, a2) = lam + b1 g1 + b2 g2 in block coordinates: the sign
        # constraints keep valid offsets within |a1| + |a2|, so the box
        # below has slack on every side; each valid offset also lies
        # within the required radius that certify_box checks
        pairs = {
            (a1 + 2 * b1 - b2, a2 - b1 + 2 * b2)
            for a1, a2, b1, b2 in itertools.product(range(-5, 6), repeat=4)
        }
        assert len(pairs) == 1041
        for a1, a2 in pairs:
            ranges = set(_sign_pattern_ranges(a1, a2))
            needed = _required_radius(a1, a2)
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
                    assert max(abs(t1), abs(t2)) <= needed, (a1, a2, t1, t2)

    def test_certify_box_matches_the_layer_oracles(self):
        # (6, 6) needs radius 12; at radius 3 its valid offset (-4, -4)
        # lies on the first layer outside the box
        assert _required_radius(6, 6) == 12
        assert first_valid(6, 6, 3) == (-4, -4)
        assert box_outcome(6, 6, 3) == radius_message(6, 6, 3)

        # the box is refused exactly below the required radius, and no
        # layer outside the required radius holds a valid point
        cases = raising = 0
        for a1, a2 in itertools.product(range(-20, 21), repeat=2):
            needed = _required_radius(a1, a2)
            assert first_valid(a1, a2, needed) is None, (a1, a2)
            for radius in (*range(13), 3 * (1 + abs(a1) + abs(a2))):
                first = first_valid(a1, a2, radius)
                assert breakpoint_first_valid(a1, a2, radius) == first, (a1, a2, radius)
                below = radius < needed
                assert below or first is None, (a1, a2, radius)
                want = radius_message(a1, a2, radius) if below else None
                assert box_outcome(a1, a2, radius) == want, (a1, a2, radius)
                cases += 1
                raising += below
        assert (cases, raising) == (23534, 17878)

    def test_required_radius_is_sound_on_large_coefficients(self):
        # the breakpoint oracle's cost does not grow with the coefficients
        # or the radius, so it reaches what the point-by-point scan cannot:
        # half the draws sit below the required radius, half at or above it
        rng = random.Random(31)
        outcomes = dict.fromkeys(itertools.product((False, True), repeat=2), 0)
        for k in range(2000):
            a1, a2 = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            needed = _required_radius(a1, a2)
            below = bool(k % 2 and needed)
            radius = rng.randrange(needed) if below else rng.randint(needed, 10**9)
            want = radius_message(a1, a2, radius) if below else None
            assert box_outcome(a1, a2, radius) == want, (a1, a2, radius)
            found = breakpoint_first_valid(a1, a2, radius) is not None
            outcomes[below, found] += 1
        # (below the required radius, a valid layer point found): counts
        assert outcomes == {
            (False, False): 1000, (False, True): 0, (True, False): 413, (True, True): 587,
        }

    def test_shell_clear_at_the_required_radius(self):
        # the analytic bound and the layer oracle agree: at the required
        # radius the first layer outside the box holds no valid candidate
        for a1, a2 in itertools.product(range(-40, 41), repeat=2):
            assert breakpoint_first_valid(a1, a2, _required_radius(a1, a2)) is None

    def test_cache_is_bounded_above_an_acceptance_run(self):
        # working set measured on one default acceptance run: 1042 bundles,
        # 1041 of them c7's radius-5 coefficient box
        cache = wondercoh._graded_components
        assert 1042 < cache.cache_info().maxsize < 8 * 1042

    def test_non_diagonal_rejected(self):
        with pytest.raises(ValueError, match="block-diagonal"):
            tchoudjem_components(Weight((1, 0, 0, 1)), 0)

    def test_box_too_small(self):
        with pytest.raises(BoxTooSmallError, match="radius 3"):
            certify_box(diag(6, 6), 3)

    def test_exact_box_suffices(self):
        # the certified radius for (6, 6) is 12: that box certifies, one
        # less does not
        assert certify_box(diag(6, 6), 12) is None
        with pytest.raises(BoxTooSmallError, match="radius 11 "):
            certify_box(diag(6, 6), 11)


class TestHCharacter:
    def test_trivial(self):
        assert h_character(diag(0, 0), 0) == Character({diag(0, 0): 1})

    def test_fundamental_is_dual_module(self):
        data = spherical_data()
        h = h_character(diag(1, 0), 0)
        assert h.terms == negated(weyl_character(data.lattice, diag(1, 0)))
        assert h.dimension() == 9

    def test_cached_characters_are_read_only(self):
        # the last groups asked for are cached; no caller can write through
        # a returned character into the cache behind the next call
        data = spherical_data()
        cached = h_character(diag(1, 0), 0)
        assert h_character(diag(1, 0), 0) is cached
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

    def test_matches_per_component_sum(self):
        # every nonzero group of the radius-2 box against the module-by-
        # module sum over every weight; 85 of the 145 groups have two or
        # more components, whose modules share dominant weights
        span = range(-2, 3)
        bundles = {spanning_weight(*c) for c in itertools.product(span, repeat=4)}
        groups = multi = 0
        for lam in sorted(bundles):
            for i in sorted(vanishing_profile(lam)):
                want = per_component_character(lam, i)
                assert h_character(lam, i) == want, (lam, i)
                groups += 1
                multi += len(tchoudjem_components(lam, i)) > 1
        assert (len(bundles), groups, multi) == (177, 145, 85)

    @pytest.mark.parametrize(
        "lam,i",
        [(diag(-8, 5), 3), (diag(-7, 2), 5), (diag(0, 2), 0), (diag(-4, -4), 8)],
    )
    def test_multi_component_groups_match_alternating_sum(self, lam, i):
        # an oracle that shares no code with the summing route
        lattice = spherical_data().lattice
        components = tchoudjem_components(lam, i)
        assert len(components) == 2
        duals = [dominant_representative(lattice, -mu) for mu in components]
        assert h_character(lam, i) == summed(
            kostant_character(lattice, dual) for dual in duals
        )

    def test_degree_three_is_computed_once(self, monkeypatch):
        # `cohomology --i 3` and the benchmark's cross-h3 query ask for the
        # degree-3 group, then cross_validate_h3 asks again
        calls = []
        real = wondercoh.direct_sum_character

        def counted(system, weights):
            calls.append(system)
            return real(system, weights)

        monkeypatch.setattr(wondercoh, "direct_sum_character", counted)
        lam = diag(-5, 4)
        wondercoh.h_character.cache_clear()
        assert h_character(lam, 3) and cross_validate_h3(lam).ok
        assert len(calls) == 1
        wondercoh.h_character.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        argv = ["cohomology", "--lambda", "-5,4,0,0", "--i", "3"]
        code = main(argv, out=out, err=err)
        assert code == 0 and "cross-consistent\tyes" in out.getvalue()
        assert len(calls) == 2

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

    def test_mirror_side_is_f2_bounds_at_minus_the_level(self):
        # unstable_character_bounds("F2", K, ...), which schubert kempf
        # --cell F2 --k K prints, reads the first stratum at -K: the side
        # the cross-check reads on the second stratum for the bundles at
        # level -K.  Criterion 9's mirror samples, row by row
        for coeffs, k, n, count in (((2, -4), -2, -6, 1), ((3, -4), -1, -7, 9)):
            rep = cross_validate_h3(spanning_weight(*coeffs, 0, 0))
            assert (rep.component, rep.k, rep.n, len(rep.rows)) == ("F2", k, n, count)
            lower, upper = unstable_character_bounds(
                "F2", -k, (n, n), rep.height_cutoff
            )
            assert [(nu, low, up) for nu, low, _, up in rep.rows] == [
                (nu, lower.terms.get(nu, 0), upper.terms.get(nu, 0))
                for nu, *_ in rep.rows
            ]
            _, same_level = unstable_character_bounds("F2", k, (n, n), rep.height_cutoff)
            assert not same_level.terms

    def test_grade_matches_stratum_floor(self):
        # the smallest first-stratum example sits exactly on the
        # stratum's degree floor k + 8
        rep = cross_validate_h3(diag(-4, 2))
        assert rep.n == rep.k + 8

    def test_both_windows_deep_level(self):
        rep = cross_validate_h3(diag(-5, -5))
        assert rep.component == "F1+F2"
        assert rep.ok and rep.at_most_one
        assert rep.rows == ()

    def test_reports_are_sorted(self):
        # the CLI prints rows and unverified weights in report order; every
        # bundle of the radius-3 box with |f1| + |f2| <= 11
        span = range(-3, 4)
        bundles = {spanning_weight(*c) for c in itertools.product(span, repeat=4)}
        reports = [
            cross_validate_h3(lam) for lam in bundles if abs(lam[0]) + abs(lam[1]) <= 11
        ]
        for rep in reports:
            weights = [nu for nu, *_ in rep.rows]
            assert weights == sorted(weights), rep.weight
            assert list(rep.unverified) == sorted(rep.unverified), rep.weight
        assert (len(bundles), len(reports)) == (385, 237)
        assert max(len(rep.rows) for rep in reports) > 1
        assert max(len(rep.unverified) for rep in reports) > 1

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
        # a seeded sample of the one-stratum ones, every F1+F2 one, and the
        # row-heavy ones of the cross-h3 benchmark set (the radius-2 box,
        # max(|f1|, |f2|) <= 6), those whose auto cutoff is above the
        # default; at the auto cutoff and at cutoff 8 (uncertified reports)
        one, both, heavy = [], [], []
        radius2 = {
            (a1 + 2 * b1 - b2, a2 - b1 + 2 * b2)
            for a1, a2, b1, b2 in itertools.product(range(-2, 3), repeat=4)
        }
        for f1, f2 in sorted({
            (a1 + 2 * b1 - b2, a2 - b1 + 2 * b2)
            for a1, a2, b1, b2 in itertools.product(range(-3, 4), repeat=4)
        }):
            lam = diag(f1, f2)
            desc = sheaf_correspondence(lam)
            f1_open, f2_open = desc.n >= desc.k + 8, desc.n <= -desc.k - 8
            if abs(f1) + abs(f2) <= 11 and (f1_open or f2_open):
                (both if f1_open and f2_open else one).append(lam)
                if (f1, f2) in radius2 and max(abs(f1), abs(f2)) <= 6:
                    probes = {_ambient_weight(w, desc.n) for w in h_character(lam, 3).terms}
                    cutoff = every_numerator_cutoff(desc.k, probes - {None}, f1_open, f2_open)
                    if cutoff > DEFAULT_HEIGHT_CUTOFF:
                        heavy.append(lam)
        assert (len(one), len(both), len(heavy)) == (94, 10, 8)
        seen = set()
        for lam in random.Random(15).sample(one, 24) + both + heavy:
            for cutoff in (None, 8):
                rep = cross_validate_h3(lam, height_cutoff=cutoff)
                assert rep == reference_cross_h3(lam, cutoff), (lam, cutoff)
                seen.add((rep.component, rep.certified, bool(rep.unverified)))
        # both strata, uncertified reports and unverified entries occur
        assert {c for c, *_ in seen} == {"F1", "F2", "F1+F2"}
        assert {cert for _, cert, _ in seen} == {True, False}
        assert any(unv for *_, unv in seen)

    def test_failure_paths_match_reference(self, monkeypatch):
        # a wrong formula must fail the same way on both routes, issue
        # order included: drop a component of the degree-3 module, raise
        # one multiplicity by one where it meets its upper bound, or add
        # weights off the scaling grade, listed in reverse order.  The
        # F1+F2 bundle's group is zero; it is raised at a listed entry that
        # the first stratum cannot certify at cutoff 8 and the mirror can,
        # which makes that entry formula content: not certified at cutoff
        # 8, compared and within bounds at the auto cutoff.
        bundles = [diag(-4, 3), diag(3, -4), diag(-5, 4), diag(4, -5), diag(-6, -4)]
        raised = {}
        for lam in bundles:
            rep = cross_validate_h3(lam, height_cutoff=8)
            mirror = UnstableStratum("F2", rep.k)
            tight = [nu for nu, _, found, up in rep.rows if found == up]
            listed = [nu for nu in rep.unverified if mirror.certifies(nu, (rep.n,) * 2, 8)]
            nu = (tight or listed)[0]
            raised[lam] = Weight((nu[1], nu[0], -nu[4], -nu[3]))
            assert _ambient_weight(raised[lam], rep.n) == nu
        assert [cross_validate_h3(lam).component for lam in bundles] == [
            "F1", "F2", "F1", "F2", "F1+F2",
        ]

        def drop_component(lam, terms):
            first, *_ = tchoudjem_components(lam, 3)
            for w, m in dual_module_character(first).terms.items():
                terms[w] -= m
            return terms

        def raise_multiplicity(lam, terms):
            terms[raised[lam]] = terms.get(raised[lam], 0) + 1
            return terms

        def add_off_grade(lam, terms):
            # (g, 0, 0, 0) sits at grade n only when 3 divides n - 2g
            n = sheaf_correspondence(lam).n
            off = [Weight((g, 0, 0, 0)) for g in range(4, -5, -1) if (n - 2 * g) % 3]
            return {**terms, **dict.fromkeys(off, 1)}

        real = wondercoh.h_character
        names = ("vanishes there", "is outside", "not certified", "cannot arise")
        kinds = set()
        for change in (drop_component, raise_multiplicity, add_off_grade):

            def perturbed(lam, i, change=change):
                ch = real(lam, i)
                return Character(change(lam, dict(ch.terms))) if i == 3 else ch

            with monkeypatch.context() as m:
                # both routes read the formula through their module's name
                m.setattr(wondercoh, "h_character", perturbed)
                m.setattr(cross_h3_reference, "h_character", perturbed)
                for lam in bundles:
                    if change is drop_component and not tchoudjem_components(lam, 3):
                        continue
                    for cutoff in (None, 8):
                        rep = cross_validate_h3(lam, height_cutoff=cutoff)
                        want = reference_cross_h3(lam, cutoff)
                        assert rep == want, (change.__name__, lam, cutoff)
                        kinds |= {
                            kind
                            for kind in names
                            if any(kind in issue for issue in rep.issues)
                        }
        assert kinds == set(names)

    def test_entry_certified_on_another_side_is_compared(self, monkeypatch):
        # an entry one side cannot certify is listed only while no other
        # side certifies a positive lower bound there: give the first
        # stratum a certified bound at one of the mirror's listed entries
        lam = diag(-6, -4)
        before = cross_validate_h3(lam)
        assert before.component == "F1+F2" and before.rows == ()
        mirror = UnstableStratum("F2", before.k)
        grade, cutoff = (before.n,) * 2, before.height_cutoff
        _, listed = mirror.positive_bounds(grade, cutoff)
        nu = min(listed)
        real_positive = UnstableStratum.positive_bounds

        def positive_bounds(stratum, window, height_cutoff):
            certified, uncertified = real_positive(stratum, window, height_cutoff)
            if stratum.component == "F1":
                certified = {**certified, nu: (1, 1, True)}
            return certified, uncertified

        monkeypatch.setattr(UnstableStratum, "positive_bounds", positive_bounds)
        rep = cross_validate_h3(lam)
        up = 1 + mirror.bounds_at(nu, grade, cutoff)[1]
        assert rep.rows == ((nu, 1, 0, up),)
        assert rep.unverified == tuple(w for w in before.unverified if w != nu)
        assert rep.issues == (
            f"certified lower bound 1 at ambient weight {nu.coords} but the "
            "character vanishes there",
        )
        assert rep.certified and rep.at_most_one and not rep.ok
        # a certified bound on the mirror too, at one of the first
        # stratum's listed entries: both strata now carry content
        _, first_listed = UnstableStratum("F1", before.k).positive_bounds(grade, cutoff)
        mu = min(first_listed)
        first_only = positive_bounds

        def both_positive_bounds(stratum, window, height_cutoff):
            certified, uncertified = first_only(stratum, window, height_cutoff)
            if stratum.component == "F2":
                certified = {**certified, mu: (2, 2, True)}
            return certified, uncertified

        monkeypatch.setattr(UnstableStratum, "positive_bounds", both_positive_bounds)
        rep = cross_validate_h3(lam)
        assert [(w, low, found) for w, low, found, _ in rep.rows] == sorted(
            [(nu, 1, 0), (mu, 2, 0)]
        )
        assert not rep.at_most_one
        assert rep.issues[-1] == "both unstable strata carry certified content at this grade"
        assert set(rep.unverified) == set(before.unverified) - {nu, mu}

    def test_cost_tracks_formula_weights(self, monkeypatch):
        # spanning weight (-2, -2, -2, 2): the first stratum alone, one
        # compared row beside 139 listed entries.  The side lookups (bounds
        # read at a weight, or a certified positive entry looked up) must
        # scale with the formula weights per open side, not the support.
        bounds_calls, lookups = [], []
        real_bounds_at = UnstableStratum.bounds_at
        real_positive = UnstableStratum.positive_bounds

        class Counted(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

            def __getitem__(self, key):
                lookups.append(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                lookups.append(key)
                return super().__contains__(key)

        def positive_bounds(stratum, window, cutoff):
            certified, uncertified = real_positive(stratum, window, cutoff)
            return Counted(certified), uncertified

        def bounds_at(stratum, w, window, cutoff):
            bounds_calls.append(w)
            return real_bounds_at(stratum, w, window, cutoff)

        monkeypatch.setattr(UnstableStratum, "positive_bounds", positive_bounds)
        monkeypatch.setattr(UnstableStratum, "bounds_at", bounds_at)
        lam = spanning_weight(-2, -2, -2, 2)
        rep = cross_validate_h3(lam)
        assert (rep.component, len(rep.rows), len(rep.unverified)) == ("F1", 1, 139)
        assert rep.ok
        bound = len(h_character(lam, 3).terms) * len(rep.component.split("+"))
        assert 0 < len(bounds_calls) <= bound
        assert 0 < len(lookups) <= bound


class TestSlackCertification:
    # w1 - w5 keeps the degree and leaves the root lattice; alpha3 moves
    # the degree by two, out of any narrow window
    OFF_LATTICE = Weight((1, 0, 0, 0, -1))
    ALPHA3 = Weight((0, -1, 2, -1, 0))

    def test_slack_is_the_least_numerator_height(self):
        # the boundary numerators sit k + 3 above the open cell's, which
        # binds from level -4 down
        for k in range(-9, 10):
            assert UnstableStratum("F1", k).slack == min(0, k + 3), k

    @pytest.mark.parametrize("width", [0, 6])
    def test_open_cell_height_rule_matches_every_series(self, width):
        # at cutoff 6 the probes straddle the limit on every level; the
        # second stratum, read off the first at k, certifies the swapped
        # probes on the reversed window exactly as the first certifies them
        cut = 6
        for k in range(-9, 10):
            starts = (k + 8, k + 12) if width == 0 else (k + 8,)
            first, second = UnstableStratum("F1", k), UnstableStratum("F2", k)
            for start in starts:
                window = (start, start + width)
                mirror = (-window[1], -window[0])
                series = [
                    kempf_character(c.w, k, window, cut) for c in covering_cells()
                ]
                stored = set().union(*(s.terms() for s in series))
                probes = set(stored)
                for w in stored:
                    probes |= {w + self.OFF_LATTICE, w + self.ALPHA3, w - self.ALPHA3}
                verdicts = set()
                for p in probes:
                    want = every_series_certified(series, p)
                    got = first.certifies(p, window, cut)
                    assert got == want, (k, window, p)
                    got = second.certifies(swap_blocks_weight(p), mirror, cut)
                    assert got == want, ("F2", k, window, p)
                    verdicts.add(want)
                # the probes reach both sides of the rule
                assert verdicts == {True, False}, (k, window)

    @pytest.mark.parametrize("width", [0, 6])
    def test_bounds_at_reads_the_open_cell_terms(self, width):
        # on the same probes, bounds_at reads the open cell's stored
        # multiplicity, or 0, as the upper bound and certifies as certifies
        # does, on both strata; the probes below a numerator leave the packed
        # fields, where no key is read
        cut = 6
        seen = set()
        for k in range(-9, 10):
            starts = (k + 8, k + 12) if width == 0 else (k + 8,)
            first, second = UnstableStratum("F1", k), UnstableStratum("F2", k)
            for start in starts:
                window = (start, start + width)
                mirror = (-window[1], -window[0])
                top = kempf_character(covering_cells()[0].w, k, window, cut)
                upper = top.terms()
                swapped = {swap_blocks_weight(w): m for w, m in upper.items()}
                probes = set(upper)
                for w in upper:
                    probes |= {w + self.OFF_LATTICE, w + self.ALPHA3, w - self.ALPHA3}
                for p in probes:
                    want = (0, upper.get(p, 0), first.certifies(p, window, cut))
                    assert first.bounds_at(p, window, cut) == want, (k, window, p)
                    q = swap_blocks_weight(p)
                    want = (0, swapped.get(q, 0), second.certifies(q, mirror, cut))
                    assert second.bounds_at(q, mirror, cut) == want, ("F2", k, window, p)
                    off = root_lattice_coords(GRASS_SYSTEM, p - top.numerator_exponent)
                    seen.add("off lattice" if off is None else top._key_of(off) is None)
        assert seen == {"off lattice", True, False}

    def test_auto_cutoff_matches_every_numerator(self):
        # the reached bundles of the radius-3 box with |f1| + |f2| <= 15
        # whose formula weights need a cutoff in 13..20: both strata, on
        # levels on both sides of the slack's switch at -4
        span = range(-3, 4)
        seen = set()
        for f1, f2 in sorted({
            (a1 + 2 * b1 - b2, a2 - b1 + 2 * b2)
            for a1, a2, b1, b2 in itertools.product(span, repeat=4)
        }):
            if abs(f1) + abs(f2) > 15:
                continue
            lam = diag(f1, f2)
            desc = sheaf_correspondence(lam)
            k, n = desc.k, desc.n
            f1_open, f2_open = n >= k + 8, n <= -k - 8
            if not (f1_open or f2_open):
                continue
            probes = {_ambient_weight(w, n) for w in h_character(lam, 3).terms}
            want = every_numerator_cutoff(k, probes - {None}, f1_open, f2_open)
            if DEFAULT_HEIGHT_CUTOFF < want <= 20:
                rep = cross_validate_h3(lam)
                assert rep.height_cutoff == want, (f1, f2)
                seen.add((rep.component, UnstableStratum("F1", k).slack < 0))
        assert seen == {("F1", True), ("F1", False), ("F2", True), ("F2", False)}

    def test_batch_auto_cutoff_matches_every_numerator(self):
        # the batch cutoff over all formula weights, by one height
        # functional per stratum, on the 133 reached bundles of the radius-3
        # box with |f1| + |f2| <= 13 (cutoffs 12..28), against every
        # covering-cell numerator's offset solved weight by weight; probes
        # moved off the root lattice, with the height functional unchanged
        # (OFF_LATTICE) or moved by 4.5 either way (varpi_3), are ignored
        varpi3 = Weight((0, 0, 1, 0, 0))
        span = range(-3, 4)
        cutoffs, seen = [], set()
        for f1, f2 in sorted({
            (a1 + 2 * b1 - b2, a2 - b1 + 2 * b2)
            for a1, a2, b1, b2 in itertools.product(span, repeat=4)
        }):
            if abs(f1) + abs(f2) > 13:
                continue
            desc = sheaf_correspondence(diag(f1, f2))
            k, n = desc.k, desc.n
            f1_open, f2_open = n >= k + 8, n <= -k - 8
            opened = [c for c, is_open in (("F1", f1_open), ("F2", f2_open)) if is_open]
            if not opened:
                continue
            probes = {_ambient_weight(w, n) for w in h_character(diag(f1, f2), 3).terms}
            probes.discard(None)
            off = {p + d for p in probes for d in (self.OFF_LATTICE, varpi3, -varpi3)}
            want = every_numerator_cutoff(k, probes, f1_open, f2_open)
            got = max(UnstableStratum(c, k).auto_cutoff(probes | off) for c in opened)
            assert got == want, (f1, f2)
            cutoffs.append(want)
            seen.add(("+".join(opened), UnstableStratum("F1", k).slack < 0))
        assert len(cutoffs) == 133
        assert (min(cutoffs), max(cutoffs)) == (DEFAULT_HEIGHT_CUTOFF, 28)
        assert {("F1", True), ("F1", False), ("F2", True), ("F2", False)} <= seen
