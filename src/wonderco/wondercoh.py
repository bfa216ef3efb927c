"""Cohomology of line bundles on the compactified rank-two adjoint group.

The compactification of the doubled group carries two boundary divisor
classes, the doubled simple roots of the restricted system.  Line bundles
are indexed by the block-diagonal sublattice of the doubled weight
lattice, and every cohomology group is a finite multiset of dual
irreducible modules: the contributing highest weights are the dot-regular
translates of the bundle weight by signed boundary combinations, graded
by twice the number of sign inversions plus the number of strictly
crossed boundary directions.

The same groups arise a second way, as fixed-scaling slices of local
cohomology along the unstable strata of the three-plane quotient model.
``cross_validate_h3`` compares the two routes weight by weight and
reports exactly what was certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .charring import Character, weyl_character
from .gitgrass import _diagonal_coords, sheaf_correspondence
from .rootsys import (
    RootSystem,
    Weight,
    dominant_representative,
    half_sum_positive,
    root_lattice_coords,
    root_to_weight,
)
from .satake import catalog_diagram, restricted_system
from .schubert import (
    GRASS_SYSTEM,
    SchubertCell,
    TruncatedSeries,
    _numerator,
    _stratum_bounds,
    _stratum_weights,
    covering_cells,
    swap_blocks_weight,
)

__all__ = [
    "BoxTooSmallError",
    "CrossCheckReport",
    "SphericalData",
    "cross_validate_h3",
    "h_character",
    "serre_dual_check",
    "spanning_weight",
    "spherical_data",
    "tchoudjem_components",
    "vanishing_profile",
]

_DEFAULT_CROSS_CUTOFF = 12


class BoxTooSmallError(ValueError):
    """The search region cannot certify a complete enumeration."""


@dataclass(frozen=True)
class SphericalData:
    """Boundary and duality data of the compactified group.

    ``lattice`` is the doubled root system carrying all weights;
    ``sigma_x`` lists the boundary divisor classes (the restricted simple
    roots, doubled); ``canonical_shift`` is the weight of the dual of the
    dualizing sheaf, the sum of the doubled positive roots and one copy
    of each boundary class.
    """

    lattice: RootSystem
    sigma_x: tuple[Weight, ...]
    rho: Weight
    dim_y: int
    canonical_shift: Weight


@lru_cache(maxsize=1)
def spherical_data() -> SphericalData:
    """Derive the boundary data from the doubled-group diagram."""
    rs = restricted_system(catalog_diagram("GxG-A2"))
    system = rs.diagram.system
    gammas = tuple(root_to_weight(system, g) for g in rs.gammas)
    if len(gammas) != 2:
        raise AssertionError("the doubled diagram must restrict to rank two")
    rho = half_sum_positive(system)
    dim_y = len(system.positive_roots) + len(gammas)
    shift = rho + rho
    for g in gammas:
        shift = shift + g
    return SphericalData(
        lattice=system,
        sigma_x=gammas,
        rho=rho,
        dim_y=dim_y,
        canonical_shift=shift,
    )


# ---------------------------------------------------------------------------
# the block-diagonal lattice


def spanning_weight(a1: int, a2: int, b1: int, b2: int) -> Weight:
    """The combination a1 w1 + a2 w2 + b1 g1 + b2 g2 of the block-diagonal
    spanning set: the doubled fundamental weights w1, w2 and the boundary
    classes g1, g2."""
    data = spherical_data()
    g1, g2 = data.sigma_x
    return (
        Weight((a1, a2, a1, a2)) + g1.scale(b1) + g2.scale(b2)
    )


def _valid_candidates(a1: int, a2: int, offsets):
    """Yield (t1, t2, p, q) for the offsets whose candidate is valid.

    The candidate ``lam + t1 g1 + t2 g2 + rho`` is ``(p, q, p, q)``; the
    affine map (t1, t2) -> (p, q) is read off the block coordinates of
    the boundary classes and rho.  Valid means regular (p, q and p + q
    nonzero) with a positive offset exactly where the pairing is negative.
    """
    data = spherical_data()
    (g11, g12), (g21, g22), (r1, r2) = map(
        _diagonal_coords, (*data.sigma_x, data.rho)
    )
    for t1, t2 in offsets:
        p = a1 + r1 + t1 * g11 + t2 * g21
        q = a2 + r2 + t1 * g12 + t2 * g22
        if p and q and p + q and (t1 >= 1) == (p < 0) and (t2 >= 1) == (q < 0):
            yield t1, t2, p, q


# ---------------------------------------------------------------------------
# contribution enumeration


def _required_radius(a1: int, a2: int) -> int:
    """Largest offset coordinate any valid candidate can have.

    With p + q = a1 + a2 + 2 + t1 + t2, each sign pattern of (p, q) bounds
    the offsets: p, q >= 1 gives -(t1 + t2) <= a1 + a2, p <= -1 alone
    2 t1 - t2 <= -a1 - 2 (q <= -1 alone: -a2 - 2), and p, q <= -1 gives
    t1 + t2 <= -a1 - a2 - 4.
    """
    return max(0, a1 + a2, -a1 - 2, -a2 - 2, -a1 - a2 - 4)


def _sign_pattern_ranges(a1: int, a2: int):
    """Candidate offset pairs (t1, t2) for the four sign patterns of (p, q).

    A positive offset must sit exactly where (p, q) is negative, which
    forces the inequalities used below; every valid offset pair appears,
    so scanning these is complete.
    """
    s = a1 + a2
    if s >= 0:
        # p, q >= 1: nonpositive offsets, sum bounded
        for d1 in range(s + 1):
            for d2 in range(s - d1 + 1):
                yield -d1, -d2
    m = -a1 - 2
    if m >= 2:
        # p <= -1 < q: 2 t1 - t2 <= -a1 - 2
        for c1 in range(1, m // 2 + 1):
            for d2 in range(m - 2 * c1 + 1):
                yield c1, -d2
    m = -a2 - 2
    if m >= 2:
        # q <= -1 < p
        for c2 in range(1, m // 2 + 1):
            for d1 in range(m - 2 * c2 + 1):
                yield -d1, c2
    s = -a1 - a2 - 4
    if s >= 2:
        # p, q <= -1: t1 + t2 <= -a1 - a2 - 4
        for c1 in range(1, s):
            for c2 in range(1, s - c1 + 1):
                yield c1, c2


def _shell_clear(a1: int, a2: int, radius: int) -> None:
    """Check the first offset layer outside the box for valid candidates.

    The analytic bound says none exist once the box covers the required
    radius; this scans the layer's (p, q) anyway and refuses to certify
    if a candidate slips through.
    """
    edge = radius + 1
    shell = [(t, s * edge) for t in range(-edge, edge + 1) for s in (-1, 1)]
    shell += [(s * edge, t) for t in range(-radius, radius + 1) for s in (-1, 1)]
    for t1, t2, _, _ in _valid_candidates(a1, a2, shell):
        raise BoxTooSmallError(
            f"a candidate at offsets ({t1}, {t2}) just outside the "
            f"box of radius {radius} still satisfies the sign "
            "constraints; enlarge the box"
        )


@lru_cache(maxsize=None)
def _graded_components(
    lam: Weight, box: int | None
) -> tuple[tuple[int, tuple[Weight, ...]], ...]:
    """All contributions of a bundle weight, grouped by cohomological degree.

    Returns (degree, dominant highest weights) pairs; the weight lists
    keep multiplicity and are sorted on coordinates.  Candidates are
    scanned as shifted pairings p = a1+1+2t1-t2, q = a2+1-t1+2t2.  The
    boundary classes are the doubled simple roots, so a candidate's
    pairing with g1 (g2) is a positive multiple of p (q) and the two sign
    patterns agree.  Each A2 reflection to the dominant chamber acts on
    both factors of the doubled group and adds two to the length.
    """
    a1, a2 = _diagonal_coords(lam)
    radius = 3 * (1 + abs(a1) + abs(a2)) if box is None else int(box)
    needed = _required_radius(a1, a2)
    if radius < needed:
        raise BoxTooSmallError(
            f"box radius {radius} cannot certify completeness for weight "
            f"({a1}, {a2}); the sign constraints stay satisfiable out to "
            f"radius {needed}"
        )
    _shell_clear(a1, a2, radius)
    r1, r2 = _diagonal_coords(spherical_data().rho)
    found: dict[int, list[tuple[int, int]]] = {}
    offsets = _sign_pattern_ranges(a1, a2)
    for t1, t2, x, y in _valid_candidates(a1, a2, offsets):
        length = 0
        while x < 0 or y < 0:
            x, y = (-x, x + y) if x < 0 else (x + y, -y)
            length += 2
        degree = length + (t1 >= 1) + (t2 >= 1)
        found.setdefault(degree, []).append((x - r1, y - r2))
    return tuple(
        (i, tuple(Weight((x, y, x, y)) for x, y in sorted(pts)))
        for i, pts in sorted(found.items())
    )


def tchoudjem_components(
    lam: Weight, i: int, box: int | None = None
) -> tuple[Weight, ...]:
    """Dominant highest weights contributing in one cohomological degree.

    The result is a multiset, sorted on coordinates: the degree-i group
    is the direct sum of the duals of the listed irreducible modules.
    """
    return dict(_graded_components(lam, box)).get(i, ())


@lru_cache(maxsize=None)
def _dual_module_character(mu: Weight) -> Character:
    """Character of the dual of the irreducible with highest weight ``mu``.

    V(mu)* is isomorphic to V(-w0 mu), and -w0 mu is the dominant
    representative of -mu, so this is exactly the negated character of
    V(mu).  Irreducible characters are linearly independent, so a sum of
    these is determined by its multiset of highest weights.
    """
    lattice = spherical_data().lattice
    return weyl_character(lattice, dominant_representative(lattice, -mu))


def h_character(lam: Weight, i: int, box: int | None = None) -> Character:
    """Character of the degree-i cohomology of the line bundle of ``lam``."""
    terms: dict[Weight, int] = {}
    for mu in tchoudjem_components(lam, i, box):
        for w, m in _dual_module_character(mu).terms.items():
            terms[w] = terms.get(w, 0) + m
    return Character(terms)


def vanishing_profile(lam: Weight, box: int | None = None) -> frozenset[int]:
    """The set of cohomological degrees with a nonzero group."""
    return frozenset(i for i, _ in _graded_components(lam, box))


def serre_dual_check(lam: Weight, i: int, box: int | None = None) -> bool:
    """Verify duality: degree i of ``lam`` against the complementary
    degree of the dualizing mirror ``-lam - canonical_shift``.

    Degree i is the sum of the V(mu)* over its components mu, and the dual
    of the mirror's group the sum of the V(nu) = V(-w0 nu)*.  Irreducible
    characters are linearly independent (``weyl_character`` is injective
    on dominant weights), so the two characters agree exactly when the
    multisets mu and -w0 nu do.
    """
    data = spherical_data()
    mirror = -lam - data.canonical_shift
    left = tchoudjem_components(lam, i, box)
    right = tchoudjem_components(mirror, data.dim_y - i, box)
    duals = sorted(dominant_representative(data.lattice, -nu) for nu in right)
    return list(left) == duals


# ---------------------------------------------------------------------------
# cross-validation against the quotient model


@dataclass(frozen=True)
class CrossCheckReport:
    """Outcome of one degree-3 cross-check.

    ``rows`` holds (ambient weight, lower, found, upper) with ``found``
    the multiplicity from the character formula; ``component`` names the
    unstable strata whose scaling windows reach the grade; ``certified``
    is False when a weight carrying formula content fell outside a
    series' certified region, and ``ok`` means certified with every
    comparison passing.  A subtracted-series lower bound is only valid
    where its series are certified; elsewhere the sound lower bound is
    zero and the raw positive entry is listed under ``unverified``
    instead of being compared.
    """

    weight: Weight
    k: int
    n: int
    window: tuple[int, int]
    height_cutoff: int
    component: str | None
    certified: bool
    at_most_one: bool
    ok: bool
    issues: tuple[str, ...]
    rows: tuple[tuple[Weight, int, int, int], ...]
    unverified: tuple[Weight, ...] = ()


def _component_label(f1_open: bool, f2_open: bool) -> str | None:
    if f1_open and f2_open:
        return "F1+F2"
    if f1_open:
        return "F1"
    if f2_open:
        return "F2"
    return None


def _ambient_weight(omega: Weight, n: int) -> Weight | None:
    """The ambient five-coordinate weight carrying a doubled-lattice
    weight at a scaling grade, or None when the grade is incompatible.

    Matching the section spaces grade by grade pairs the first doubled
    factor with the dual-side ambient block, so both factor coordinates
    flip before the middle coordinate is solved from the grade.
    """
    g1, g2, g3, g4 = omega.coords
    f1, f2, f4, f5 = g2, g1, -g4, -g3
    rem = n - f1 - 2 * f2 - 2 * f4 - f5
    if rem % 3 != 0:
        return None
    return Weight((f1, f2, rem // 3, f4, f5))


def _binding_cell(k: int) -> SchubertCell:
    """The covering cell whose series binds certification at level ``k``.

    The three covering-cell numerators differ by root-lattice vectors, so
    a probe's offset height in each series is its height over the open
    cell's numerator minus that numerator difference's height.  The series
    share one window and one cutoff, so the cell whose numerator has the
    least height over the open cell's gives the largest offset heights:
    a probe it certifies is certified by all three.
    """
    cells = covering_cells()
    num_top = _numerator(cells[0].w, k)

    def height(cell) -> int:
        diff = root_lattice_coords(GRASS_SYSTEM, _numerator(cell.w, k) - num_top)
        if diff is None:
            raise AssertionError("covering-cell numerators off one lattice coset")
        return sum(diff)

    return min(cells, key=height)


def _auto_height_cutoff(
    binding: Weight, probes: set[Weight], f1_open: bool, f2_open: bool
) -> int:
    """Height cutoff large enough to certify the probe weights.

    Certification must hold in every covering-cell series, so the cutoff
    must reach each integral probe's largest offset height over the three
    numerators.  That largest height is the one over ``binding``, the
    binding cell's numerator (``_binding_cell``), so each probe is solved
    once.  The mirror stratum reduces to the first at the same level with
    swapped probes.
    """
    targets: set[Weight] = set()
    if f1_open:
        targets |= probes
    if f2_open:
        targets |= {swap_blocks_weight(nu) for nu in probes}
    cutoff = _DEFAULT_CROSS_CUTOFF
    for probe in targets:
        off = root_lattice_coords(GRASS_SYSTEM, probe - binding)
        if off is not None:
            cutoff = max(cutoff, sum(off))
    return cutoff


def cross_validate_h3(
    lam: Weight,
    window: tuple[int, int] | None = None,
    box: int | None = None,
    height_cutoff: int | None = None,
) -> CrossCheckReport:
    """Compare the degree-3 character against the unstable-locus slices.

    The sheaf dictionary maps the bundle weight to a level k and scaling
    grade n; the degree-3 group equals the grade-n slice of the degree-4
    local cohomology along the unstable strata.  The first stratum
    reaches grades at or above k+8.  The mirror stratum is the swapped
    image of the first at the same level, so it reaches grades at or
    below -k-8; the bounds helper parameterizes the mirror through a
    level flip, hence it is queried at level -k.  Every comparison weight
    must be certified by all three covering-cell series, and failures are
    reported rather than passed.  The three series share one window and
    one cutoff, and their numerators differ by root-lattice vectors, so a
    weight's offset heights differ by constants and are largest over the
    binding cell's numerator (``_binding_cell``).  The comparison reads the
    open cell's packed series (``schubert._stratum_bounds``): a term is
    certified when its offset height, the sum of its columns, is at most
    the cutoff plus the height of the binding numerator over the open
    cell's, one lattice solve per stratum.  Formula weights are looked up
    by key, and only terms with a positive lower bound become weights.

    Only grade n is compared, so the bounds are asked on the single-grade
    window (n, n), or (-n, -n) for the mirror, whatever ``window`` is.
    This is exact: the cone pruning keeps every term of degree n whenever
    the window contains n, and every probe has degree n (-n after the
    swap).  ``window`` only decides whether grade n is covered at all, and
    is reported.
    """
    desc = sheaf_correspondence(lam)
    k, n = desc.k, desc.n
    h3 = h_character(lam, 3, box)
    f1_open = n >= k + 8
    f2_open = n <= -k - 8
    component = _component_label(f1_open, f2_open)
    if window is None:
        window = (n, n)
    lo, hi = window
    issues: list[str] = []

    if not lo <= hi:
        raise ValueError(f"empty window {window}")
    if not lo <= n <= hi:
        issues.append(
            f"window {window} does not contain the scaling grade {n}; "
            "nothing is certified"
        )
        return CrossCheckReport(
            lam, k, n, window, height_cutoff or 0, component,
            False, True, False, tuple(issues), (),
        )

    if component is None:
        if h3:
            issues.append(
                "neither unstable stratum reaches the scaling grade, yet "
                "the degree-3 character is nonzero"
            )
        return CrossCheckReport(
            lam, k, n, window, height_cutoff or 0, component,
            True, True, not issues, tuple(issues), (),
        )

    needed: dict[Weight, int] = {}
    for omega in sorted(h3.terms, key=lambda w: w.coords):
        nu = _ambient_weight(omega, n)
        if nu is None:
            issues.append(
                f"character weight {omega.coords} cannot arise at scaling "
                f"grade {n}"
            )
            continue
        needed[nu] = h3.terms[omega]

    binding = _numerator(_binding_cell(k).w, k)
    cutoff = (
        _auto_height_cutoff(binding, set(needed), f1_open, f2_open)
        if height_cutoff is None
        else height_cutoff
    )

    # per open stratum: the open-cell series, the certified height limit
    # and (lower, upper, certified) on the terms with a positive lower bound
    strata: dict[str, tuple[TruncatedSeries, int, dict]] = {}
    for comp, is_open in (("F1", f1_open), ("F2", f2_open)):
        if not is_open:
            continue
        level = k if comp == "F1" else -k
        top, cols, lower = _stratum_bounds(comp, level, (n, n), cutoff)
        limit = cutoff + sum(
            root_lattice_coords(GRASS_SYSTEM, binding - top.numerator_exponent)
        )
        kept = [i for i, m in enumerate(lower) if m > 0]
        sub = [[col[i] for i in kept] for col in cols]
        upper = list(top.packed.values())
        weights = _stratum_weights(comp, top, sub)
        strata[comp] = top, limit, {
            w: (lower[i], upper[i], h <= limit)
            for w, i, h in zip(weights, kept, map(sum, zip(*sub)))
        }

    def bounds_at(comp: str, nu: Weight) -> tuple[int, int, bool]:
        top, limit, positive = strata[comp]
        if nu in positive:
            return positive[nu]
        off = top.offset_of(swap_blocks_weight(nu) if comp == "F2" else nu)
        if off is None:
            return 0, 0, True  # off-lattice weights never occur: zero is exact
        return 0, top.packed.get(top._key_of(off), 0), sum(off) <= limit

    certified = True
    rows, unverified = [], []
    content_sides: set[str] = set()
    support = set(needed).union(*(positive for *_, positive in strata.values()))
    for nu in sorted(support, key=lambda w: w.coords):
        found = needed.get(nu, 0)
        if found > 0:
            at = {comp: bounds_at(comp, nu) for comp in strata}
            # formula content must sit inside fully certified bounds
            if not all(cert for *_, cert in at.values()):
                certified = False
                issues.append(
                    f"bounds at ambient weight {nu.coords} carrying "
                    f"formula content are not certified at height cutoff "
                    f"{cutoff}"
                )
                continue
            low = sum(m for m, _, _ in at.values())
            up = sum(m for _, m, _ in at.values())
            rows.append((nu, low, found, up))
            if not low <= found <= up:
                issues.append(
                    f"multiplicity {found} at ambient weight {nu.coords} "
                    f"is outside [{low}, {up}]"
                )
            content_sides |= {comp for comp, (m, _, _) in at.items() if m > 0}
            continue
        # no formula content: a positive lower bound refutes the formula
        # only where its subtracted series are certified; elsewhere the
        # sound lower bound is zero and the raw entry is set aside
        hits = {c: pos[nu] for c, (*_, pos) in strata.items() if nu in pos}
        sides = {comp for comp, (_, _, cert) in hits.items() if cert}
        low = sum(hits[comp][0] for comp in sides)
        if low > 0:
            up = sum(bounds_at(comp, nu)[1] for comp in strata)
            rows.append((nu, low, found, up))
            issues.append(
                f"certified lower bound {low} at ambient weight "
                f"{nu.coords} but the character vanishes there"
            )
            content_sides |= sides
        elif len(sides) < len(hits):
            unverified.append(nu)

    at_most_one = len(content_sides) <= 1
    if not at_most_one:
        issues.append(
            "both unstable strata carry certified content at this grade"
        )

    ok = certified and not issues
    return CrossCheckReport(
        lam, k, n, window, cutoff, component,
        certified, at_most_one, ok, tuple(issues), tuple(rows),
        tuple(unverified),
    )
