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

from functools import lru_cache
from itertools import compress, repeat

from .charring import Character, direct_sum_character
from .gitgrass import _diagonal_coords, sheaf_correspondence
from .rootsys import (
    RootSystem,
    Weight,
    _record,
    dominant_representative,
    half_sum_positive,
    root_to_weight,
)
from .satake import catalog_diagram, restricted_system
from .schubert import UnstableStratum

__all__ = [
    "BoxTooSmallError",
    "CrossCheckReport",
    "SphericalData",
    "certify_box",
    "cross_validate_h3",
    "h_character",
    "serre_dual_check",
    "spanning_weight",
    "spherical_data",
    "tchoudjem_components",
    "vanishing_profile",
]

class BoxTooSmallError(ValueError):
    """The search region cannot certify a complete enumeration."""


@_record
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


@lru_cache(maxsize=1)
def _block_coords() -> tuple[tuple[int, int], ...]:
    """Block coordinates (f1, f2) of g1, g2 and rho, in that order."""
    data = spherical_data()
    return tuple(map(_diagonal_coords, (*data.sigma_x, data.rho)))


def _valid_candidates(a1: int, a2: int, offsets):
    """Yield (t1, t2, p, q) for the offsets whose candidate is valid.

    The candidate ``lam + t1 g1 + t2 g2 + rho`` is ``(p, q, p, q)``; the
    affine map (t1, t2) -> (p, q) is read off the block coordinates of
    the boundary classes and rho.  Valid means regular (p, q and p + q
    nonzero) with a positive offset exactly where the pairing is negative.
    """
    (g11, g12), (g21, g22), (r1, r2) = _block_coords()
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

    The bound is sound but not tight: (-30, -30) gives 56, while its
    farthest valid offset is 28.
    """
    return max(0, a1 + a2, -a1 - 2, -a2 - 2, -a1 - a2 - 4)


def certify_box(lam: Weight, radius: int) -> None:
    """Raise ``BoxTooSmallError`` unless every valid offset of ``lam`` lies
    in the box of ``radius``.  The enumeration itself needs no box.  The
    bound ``_required_radius`` is the certificate; its oracle, a scan of
    the offset layers outside the box, lives in the tests."""
    a1, a2 = _diagonal_coords(lam)
    needed = _required_radius(a1, a2)
    if radius < needed:
        raise BoxTooSmallError(
            f"box radius {radius} cannot certify completeness for weight "
            f"({a1}, {a2}); the sign constraints stay satisfiable out to "
            f"radius {needed}"
        )


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


@lru_cache(maxsize=2048)
def _graded_components(lam: Weight) -> tuple[tuple[int, tuple[Weight, ...]], ...]:
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
    r1, r2 = _block_coords()[2]
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


def tchoudjem_components(lam: Weight, i: int) -> tuple[Weight, ...]:
    """Dominant highest weights contributing in one cohomological degree.

    The result is a multiset, sorted on coordinates: the degree-i group
    is the direct sum of the duals of the listed irreducible modules.
    """
    return dict(_graded_components(lam)).get(i, ())


@lru_cache(maxsize=4)
def h_character(lam: Weight, i: int) -> Character:
    """Character of the degree-i cohomology of the line bundle of ``lam``:
    the sum of the V(mu)* = V(-w0 mu) over its components mu.  The last
    few groups are kept (read-only): the degree-3 cross-check reads the
    group its caller just read."""
    lattice = spherical_data().lattice
    components = tchoudjem_components(lam, i)
    duals = (dominant_representative(lattice, -mu) for mu in components)
    return direct_sum_character(lattice, duals)


def vanishing_profile(lam: Weight) -> frozenset[int]:
    """The set of cohomological degrees with a nonzero group."""
    return frozenset(i for i, _ in _graded_components(lam))


def serre_dual_check(lam: Weight, i: int) -> bool:
    """Verify duality: degree i of ``lam`` against the complementary
    degree of the dualizing mirror ``-lam - canonical_shift``.

    Degree i is the sum of the V(mu)* over its components mu, and the dual
    of the mirror's group the sum of the V(nu) = V(-w0 nu)*.  Irreducible
    characters are linearly independent, so a ``direct_sum_character``
    determines its multiset of highest weights, and the two characters
    agree exactly when the multisets mu and -w0 nu do.
    """
    data = spherical_data()
    mirror = -lam - data.canonical_shift
    left = tchoudjem_components(lam, i)
    right = tchoudjem_components(mirror, data.dim_y - i)
    duals = sorted(dominant_representative(data.lattice, -nu) for nu in right)
    return list(left) == duals


# ---------------------------------------------------------------------------
# cross-validation against the quotient model


@_record
class CrossCheckReport:
    """Outcome of one degree-3 cross-check.

    ``rows`` holds (ambient weight, lower, found, upper) with ``found``
    the multiplicity from the character formula; ``window`` is the one
    grade compared, ``(n, n)``; ``component`` names the unstable strata
    whose scaling windows reach the grade; ``certified`` is False when
    a weight carrying formula content fell outside a series' certified
    region, and ``ok`` means certified with every comparison passing.
    A subtracted-series lower bound is only valid where its series are
    certified; elsewhere the sound lower bound is zero and the raw
    positive entry is listed under ``unverified`` instead of being
    compared.  ``rows`` are in increasing order of their weights and
    ``unverified`` is sorted, both as coordinate tuples, so callers print
    them as they are.
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


def _ambient_weight(omega: Weight, n: int) -> Weight | None:
    """The ambient five-coordinate weight carrying a doubled-lattice
    weight at a scaling grade, or None when the grade is incompatible.

    Matching the section spaces grade by grade pairs the first doubled
    factor with the dual-side ambient block, so both factor coordinates
    flip before the middle coordinate is solved from the grade.
    """
    g1, g2, g3, g4 = omega
    f1, f2, f4, f5 = g2, g1, -g4, -g3
    rem = n - f1 - 2 * f2 - 2 * f4 - f5
    if rem % 3 != 0:
        return None
    return Weight((f1, f2, rem // 3, f4, f5))


def cross_validate_h3(
    lam: Weight, height_cutoff: int | None = None
) -> CrossCheckReport:
    """Compare the degree-3 character against the unstable-locus slices.

    The sheaf dictionary maps the bundle weight to a level k and scaling
    grade n; the degree-3 group equals the grade-n slice of the degree-4
    local cohomology along the unstable strata, read through
    :class:`schubert.UnstableStratum`, which owns their reach, frame, bounds
    and certification.  The mirror stratum is the swapped image of the
    first at the same level, so it reaches the grades the first reaches,
    negated.

    The compared weights are the formula weights and those with a
    certified positive lower bound on some open side; each side's bounds
    are read once per compared weight, and every formula weight must be
    certified on each open side.  A side's uncertified positive entries
    have the sound lower bound zero: those that are not compared are
    listed under ``unverified`` in bulk, by set difference, and sorted.
    Failures are reported rather than passed.  The auto cutoff is the
    least one, and at least the default, that certifies every formula
    weight, read off one height functional per open stratum with no
    offset solved (``UnstableStratum.auto_cutoff``).  Every formula
    weight has degree n, so the bounds are asked on the single-grade
    window ``(n, n)``, which the report carries as its ``window``.  At
    levels ``k <= -4`` the slack ``k + 3`` is negative and no positive entry
    is certified: every lower bound there is 0, so the check is upper-bound only.
    """
    desc = sheaf_correspondence(lam)
    k, n = desc.k, desc.n
    h3 = h_character(lam, 3)
    # the mirror stratum at level k is the swapped first stratum at level k
    strata = {
        c: s for c in ("F1", "F2") if (s := UnstableStratum(c, k)).reaches(n)
    }
    component = "+".join(strata) or None
    grade = (n, n)
    issues: list[str] = []

    if component is None:
        if h3:
            issues.append(
                "neither unstable stratum reaches the scaling grade, yet "
                "the degree-3 character is nonzero"
            )
        return CrossCheckReport(
            lam, k, n, grade, height_cutoff or 0, component,
            True, True, not issues, tuple(issues), (),
        )

    ambient = list(map(_ambient_weight, h3.terms, repeat(n)))
    needed = dict(zip(ambient, h3.terms.values()))
    if needed.pop(None, None) is not None:  # off-grade weights, sorted only then
        issues += [
            f"character weight {omega.coords} cannot arise at scaling grade {n}"
            for omega in sorted(w for w, nu in zip(h3.terms, ambient) if nu is None)
        ]

    cutoff = height_cutoff
    if cutoff is None:
        cutoff = max(s.auto_cutoff(needed) for s in strata.values())
    positive, listed = {}, set()
    for comp, s in strata.items():
        positive[comp], uncertified = s.positive_bounds(grade, cutoff)
        listed.update(uncertified)
    compared = sorted(set(needed).union(*positive.values()))
    unverified = sorted(listed.difference(compared))

    certified = True
    rows = []
    content_sides: set[str] = set()
    # each side's bounds once per compared weight: a certified positive
    # entry, or (0, upper, certified) read at the weight
    sides = [
        [pos.get(nu) or strata[comp].bounds_at(nu, grade, cutoff) for nu in compared]
        for comp, pos in positive.items()
    ]
    for nu, at in zip(compared, zip(*sides)):
        found = needed.get(nu, 0)
        lows, ups, certs = zip(*at)
        if found and not all(certs):
            certified = False
            issues.append(
                f"bounds at ambient weight {nu.coords} carrying formula content "
                f"are not certified at height cutoff {cutoff}"
            )
            continue
        # only a certified positive entry has a nonzero lower bound
        low, up = sum(lows), sum(ups)
        rows.append((nu, low, found, up))
        if not found:
            issues.append(
                f"certified lower bound {low} at ambient weight "
                f"{nu.coords} but the character vanishes there"
            )
        elif not low <= found <= up:
            issues.append(
                f"multiplicity {found} at ambient weight {nu.coords} "
                f"is outside [{low}, {up}]"
            )
        content_sides.update(compress(positive, lows))

    at_most_one = len(content_sides) <= 1
    if not at_most_one:
        issues.append("both unstable strata carry certified content at this grade")

    return CrossCheckReport(
        lam, k, n, grade, cutoff, component,
        certified, at_most_one, certified and not issues, tuple(issues), tuple(rows),
        tuple(unverified),
    )
