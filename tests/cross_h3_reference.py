"""Test-side degree-3 cross-check that certifies weight by weight.

An oracle for ``wondercoh.cross_validate_h3`` on bundles that an unstable
stratum reaches.  It reads the bounds on the single-grade window through
``unstable_character_bounds`` as ``Weight``-keyed characters and certifies every compared weight with ``is_certified`` in each of the
three covering-cell series (swapped into the first stratum's frame for the
mirror), and takes the auto cutoff as the largest offset height of a
formula weight over all three numerators.  ``cross_validate_h3`` reads the
bounds through ``schubert.UnstableStratum``, which certifies a weight by its
offset height over the open cell's numerator against one limit, so the two
share the bounds subtraction but neither the certification, the cutoff nor
the comparison.  This module does not import ``UnstableStratum``.
"""

from wonderco.charring import DEFAULT_HEIGHT_CUTOFF
from wonderco.gitgrass import sheaf_correspondence
from wonderco.rootsys import root_lattice_coords
from wonderco.schubert import (
    GRASS_SYSTEM,
    _numerator,
    covering_cells,
    kempf_character,
    swap_blocks_weight,
    unstable_character_bounds,
)
from wonderco.wondercoh import (
    CrossCheckReport,
    _ambient_weight,
    h_character,
)


def every_series_certified(series, probe):
    """Certification as defined: every covering-cell series certifies."""
    return all(s.is_certified(probe) for s in series)


def every_numerator_cutoff(k, probes, f1_open, f2_open):
    """The cutoff reaching each integral probe's offset height over every
    covering-cell numerator, and at least the default."""
    targets = set()
    if f1_open:
        targets |= probes
    if f2_open:
        targets |= {swap_blocks_weight(nu) for nu in probes}
    cutoff = DEFAULT_HEIGHT_CUTOFF
    for cell in covering_cells():
        num = _numerator(cell.w, k)
        for probe in targets:
            off = root_lattice_coords(GRASS_SYSTEM, probe - num)
            if off is not None:
                cutoff = max(cutoff, sum(off))
    return cutoff


def reference_cross_h3(lam, height_cutoff=None):
    """The report of ``cross_validate_h3(lam, height_cutoff)``."""
    desc = sheaf_correspondence(lam)
    k, n = desc.k, desc.n
    h3 = h_character(lam, 3)
    f1_open, f2_open = n >= k + 8, n <= -k - 8
    labels = {(True, True): "F1+F2", (True, False): "F1", (False, True): "F2"}
    component = labels.get((f1_open, f2_open))
    assert component is not None, "the reference covers reached grades only"
    issues = []
    needed = {}
    for omega in sorted(h3.terms, key=lambda w: w.coords):
        nu = _ambient_weight(omega, n)
        if nu is None:
            issues.append(
                f"character weight {omega.coords} cannot arise at scaling "
                f"grade {n}"
            )
            continue
        needed[nu] = h3.terms[omega]
    cutoff = (
        every_numerator_cutoff(k, set(needed), f1_open, f2_open)
        if height_cutoff is None
        else height_cutoff
    )

    lower_by_comp, upper_total, checkers = {}, {}, {}
    for comp, is_open in (("F1", f1_open), ("F2", f2_open)):
        if not is_open:
            continue
        level = k if comp == "F1" else -k
        lower, upper = unstable_character_bounds(comp, level, (n, n), cutoff)
        lower_by_comp[comp] = lower.terms
        for w, m in upper.terms.items():
            upper_total[w] = upper_total.get(w, 0) + m
        grade = (n, n) if comp == "F1" else (-n, -n)
        series = [kempf_character(c.w, k, grade, cutoff) for c in covering_cells()]
        checkers[comp] = series, (swap_blocks_weight if comp == "F2" else None)

    def comp_certified(comp, nu):
        series, mapper = checkers[comp]
        return every_series_certified(series, mapper(nu) if mapper else nu)

    lower_total = {}
    for slice_ in lower_by_comp.values():
        for w, m in slice_.items():
            lower_total[w] = lower_total.get(w, 0) + m

    certified = True
    rows, unverified, content_sides = [], [], set()
    for nu in sorted(set(needed) | set(lower_total), key=lambda w: w.coords):
        found = needed.get(nu, 0)
        cert_map = {comp: comp_certified(comp, nu) for comp in checkers}
        if found > 0:
            if not all(cert_map.values()):
                certified = False
                issues.append(
                    f"bounds at ambient weight {nu.coords} carrying "
                    f"formula content are not certified at height cutoff "
                    f"{cutoff}"
                )
                continue
            low = lower_total.get(nu, 0)
            up = upper_total.get(nu, 0)
            rows.append((nu, low, found, up))
            if not low <= found <= up:
                issues.append(
                    f"multiplicity {found} at ambient weight {nu.coords} "
                    f"is outside [{low}, {up}]"
                )
            for comp in checkers:
                if lower_by_comp[comp].get(nu, 0) > 0:
                    content_sides.add(comp)
            continue
        low = sum(
            lower_by_comp[comp].get(nu, 0) for comp in checkers if cert_map[comp]
        )
        if low > 0:
            rows.append((nu, low, found, upper_total.get(nu, 0)))
            issues.append(
                f"certified lower bound {low} at ambient weight "
                f"{nu.coords} but the character vanishes there"
            )
            for comp in checkers:
                if cert_map[comp] and lower_by_comp[comp].get(nu, 0) > 0:
                    content_sides.add(comp)
        elif any(
            not cert_map[comp] and lower_by_comp[comp].get(nu, 0) > 0
            for comp in checkers
        ):
            unverified.append(nu)

    at_most_one = len(content_sides) <= 1
    if not at_most_one:
        issues.append("both unstable strata carry certified content at this grade")
    return CrossCheckReport(
        lam, k, n, (n, n), cutoff, component,
        certified, at_most_one, certified and not issues, tuple(issues),
        tuple(rows), tuple(unverified),
    )
