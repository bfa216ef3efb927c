"""End-to-end acceptance checks for the whole pipeline.

Ten criteria tie the modules together: the operator-criterion sweep, the
graded decomposition of the degree-three exterior power, the inversion sets
and leading exponents of the boundary cells, the extremal degrees of the
unstable-stratum series, fixed-point combinatorics, the vanishing pattern
and Serre duality of the compactified-group cohomology, the cross-route
multiplicity bounds, and agreement of every computation route with an
independent oracle.

Golden values live as JSON files in the package ``fixtures`` directory.
Every randomized check draws from a seeded generator, so a report is
reproducible from its seed alone.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
import time
from collections.abc import Callable
from functools import lru_cache
from io import TextIOBase
from pathlib import Path

from .charring import DEFAULT_HEIGHT_CUTOFF, weyl_character
from .gitgrass import decompose_module, fixed_points, unstable_component
from .opcrit import abstract_sweep, joint_solution_set, series_matrices
from .rootsys import (
    RootSystem,
    Weight,
    WeylElement,
    _record,
    act,
    build_root_system,
    coset_reps,
    dominant_representative,
    half_sum_positive,
    root_lattice_coords,
    root_to_weight,
    simple_root,
)
from .satake import catalog_diagram, catalog_names, check_involution
from .schubert import (
    CSTAR_GRADING,
    GRASS_SYSTEM,
    LEVI,
    _numerator,
    cell_exponent,
    cell_for_fixed_point,
    closure_contains,
    component_cell,
    covering_cells,
    enumerate_cells,
    kempf_character,
    kl_sets,
    unstable_character_bounds,
)
from .wondercoh import (
    cross_validate_h3,
    serre_dual_check,
    spanning_weight,
    vanishing_profile,
)

__all__ = [
    "AcceptanceReport",
    "CriterionResult",
    "FixtureError",
    "fixtures_dir",
    "load_fixture",
    "run_acceptance",
]

DEFAULT_SEED = 20260823

# the published settings: the width of the criterion-4 windows (expanded
# at ``DEFAULT_HEIGHT_CUTOFF``), the radius of the coefficient box that
# criteria 7-9 draw from, and the number of criterion-8 duality samples
WINDOW_WIDTH = 40
BOX_RADIUS = 5
DUALITY_SAMPLES = 50

ALLOWED_DEGREES = frozenset({0, 3, 5, 8})

# sample points whose middle cohomology is nonzero, so the cross-route
# bounds are exercised with real content on both strata orientations
NONZERO_H3_SAMPLES = (
    (-4, 2),
    (2, -4),
    (-4, 3),
    (3, -4),
    (-4, 4),
    (4, -4),
)

# random pairs drawn for the cross-route check besides the fixed samples
_CROSS_ROUTE_DRAWS = 20


class FixtureError(ValueError):
    """A golden fixture file is missing or malformed."""


class _Mismatch(Exception):
    """A criterion computed a value other than the expected one."""


class _Uncertified(Exception):
    """A criterion's bounds are too coarse to decide it."""


def fixtures_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


def load_fixture(name: str) -> dict:
    path = fixtures_dir() / name
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"fixture {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FixtureError(f"fixture {path} must hold a JSON object")
    return data


@_record
class CriterionResult:
    number: int
    title: str
    passed: bool
    kind: str  # "ok", "mismatch", or "certification"
    elapsed: float
    detail: str

    def line(self, timed: bool = True) -> str:
        status = "PASS" if self.passed else "FAIL"
        timing = f"({self.elapsed:.2f}s) " if timed else ""
        return (
            f"criterion {self.number:>2}/10 {status} "
            f"{timing}{self.title}: {self.detail}"
        )


@_record
class AcceptanceReport:
    seed: int
    results: tuple[CriterionResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self, timed: bool = True) -> list[str]:
        """One line per criterion and a summary; ``timed=False`` leaves out
        the run times, for output that must be byte-stable."""
        out = [r.line(timed) for r in self.results]
        good = sum(1 for r in self.results if r.passed)
        out.append(f"{good}/{len(self.results)} criteria passed")
        return out

    def to_dict(self, timed: bool = True) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "criteria": [
                {
                    "number": r.number,
                    "title": r.title,
                    "passed": r.passed,
                    "kind": r.kind,
                    **({"elapsed": round(r.elapsed, 2)} if timed else {}),
                    "detail": r.detail,
                }
                for r in self.results
            ],
        }


# ---------------------------------------------------------------------------
# criterion 1: operator classification sweep


def _check_operator_sweep(rng: random.Random) -> str:
    sweep = abstract_sweep(max_rank=8)
    exists = {label for label, ok in sweep.items() if ok}
    if exists != {"A1", "A2", "BC1"}:
        raise _Mismatch(f"solutions found for {sorted(exists)}")
    for matrix in series_matrices("A2"):
        pairs = joint_solution_set((matrix,), 12)
        if not pairs:
            raise _Mismatch("A2 admits no solutions up to bound 12")
        unequal = [p for p in pairs if len(set(p)) != 1]
        if unequal:
            raise _Mismatch(f"A2 solutions with unequal entries: {unequal}")
    return (
        "among reduced types of rank <= 8 and BC ranks 2..8, solutions occur "
        "exactly for A1 and A2 (plus the degenerate BC1 case); all A2 "
        "exponent pairs are equal"
    )


# ---------------------------------------------------------------------------
# criterion 2: decomposition of the degree-three exterior power


def _check_module_decomposition(rng: random.Random) -> str:
    golden = load_fixture("module_summands.json")
    want = sorted((d, c, tuple(hw)) for d, c, hw in golden["summands"])
    got = sorted((s.dim, s.cstar, s.highest_weight.coords) for s in decompose_module())
    if got != want:
        raise _Mismatch(f"(dim, weight, highest weight) summands {got} != {want}")
    total = sum(d for d, *_ in got)
    if total != 20:
        raise _Mismatch(f"total dimension {total} != 20")
    return (
        "summand dimensions (9, 9, 1, 1) with scaling weights (1, -1, 3, -3) "
        "summing to dimension 20"
    )


# ---------------------------------------------------------------------------
# criterion 3: inversion sets of the boundary cells


def _covering_elements() -> dict[str, WeylElement]:
    """The covering cells' Weyl elements under their fixture names, in
    the order of ``covering_cells``: the open cell, then s5 w and s1 w."""
    return dict(zip(("w", "s5w", "s1w"), (c.w for c in covering_cells())))


def _check_inversion_sets(rng: random.Random) -> str:
    golden = load_fixture("inversion_sets.json")
    for name, w in _covering_elements().items():
        data = kl_sets(w)
        for side in ("K", "L"):
            want = {tuple(v) for v in golden[name][side]}
            got = {r.coords for r in getattr(data, side)}
            if got != want:
                raise _Mismatch(f"{side}({name}) = {sorted(got)} != {sorted(want)}")
    return "all six stored root lists match exactly"


# ---------------------------------------------------------------------------
# criterion 4: extremal degrees of the unstable-stratum series


def bounds_window(component: str, k: int) -> tuple[int, int]:
    """The criterion-4 window at level ``k``: up from ``k`` on F1, down on F2."""
    return (k, k + WINDOW_WIDTH) if component == "F1" else (k - WINDOW_WIDTH, k)


def _check_weight_bounds(rng: random.Random) -> str:
    golden = load_fixture("weight_bound_offsets.json")
    for k in range(0, 7):
        for comp in ("F1", "F2"):
            window = bounds_window(comp, k)
            _, upper = unstable_character_bounds(comp, k, window, DEFAULT_HEIGHT_CUTOFF)
            if not upper.terms:
                raise _Mismatch(f"{comp} series empty at level {k}")
            degrees = [CSTAR_GRADING.degree(w) for w in upper.terms]
            extreme = min(degrees) if golden[comp]["extreme"] == "min" else max(degrees)
            want = k + golden[comp]["offset"]
            if extreme != want:
                raise _Mismatch(
                    f"{comp} extremal degree {extreme} != {want} at level {k}"
                )
    return (
        f"for levels 0..6 on width-{WINDOW_WIDTH} windows, the F1 series starts at "
        "k + 8 and the F2 series ends at k - 8"
    )


# ---------------------------------------------------------------------------
# criterion 5: leading exponents of the boundary cells


def _check_leading_exponents(rng: random.Random) -> str:
    golden = load_fixture("leading_exponent_slopes.json")
    slopes = {name: tuple(golden[name]) for name in ("w", "s1w", "s5w")}
    combos = {
        "w": (1, -1, -1),
        "s1w": (1, -1, 1),
        "s5w": (1, 1, -1),
    }
    alpha = {
        i: root_to_weight(GRASS_SYSTEM, simple_root(GRASS_SYSTEM, i))
        for i in (1, 3, 5)
    }
    for name, (c3, c5, c1) in combos.items():
        doubled = Weight(tuple(2 * s for s in slopes[name]))
        combo = alpha[3].scale(c3) + alpha[5].scale(c5) + alpha[1].scale(c1)
        if doubled != combo:
            raise _Mismatch(f"stored slope for {name} is not half the root combination")
    for name, w in _covering_elements().items():
        for k in range(0, 7):
            want = Weight(tuple(k * s for s in slopes[name]))
            got = cell_exponent(w, k)
            if got != want:
                raise _Mismatch(
                    f"exponent of {name} at level {k}: {got.coords} != {want.coords}"
                )
    return (
        "cell exponents match the stored slopes for levels 0..6, and each "
        "doubled slope is the expected signed combination of simple roots"
    )


# ---------------------------------------------------------------------------
# criterion 6: fixed-point combinatorics


def _check_fixed_points(rng: random.Random) -> str:
    reps = coset_reps(GRASS_SYSTEM, LEVI)
    if len(reps) != 20:
        raise _Mismatch(f"|W^P| = {len(reps)} != 20")
    pts = fixed_points()
    if len(pts) != 20:
        raise _Mismatch(f"{len(pts)} torus-fixed points != 20")
    tally: dict[str | None, int] = {}
    for p in pts:
        comp = unstable_component(p)
        tally[comp] = tally.get(comp, 0) + 1
    if tally.get(None):
        raise _Mismatch(f"{tally[None]} fixed points are semistable")
    if tally.get("F1") != 10 or tally.get("F2") != 10:
        raise _Mismatch(f"stratum tally {tally} != 10 + 10")

    golden = load_fixture("stratum_poset.json")
    nodes = [tuple(n) for n in golden["nodes"]]
    want_covers = {(tuple(a), tuple(b)) for a, b in golden["covers"]}
    cells = {n: cell_for_fixed_point(n) for n in nodes}
    top = component_cell("F1")
    for n in nodes:
        if not closure_contains(top, cells[n]):
            raise _Mismatch(f"node {n} escapes the stratum closure")
    covers = set()
    for a in nodes:
        for b in nodes:
            if a == b or not closure_contains(cells[a], cells[b]):
                continue
            if any(
                c not in (a, b)
                and closure_contains(cells[a], cells[c])
                and closure_contains(cells[c], cells[b])
                for c in nodes
            ):
                continue
            covers.add((a, b))
    if covers != want_covers:
        extra = sorted(covers - want_covers)
        missing = sorted(want_covers - covers)
        raise _Mismatch(f"cover relations differ: extra {extra}, missing {missing}")
    return (
        "20 minimal coset representatives; 10 fixed points on each stratum, "
        "none semistable; the 10-node poset embeds with all 13 covers"
    )


# ---------------------------------------------------------------------------
# criterion 7: vanishing degrees over the coefficient box


def _coefficient_box():
    span = range(-BOX_RADIUS, BOX_RADIUS + 1)
    return itertools.product(span, span, span, span)


def _check_vanishing_profiles(rng: random.Random) -> str:
    seen: set[Weight] = set()
    profiles: set[frozenset[int]] = set()
    for coeffs in _coefficient_box():
        lam = spanning_weight(*coeffs)
        if lam in seen:
            continue
        seen.add(lam)
        profile = vanishing_profile(lam)
        profiles.add(profile)
        if not profile <= ALLOWED_DEGREES:
            raise _Mismatch(
                f"profile {sorted(profile)} at coefficients {coeffs} leaves "
                f"{sorted(ALLOWED_DEGREES)}"
            )
    return (
        f"{len(seen)} line bundles in the radius-{BOX_RADIUS} coefficient "
        f"box; every nonvanishing degree lies in {{0, 3, 5, 8}} "
        f"({len(profiles)} distinct profiles)"
    )


# ---------------------------------------------------------------------------
# criterion 8: Serre duality


def _sampled_coefficients(
    rng: random.Random, count: int, size: int = 4, taken=()
) -> list[tuple[int, ...]]:
    """``count`` distinct draws from ``[-BOX_RADIUS, BOX_RADIUS]**size``
    outside ``taken``, in the order drawn."""
    seen = set(taken)
    out = []
    while len(out) < count:
        coeffs = tuple(rng.randint(-BOX_RADIUS, BOX_RADIUS) for _ in range(size))
        if coeffs not in seen:
            seen.add(coeffs)
            out.append(coeffs)
    return out


def _check_serre_duality(rng: random.Random) -> str:
    samples = _sampled_coefficients(rng, DUALITY_SAMPLES)
    for coeffs in samples:
        lam = spanning_weight(*coeffs)
        for i in range(0, 9):
            if not serre_dual_check(lam, i):
                raise _Mismatch(f"duality fails at coefficients {coeffs}, degree {i}")
    return (
        f"all {len(samples)} sampled line bundles are dual to their mirror "
        "in complementary degrees 0..8"
    )


# ---------------------------------------------------------------------------
# criterion 9: cross-route multiplicity bounds


def _check_cross_route(rng: random.Random) -> str:
    drawn = _sampled_coefficients(rng, _CROSS_ROUTE_DRAWS, 2, NONZERO_H3_SAMPLES)
    pairs = [*NONZERO_H3_SAMPLES, *drawn]
    with_content = 0
    for a1, a2 in pairs:
        # a report is ok only if at most one stratum carries content
        report = cross_validate_h3(spanning_weight(a1, a2, 0, 0))
        issues = "; ".join(report.issues)
        if not report.certified:
            raise _Uncertified(f"bounds not certified at ({a1}, {a2}): {issues}")
        if not report.ok:
            raise _Mismatch(f"bound violation at ({a1}, {a2}): {issues}")
        if any(found for _, _, found, _ in report.rows):
            with_content += 1
    return (
        f"{len(pairs)} weights checked ({with_content} with nonzero middle "
        "cohomology); every graded multiplicity sits inside its certified "
        "bounds and at most one stratum contributes"
    )


# ---------------------------------------------------------------------------
# criterion 10: independent oracle agreement


def _vector_partition_counts(system: RootSystem) -> Callable:
    roots = tuple(r.coords for r in system.positive_roots)
    n = system.rank

    @lru_cache(maxsize=None)
    def count(vec: tuple[int, ...], idx: int) -> int:
        if not any(vec):
            return 1
        if idx == len(roots):
            return 0
        r = roots[idx]
        total = 0
        k = 0
        while all(vec[i] - k * r[i] >= 0 for i in range(n)):
            total += count(tuple(vec[i] - k * r[i] for i in range(n)), idx + 1)
            k += 1
        return total

    return count


def _alternant_multiplicities(
    system: RootSystem,
    lam: Weight,
    counter: Callable,
    weyl: tuple[WeylElement, ...],
) -> dict[Weight, int]:
    """Dominant weight multiplicities of the irreducible with highest weight
    ``lam``, via the alternating sum of vector-partition counts over the
    Weyl group ``weyl``."""
    rho = half_sum_positive(system)
    cartan = system.cartan
    # w(lam+rho) - (lam+rho) lies in the root lattice, so against the
    # translate mu + rho = (lam+rho) - combo the partition argument is the
    # integer vector delta_w + combo
    deltas = []
    for w in weyl:
        step = root_lattice_coords(system, act(w, lam + rho) - (lam + rho))
        assert step is not None
        deltas.append(((-1) ** len(w.word), step))
    lowest = -dominant_representative(system, -lam)
    box = root_lattice_coords(system, lam - lowest)
    assert box is not None
    # the last coordinate of the box runs innermost, each step subtracting
    # the last Cartan column from the weight
    column = tuple(row[-1] for row in cartan)
    out: dict[Weight, int] = {}
    for head in itertools.product(*(range(c + 1) for c in box[:-1])):
        coords = tuple(
            li - sum(map(operator.mul, row, head)) for li, row in zip(lam, cartan)
        )
        for last in range(box[-1] + 1):
            if min(coords) >= 0:
                combo = (*head, last)
                m = 0
                for sign, delta in deltas:
                    vec = tuple(map(operator.add, delta, combo))
                    if min(vec) < 0:
                        continue
                    m += sign * counter(vec, 0)
                if m:
                    out[Weight(coords)] = m
            coords = tuple(map(operator.sub, coords, column))
    return out


def _characters_agree(
    system: RootSystem,
    lam: Weight,
    counter: Callable,
    weyl: tuple[WeylElement, ...],
) -> bool:
    produced = weyl_character(system, lam)
    dominant = _alternant_multiplicities(system, lam, counter, weyl)
    for w, m in produced.terms.items():
        plus = dominant_representative(system, w)
        if dominant.get(plus, 0) != m:
            return False
    return all(mu in produced.terms for mu in dominant)


def _check_oracles(rng: random.Random) -> str:
    # irreducible characters against the alternating partition-count sum
    char_checks = 0
    for label in ("A1", "A2", "A2xA2"):
        system = build_root_system(label)
        counter = _vector_partition_counts(system)
        weyl = coset_reps(system, frozenset())
        for coords in itertools.product(range(5), repeat=system.rank):
            lam = Weight(coords)
            if not _characters_agree(system, lam, counter, weyl):
                raise _Mismatch(
                    f"character routes disagree for {label} weight {coords}"
                )
            char_checks += 1

    # Kempf series of 8 distinct cells, each its numerator times one
    # geometric factor per denominator root, against direct convolution of
    # those factors.  The floor sits in turn at the numerator degree and
    # one above it, where a clipped or overreaching floor shows; nothing
    # may be stored outside the certified region.
    series_checks = 0
    for i, cell in enumerate(rng.sample(enumerate_cells(), 8)):
        k = rng.randint(-4, 4)
        base = CSTAR_GRADING.degree(_numerator(cell.w, k))
        window = (base + i % 2, base + 10)
        series = kempf_character(cell.w, k, window, 6)
        brute, terms = _convolved_terms(series), series.terms()
        for w in set(brute) | set(terms):
            want = brute.get(w, 0) if series.is_certified(w) else 0
            if terms.get(w, 0) != want:
                raise _Mismatch(
                    f"series product disagrees with convolution at {w.coords}"
                )
        series_checks += 1

    # the diagram involutions square to the identity and permute the roots
    for name in catalog_names():
        diagram = catalog_diagram(name)
        if not check_involution(diagram):
            raise _Mismatch(f"{name} does not induce an involution")
    return (
        f"{char_checks} characters match the alternating-sum route; "
        f"{series_checks} random products match convolution; all "
        f"{len(catalog_names())} catalog involutions square to the identity "
        "and permute the roots"
    )


def _convolved_terms(series) -> dict[Weight, int]:
    """Fully expand a cone series by direct convolution up to its height
    cutoff, ignoring the degree window."""
    n = GRASS_SYSTEM.rank
    acc = {(0,) * n: 1}
    for beta in series.denominator:
        step = sum(beta.coords)
        new: dict[tuple[int, ...], int] = {}
        for off, m in acc.items():
            k = 0
            while sum(off) + k * step <= series.height_cutoff:
                key = tuple(off[i] + k * beta.coords[i] for i in range(n))
                new[key] = new.get(key, 0) + m
                k += 1
        acc = new
    return {series.weight_of(o): m for o, m in acc.items()}


# ---------------------------------------------------------------------------
# the engine: a check returns its pass detail, or raises ``_Mismatch`` or
# ``_Uncertified`` with the failure detail

_CRITERIA: tuple[tuple[int, str, Callable, float | None], ...] = (
    (1, "operator classification sweep", _check_operator_sweep, 5.0),
    (2, "graded module decomposition", _check_module_decomposition, None),
    (3, "boundary-cell inversion sets", _check_inversion_sets, None),
    (4, "unstable-stratum degree bounds", _check_weight_bounds, 10.0),
    (5, "boundary-cell leading exponents", _check_leading_exponents, None),
    (6, "fixed-point combinatorics", _check_fixed_points, None),
    (7, "cohomology vanishing degrees", _check_vanishing_profiles, None),
    (8, "Serre duality", _check_serre_duality, None),
    (9, "cross-route multiplicity bounds", _check_cross_route, None),
    (10, "independent oracle agreement", _check_oracles, None),
)


def run_acceptance(
    seed: int = DEFAULT_SEED, stream: TextIOBase | None = None
) -> AcceptanceReport:
    """Run all ten criteria and return the report.

    Criterion ``number`` draws from ``random.Random(seed * 101 + number)``.
    When ``stream`` is given, one pass/fail line per criterion is written as
    soon as that criterion finishes, followed by a summary line.
    """
    results: list[CriterionResult] = []
    for number, title, func, limit in _CRITERIA:
        start = time.perf_counter()
        try:
            kind, detail = "ok", func(random.Random(seed * 101 + number))
        except _Uncertified as exc:
            kind, detail = "certification", str(exc)
        except (FixtureError, _Mismatch) as exc:
            kind, detail = "mismatch", str(exc)
        elapsed = time.perf_counter() - start
        if kind == "ok" and limit is not None and elapsed >= limit:
            kind = "mismatch"
            detail += f"; runtime {elapsed:.2f}s exceeded the {limit:.0f}s budget"
        elif kind == "ok" and limit is not None:
            detail += f"; within the {limit:.0f}s budget"
        result = CriterionResult(number, title, kind == "ok", kind, elapsed, detail)
        results.append(result)
        if stream is not None:
            print(result.line(), file=stream, flush=True)
    report = AcceptanceReport(seed, tuple(results))
    if stream is not None:
        print(report.lines()[-1], file=stream, flush=True)
    return report
