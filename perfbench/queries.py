"""What each workload asks the program, and how its answers are checked.

Every workload has ``run`` (the program calls of one query, the only
timed part), ``check`` (``None`` or a failure class) and ``answer`` (the
canonical fields the CLI prints, for the output digest).  Calls go only
through public names: module ``__all__`` entries or names ``cli.py``
imports.  Inside a query the layers are called bottom-up, so that each
span holds one layer's new work; a call that cannot be split from the
outside is spanned whole and documented as inclusive.
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path
from time import perf_counter

from wonderco import wondercoh
from wonderco.charring import DEFAULT_HEIGHT_CUTOFF, weyl_character
from wonderco.schubert import (
    CSTAR_GRADING,
    closure_contains,
    component_cell,
    enumerate_cells,
    kempf_character,
    unstable_character_bounds,
)
from wonderco.wondercoh import (
    cross_validate_h3,
    h_character,
    serre_dual_check,
    spanning_weight,
    spherical_data,
    tchoudjem_components,
    vanishing_profile,
)

ALLOWED_DEGREES = frozenset({0, 3, 5, 8})  # acceptance criterion 7

MISMATCH = "mismatch"
CERTIFICATION = "certification"


class Tracer:
    """Spans around the benchmark's calls into the layers, kept in memory.

    A span is (name, query index, start, end); the query's own span is
    named ``query`` and is the parent of every other span with its index.
    When disabled, ``call`` only forwards, so untraced passes make the
    same program calls.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, int, float, float]] = []
        self.query = -1

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, self.query, start, perf_counter()))


def _coords(w) -> list[int]:
    return list(w.coords)


def _terms(ch) -> list:
    return [[_coords(w), m] for w, m in ch.sorted_items()]


class Pass:
    """Counters shared by the queries of one pass (caches are shared too)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: dict[str, float] = {}
        self.modules: dict = {}  # highest weight -> index of first requesting query
        self.cutoffs: list[int] = []

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def profile(self, lam) -> frozenset[int]:
        """The vanishing profile, counting the contributing highest weights."""
        profile = self.tracer.call("wondercoh.profile", vanishing_profile, lam)
        for i in profile:
            self.add("components", len(tchoudjem_components(lam, i)))
        return profile

    def request_modules(self, weights) -> None:
        """Count module requests; a query reuses a module an earlier one asked for."""
        reused = False
        for mu in weights:
            self.add("module_requests")
            first = self.modules.setdefault(mu, self.tracer.query)
            reused |= first < self.tracer.query
        self.add("module_reuse_queries", reused)

    def kempf_calls(self, before) -> None:
        after = kempf_character.cache_info()
        hits = after.hits - before.hits
        self.add("kempf_calls", hits + after.misses - before.misses)
        self.add("kempf_hits", hits)
        self.add("kempf_hit_queries", hits > 0)

    def probe_modules(self) -> None:
        """Recompute each requested module once, spanned as ``charring``.

        ``h_character`` evaluates the modules inside its own call, which
        the benchmark cannot split; this probe runs after the timed queries
        of a traced pass and gives that layer's work on the same modules.
        """
        lattice = spherical_data().lattice
        for mu in self.modules:
            ch = self.tracer.call("charring.weyl_character", weyl_character, lattice, mu)
            self.add("weyl_character_terms", len(ch.terms))


# ---------------------------------------------------------------------------
# profile-box: c7's question


class ProfileBox:
    @staticmethod
    def run(q, ps: Pass):
        lam = spanning_weight(*q)
        return lam, ps.profile(lam)

    @staticmethod
    def check(q, result):
        return None if result[1] <= ALLOWED_DEGREES else MISMATCH

    @staticmethod
    def answer(q, result):
        lam, profile = result
        return {"coefficients": list(q), "weight": _coords(lam), "profile": sorted(profile)}


# ---------------------------------------------------------------------------
# bundle-characters: c8's and c10's question


class BundleCharacters:
    @staticmethod
    def run(q, ps: Pass):
        data = spherical_data()
        lam = spanning_weight(*q)
        call = ps.tracer.call
        profile = sorted(ps.profile(lam))
        if not profile:
            return lam, []
        mirror = -lam - data.canonical_shift
        # the mirror's enumeration, which serre_dual_check would run inside
        ps.profile(mirror)
        # h_character asks for the bundle's modules; serre_dual_check asks
        # for them again and for the mirror's in the complementary degree
        requests = []
        for i in profile:
            own = tchoudjem_components(lam, i)
            requests += own + own + tchoudjem_components(mirror, data.dim_y - i)
        ps.request_modules(requests)
        rows = []
        for i in profile:
            ch = call("wondercoh.h_character", h_character, lam, i)
            dual_ok = call("wondercoh.serre_dual_check", serre_dual_check, lam, i)
            rows.append((i, ch, dual_ok))
        return lam, rows

    @staticmethod
    def check(q, result):
        ok = all(ch and dual_ok for _, ch, dual_ok in result[1])
        return None if ok else MISMATCH

    @staticmethod
    def answer(q, result):
        lam, rows = result
        return {
            "coefficients": list(q),
            "weight": _coords(lam),
            "degrees": [
                {"degree": i, "dimension": ch.dimension(), "terms": _terms(ch), "dual": dual_ok}
                for i, ch, dual_ok in rows
            ],
        }


# ---------------------------------------------------------------------------
# kempf-bounds: c4's question (``wonderco schubert kempf``)


@cache
def _extremes() -> dict:
    """Extremal degrees of the stratum series, as offsets from the level."""
    path = Path(wondercoh.__file__).parent / "fixtures" / "weight_bound_offsets.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _covering_cells():
    """The first stratum's open cell and its codimension-one boundary cells."""
    top = component_cell("F1")
    return [top] + [
        c
        for c in enumerate_cells()
        if c.codim == top.codim + 1 and closure_contains(top, c)
    ]


def _degree_dimensions(ch) -> dict[int, int]:
    dims: dict[int, int] = {}
    for w, m in ch.terms.items():
        d = CSTAR_GRADING.degree(w)
        dims[d] = dims.get(d, 0) + m
    return dims


class KempfBounds:
    @staticmethod
    def run(q, ps: Pass):
        comp, k, width = q
        window = (k, k + width) if comp == "F1" else (k - width, k)
        # the second stratum is the swapped first one at level -k on the
        # reversed window; its cell series are computed first, bottom-up
        level, cell_window = (k, window) if comp == "F1" else (-k, (-window[1], -window[0]))
        before = kempf_character.cache_info()
        for cell in _covering_cells():
            ps.tracer.call(
                "schubert.kempf_character", kempf_character,
                cell.w, level, cell_window, DEFAULT_HEIGHT_CUTOFF,
            )
        ps.kempf_calls(before)
        lower, upper = ps.tracer.call(
            "schubert.unstable_character_bounds", unstable_character_bounds,
            comp, k, window, DEFAULT_HEIGHT_CUTOFF,
        )
        ps.add("upper_terms", len(upper.terms))
        return window, lower, upper

    @staticmethod
    def check(q, result):
        comp, k, _ = q
        _, lower, upper = result
        if not upper.terms:
            return MISMATCH
        degrees = [CSTAR_GRADING.degree(w) for w in upper.terms]
        golden = _extremes()[comp]
        extreme = min(degrees) if golden["extreme"] == "min" else max(degrees)
        if extreme != k + golden["offset"]:
            return MISMATCH
        if any(m > upper.terms.get(w, 0) for w, m in lower.terms.items()):
            return MISMATCH
        return None

    @staticmethod
    def answer(q, result):
        comp, k, _ = q
        window, lower, upper = result
        low, up = _degree_dimensions(lower), _degree_dimensions(upper)
        return {
            "cell": comp,
            "k": k,
            "window": list(window),
            "height_cutoff": DEFAULT_HEIGHT_CUTOFF,
            "min_degree": min(up, default=None),
            "max_degree": max(up, default=None),
            "degrees": [[d, low.get(d, 0), up[d]] for d in sorted(up)],
        }


# ---------------------------------------------------------------------------
# cross-h3: c9's question (``wonderco cohomology --i 3``)


class CrossH3:
    @staticmethod
    def run(q, ps: Pass):
        lam = spanning_weight(*q)
        call = ps.tracer.call
        profile = ps.profile(lam)
        ps.request_modules(tchoudjem_components(lam, 3))
        ch = call("wondercoh.h_character", h_character, lam, 3)
        before = kempf_character.cache_info()
        # inclusive: the auto cutoff, the cell series and the bounds
        report = call("wondercoh.cross_validate_h3", cross_validate_h3, lam)
        ps.kempf_calls(before)
        ps.cutoffs.append(report.height_cutoff)
        ps.add("above_default_cutoff", report.height_cutoff > DEFAULT_HEIGHT_CUTOFF)
        ps.add("rows", len(report.rows))
        ps.add("unverified", len(report.unverified))
        return lam, profile, ch, report

    @staticmethod
    def check(q, result):
        report = result[3]
        if not report.certified:
            return CERTIFICATION
        return None if report.ok else MISMATCH

    @staticmethod
    def answer(q, result):
        lam, profile, ch, report = result
        return {
            "coefficients": list(q),
            "weight": _coords(lam),
            "profile": sorted(profile),
            "dimension": ch.dimension(),
            "terms": _terms(ch),
            "cross_check": {
                "k": report.k,
                "n": report.n,
                "window": list(report.window),
                "height_cutoff": report.height_cutoff,
                "component": report.component,
                "certified": report.certified,
                "at_most_one": report.at_most_one,
                "ok": report.ok,
                "issues": list(report.issues),
                "rows": [
                    [_coords(w), lo, found, hi]
                    for w, lo, found, hi in sorted(report.rows, key=lambda r: r[0].coords)
                ],
                "unverified": sorted(_coords(w) for w in report.unverified),
            },
        }


WORKLOADS = {
    "profile-box": ProfileBox,
    "bundle-characters": BundleCharacters,
    "kempf-bounds": KempfBounds,
    "cross-h3": CrossH3,
}
