"""Seeded query lists for the benchmark workloads.

Inputs are computed here from closed formulas, without calling the
program, so that the program receives only the generated queries.

Each list is sized so that the work of one pass hardly depends on the
seed: ``profile-box``, ``bundle-characters`` and ``cross-h3`` run every
bundle of a fixed region and the seed orders them (which moves the cold
cache misses between queries); ``kempf-bounds`` draws its levels per
window width from the seed and keeps one level per width that both
strata ask for, so every pass has the same number of shared series.
"""

from __future__ import annotations

import itertools
import random

WIDTHS = (10, 20, 30, 40)
# the levels -8..8 in thirds; a series' cost depends on its level
LEVEL_THIRDS = (range(-8, -2), range(-2, 3), range(3, 9))


def bundle_coords(a1: int, a2: int, b1: int, b2: int) -> tuple[int, int]:
    """Block-diagonal coordinates (f1, f2) of ``spanning_weight(a1, a2, b1, b2)``.

    The boundary classes are the doubled restricted roots (2, -1, 2, -1)
    and (-1, 2, -1, 2), so the weight is (f1, f2, f1, f2) with the values
    returned here.
    """
    return a1 + 2 * b1 - b2, a2 - b1 + 2 * b2


def level_and_grade(f1: int, f2: int) -> tuple[int, int]:
    """Level k and scaling grade n of the bundle (f1, f2, f1, f2)."""
    return f1 + f2, f2 - f1


def stratum_reaches(f1: int, f2: int) -> bool:
    """Whether an unstable stratum reaches the bundle's scaling grade."""
    k, n = level_and_grade(f1, f2)
    return n >= k + 8 or n <= -k - 8


def box_bundles(radius: int) -> list[tuple[int, int, int, int]]:
    """One coefficient tuple per distinct bundle of the coefficient box,
    the lexicographically first, sorted on the bundle coordinates."""
    first: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    for coeffs in itertools.product(range(-radius, radius + 1), repeat=4):
        first.setdefault(bundle_coords(*coeffs), coeffs)
    return [first[f] for f in sorted(first)]


def _shuffled(items: list, seed: int) -> list:
    random.Random(seed).shuffle(items)
    return items


def profile_box(seed: int) -> list[tuple[int, int, int, int]]:
    """The 385 distinct bundles of the radius-3 box, in seeded order."""
    return _shuffled(box_bundles(3), seed)


def bundle_characters(seed: int) -> list[tuple[int, int, int, int]]:
    """The 177 distinct bundles of the radius-2 box, in seeded order."""
    return _shuffled(box_bundles(2), seed)


def kempf_bounds(seed: int) -> list[tuple[str, int, int]]:
    """Sixteen (component, level, width) queries, four per window width.

    Per width the seed draws one level from each third of -8..8 and
    deals them out as a, b, c: F1 at a and F2 at -a, which share their
    three cell series (the second asked is served from the cache); F1 at
    b; F2 at -c, whose series are the first stratum's at level c.
    """
    rng = random.Random(seed)
    out = []
    for width in WIDTHS:
        a, b, c = rng.sample([rng.choice(third) for third in LEVEL_THIRDS], 3)
        out += [("F1", a, width), ("F2", -a, width), ("F1", b, width), ("F2", -c, width)]
    return _shuffled(out, rng.randrange(2**32))


def cross_h3(seed: int) -> list[tuple[int, int, int, int]]:
    """The 51 bundles of the radius-2 box that an unstable stratum reaches
    with |f1| + |f2| <= 11 and max(|f1|, |f2|) <= 6, in seeded order.

    The size caps keep the heaviest single query near one second.
    """
    def wanted(f1: int, f2: int) -> bool:
        return stratum_reaches(f1, f2) and abs(f1) + abs(f2) <= 11 and max(abs(f1), abs(f2)) <= 6

    return _shuffled([c for c in box_bundles(2) if wanted(*bundle_coords(*c))], seed)


WORKLOADS = {
    "profile-box": profile_box,
    "bundle-characters": bundle_characters,
    "kempf-bounds": kempf_bounds,
    "cross-h3": cross_h3,
}
