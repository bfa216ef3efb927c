"""Character-ring arithmetic.

Finitely supported characters over a weight lattice, and irreducible
characters via the Freudenthal recursion, all in exact integer
arithmetic.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Mapping
from functools import lru_cache
from types import MappingProxyType

from .rootsys import (
    RootSystem,
    Weight,
    _orbit,
    _parse_label,
    _symmetrizer,
    build_root_system,
    dominant_representative,
    half_sum_positive,
    root_lattice_coords,
    root_to_weight,
)

__all__ = [
    "Character",
    "TruncationError",
    "direct_sum_character",
    "weyl_character",
]


class TruncationError(Exception):
    """A query fell outside the certified region of a truncated object.
    Nothing in the package raises it; ``perfbench`` still catches it."""


# ---------------------------------------------------------------------------
# characters

class Character:
    """A finitely supported integer combination of formal exponentials e^mu.

    Built, as a ``dict`` is, from a mapping or from (weight, multiplicity)
    pairs, so a caller holding pairs builds no dict of its own; zero
    multiplicities are dropped.  ``terms`` is a read-only view built once
    and no field can be reassigned, so a cached character cannot be altered.
    """

    __slots__ = ("terms",)

    def __init__(
        self, terms: Mapping[Weight, int] | Iterable[tuple[Weight, int]] = ()
    ):
        if isinstance(terms, Mapping):
            terms = terms.items()
        self.terms = MappingProxyType({w: m for w, m in terms if m != 0})

    @classmethod
    def _wrap(cls, terms: dict[Weight, int]) -> Character:
        """Wrap, not copy, a fresh dict with no zero multiplicity."""
        ch = cls.__new__(cls)
        object.__setattr__(ch, "terms", MappingProxyType(terms))
        return ch

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"Character.{name} is read-only")
        object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        return isinstance(other, Character) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def dimension(self) -> int:
        return sum(self.terms.values())

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Character({len(self.terms)} terms, dim {self.dimension()})"


# ---------------------------------------------------------------------------
# irreducible characters

def _dominant_below(
    system: RootSystem, lam: Weight
) -> list[tuple[Weight, tuple[int, ...]]]:
    """Dominant weights mu with lam - mu a nonnegative root-lattice vector,
    each with the simple-root coordinates of lam - mu, ordered by
    increasing height of lam - mu.

    Every such mu satisfies lam - mu <= lam - w0(lam) coordinatewise in
    simple-root coordinates, so scanning that box is complete.
    """
    lowest = -dominant_representative(system, -lam)
    box = root_lattice_coords(system, lam - lowest)
    assert box is not None and all(c >= 0 for c in box)
    found: list[tuple[int, Weight, tuple[int, ...]]] = []
    for combo in itertools.product(*(range(c + 1) for c in box)):
        mu = Weight(
            li - sum(map(operator.mul, row, combo))
            for li, row in zip(lam, system.cartan)
        )
        if mu.is_dominant():
            found.append((sum(combo), mu, combo))
    return [(mu, combo) for _, mu, combo in sorted(found)]


@lru_cache(maxsize=None)
def _scaled_roots(system: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Each positive root alpha as the vector (d_j alpha_j), so that
    (nu, alpha) is its dot product with nu in fundamental coordinates."""
    d = _symmetrizer(system)
    return tuple(
        tuple(map(operator.mul, d, alpha)) for alpha in system.positive_roots
    )


@lru_cache(maxsize=128)
def _freudenthal(system: RootSystem, lam: Weight) -> tuple[tuple[Weight, int], ...]:
    """Dominant weight multiplicities of the irreducible of a simple
    ``system`` with highest weight ``lam``, as (mu, m(mu)) pairs, from the
    Freudenthal recursion

        (lam - mu, lam + mu + 2 rho) m(mu)
            = 2 sum_{alpha > 0} sum_{k >= 1} m(mu + k alpha) (mu + k alpha, alpha),

    evaluated on dominant weights in decreasing order; a weight off the
    dominant chamber has the multiplicity of its dominant representative.
    The form is the integer one of ``rootsys._symmetrizer``:
    (nu, alpha) = sum_j nu_j d_j alpha_j with nu in fundamental and alpha
    in simple-root coordinates, and the left factor is sum_j r_j d_j
    (lam + mu + 2 rho)_j with r the root coordinates of lam - mu.  Both
    sides are integers, and m(mu) is their exact quotient.
    """
    d = _symmetrizer(system)
    lam_2rho = lam + half_sum_positive(system).scale(2)
    steps = [
        (root_to_weight(system, alpha), scaled)
        for alpha, scaled in zip(system.positive_roots, _scaled_roots(system))
    ]
    mult: dict[Weight, int] = {}
    for mu, r in _dominant_below(system, lam):
        if mu == lam:
            mult[mu] = 1
            continue
        total = 0
        for alpha_w, scaled in steps:
            nu = mu
            while True:
                nu = nu + alpha_w
                nu_plus = dominant_representative(system, nu)
                m = mult.get(nu_plus)
                if m is None:
                    # nu is above lam or outside the support: every further
                    # step only moves higher along alpha, so stop scanning
                    diff = root_lattice_coords(system, lam - nu_plus)
                    if diff is None or any(x < 0 for x in diff):
                        break
                    m = 0
                if m:
                    total += 2 * m * sum(map(operator.mul, nu, scaled))
        if total:
            denom = sum(
                rj * dj * (mj + sj) for rj, dj, mj, sj in zip(r, d, mu, lam_2rho)
            )
            m_mu, rem = divmod(total, denom)
            assert rem == 0 and m_mu > 0, (lam, mu, total, denom)
            mult[mu] = m_mu
    return tuple(mult.items())


@lru_cache(maxsize=2048)
def _dominant_part(system: RootSystem, lam: Weight) -> tuple[tuple[tuple, int], ...]:
    """Multiplicities of the irreducible with highest weight ``lam``, one per
    Weyl orbit.  The irreducible of a product is the outer tensor product
    of its factors' (block-diagonal, in label order): an orbit is one factor
    orbit each, with the product of their :func:`_freudenthal` values."""
    if not lam.is_dominant():
        raise ValueError(f"highest weight {lam.coords} is not dominant")
    product, blocks = {(): 1}, []
    for series, r in _parse_label(system.type_label, None):
        f, off = build_root_system(series, r), len(blocks)
        part = _freudenthal(f, Weight(lam[off : off + r]))
        part = [(_orbit(f, mu), k) for mu, k in part]
        product = {(*key, o): m * k for key, m in product.items() for o, k in part}
        pad = system.rank - off - r
        blocks += ((0,) * off + row + (0,) * pad for row in f.cartan)
    assert tuple(blocks) == system.cartan, system.type_label
    return tuple(product.items())


@lru_cache(maxsize=4096)
def _spread(orbits: tuple[frozenset[Weight], ...]) -> tuple[Weight, ...]:
    """The Weyl orbit of a product system whose factor orbits are
    ``orbits``: every concatenation of one weight from each."""
    return tuple(Weight(itertools.chain(*ws)) for ws in itertools.product(*orbits))


def direct_sum_character(
    system: RootSystem, highest_weights: Iterable[Weight]
) -> Character:
    """Character of the direct sum of the irreducibles V(lam) over a
    multiset of dominant highest weights.

    Characters are Weyl-invariant, so the multiplicities are summed once
    per orbit, that is on dominant weights, and each orbit is then spread
    out once.  Distinct orbits are disjoint, so the spread adds nothing.
    """
    per_orbit: dict[tuple, int] = {}
    for lam in highest_weights:
        for orbit, m in _dominant_part(system, lam):
            per_orbit[orbit] = per_orbit.get(orbit, 0) + m
    return Character._wrap(
        {w: m for orbit, m in per_orbit.items() for w in _spread(orbit)}
    )


def weyl_character(system: RootSystem, lam: Weight) -> Character:
    """Character of the irreducible with highest weight ``lam``: the
    one-weight case of :func:`direct_sum_character`."""
    return direct_sum_character(system, (lam,))


# the cell series' default height cutoff (see ``schubert``); it stays here
# because ``perfbench`` imports it from this module
DEFAULT_HEIGHT_CUTOFF = 12
