"""Character-ring arithmetic.

Finitely supported characters over a weight lattice, irreducible characters
via the Freudenthal recursion, and the container for truncated expansions of
products of geometric series 1/(1 - e^beta) with the operations that read
and combine finished series.  The series themselves are built in one pass
over their cone by :func:`wonderco.schubert.kempf_character`.

A :class:`TruncatedSeries` represents

    e^{numerator_exponent} * prod e^{alpha} / prod_{beta in denominator} (1 - e^beta)

expanded over the cone ``numerator_exponent + N . denominator``.  Two
truncation axes keep it finite: a window of degrees under a fixed grading
cocharacter, and a cutoff on the height of the offset from the numerator
exponent.  Within the window, multiplicities of weights whose offset height
is at most the cutoff are exact; beyond the cutoff they are lower bounds.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

from .rootsys import (
    Root,
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
    "Grading",
    "TruncatedSeries",
    "TruncationError",
    "weyl_character",
    "weyl_dimension",
    "add",
    "restrict_window",
]


class TruncationError(Exception):
    """A query fell outside the certified region of a truncated object."""


# ---------------------------------------------------------------------------
# characters

class Character:
    """A finitely supported integer combination of formal exponentials e^mu.

    ``terms`` is a read-only view built once and no field can be reassigned,
    so a cached character cannot be altered.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Weight, int] | None = None):
        self.terms = MappingProxyType(
            {w: m for w, m in (terms or {}).items() if m != 0}
        )

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


def _freudenthal(system: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Weight multiplicities of the irreducible of a simple ``system`` with
    highest weight ``lam``, from the Freudenthal recursion

        (lam - mu, lam + mu + 2 rho) m(mu)
            = 2 sum_{alpha > 0} sum_{k >= 1} m(mu + k alpha) (mu + k alpha, alpha),

    evaluated on dominant weights in decreasing order and spread over Weyl
    orbits.  The form is the integer one of ``rootsys._symmetrizer``:
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
    return {w: m for mu, m in mult.items() for w in _orbit(system, mu)}


def weyl_character(system: RootSystem, lam: Weight) -> Character:
    """Character of the irreducible module with highest weight ``lam``.

    ``build_root_system`` lays the simple factors of a label such as
    ``"A2xA2"`` out block-diagonally in label order.  The irreducible of a
    product is the outer tensor product of its factors' irreducibles, so
    its character is the product of the factor characters of
    :func:`_freudenthal` on the factors' slices of ``lam``: each weight is
    the concatenation of one weight per factor.
    """
    if not lam.is_dominant():
        raise ValueError(f"highest weight {lam.coords} is not dominant")
    terms: dict[tuple[int, ...], int] = {(): 1}
    blocks: list[tuple[int, ...]] = []
    for series, r in _parse_label(system.type_label, None):
        factor = build_root_system(series, r)
        off = len(blocks)
        blocks += (
            (0,) * off + row + (0,) * (system.rank - off - r) for row in factor.cartan
        )
        part = _freudenthal(factor, Weight(lam[off : off + r]))
        terms = {(*w, *v): m * k for w, m in terms.items() for v, k in part.items()}
    assert tuple(blocks) == system.cartan, system.type_label
    return Character({Weight(w): m for w, m in terms.items()})


def weyl_dimension(system: RootSystem, lam: Weight) -> int:
    """dim of the irreducible with highest weight lam, by the product formula
    prod_{alpha > 0} (lam + rho, alpha) / (rho, alpha), as one exact ratio
    of integer products under the form of ``rootsys._symmetrizer``."""
    if not lam.is_dominant():
        raise ValueError(f"highest weight {lam.coords} is not dominant")
    rho = half_sum_positive(system)
    lam_rho = lam + rho
    num = den = 1
    for scaled in _scaled_roots(system):
        num *= sum(map(operator.mul, lam_rho, scaled))
        den *= sum(map(operator.mul, rho, scaled))
    dim, rem = divmod(num, den)
    assert rem == 0
    return dim


# ---------------------------------------------------------------------------
# gradings

@dataclass(frozen=True)
class Grading:
    """An integer grading cocharacter, recorded by its values on the
    fundamental weights."""

    system: RootSystem
    values: tuple[int, ...]

    def degree(self, w: Weight) -> int:
        return sum(map(operator.mul, self.values, w))

    @cached_property
    def simple_root_degrees(self) -> tuple[int, ...]:
        """Degree of each simple root; root degrees are linear in these."""
        c = self.system.cartan
        n = self.system.rank
        return tuple(
            sum(self.values[i] * c[i][j] for i in range(n)) for j in range(n)
        )


# ---------------------------------------------------------------------------
# truncated series

class TruncatedSeries:
    """Windowed expansion of a cone series; see the module docstring.

    Internally terms are keyed by the offset ``mu - numerator_exponent`` in
    simple-root coordinates; all offsets lie in the nonnegative cone spanned
    by the denominator roots.  Fields are set once and ``offsets`` is a
    read-only view, so a cached series cannot be altered.
    """

    __slots__ = (
        "system",
        "grading",
        "numerator_exponent",
        "denominator",
        "window",
        "height_cutoff",
        "offsets",
    )

    def __init__(
        self,
        system: RootSystem,
        grading: Grading,
        numerator_exponent: Weight,
        denominator: tuple[Root, ...],
        window: tuple[int, int],
        height_cutoff: int,
        offsets: Mapping[tuple[int, ...], int],
    ):
        if window[0] > window[1]:
            raise ValueError(f"empty window {window}")
        self.system = system
        self.grading = grading
        self.numerator_exponent = numerator_exponent
        self.denominator = tuple(sorted(denominator))
        self.window = window
        self.height_cutoff = height_cutoff
        self.offsets = MappingProxyType(offsets)

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"TruncatedSeries.{name} is read-only")
        object.__setattr__(self, name, value)

    # -- bookkeeping helpers

    def base_degree(self) -> int:
        return self.grading.degree(self.numerator_exponent)

    def weight_of(self, offset: tuple[int, ...]) -> Weight:
        return Weight(
            b + sum(map(operator.mul, row, offset))
            for b, row in zip(self.numerator_exponent, self.system.cartan)
        )

    def _offset_degrees(self) -> dict[tuple[int, ...], int]:
        """Degree of each stored term, computed linearly in the offset."""
        per_root = self.grading.simple_root_degrees
        base = self.base_degree()
        return {
            o: base + sum(map(operator.mul, per_root, o)) for o in self.offsets
        }

    def offset_of(self, w: Weight) -> tuple[int, ...] | None:
        """The offset of ``w`` from the numerator exponent; None when the
        difference is off the root lattice."""
        return root_lattice_coords(self.system, w - self.numerator_exponent)

    def terms(self) -> dict[Weight, int]:
        """The stored terms keyed by their weights.

        Computed a coordinate at a time over all terms: coordinate i is the
        numerator's plus row i of the Cartan matrix against the offsets.
        """
        n = len(self.offsets)
        by_root = list(zip(*self.offsets))
        coords = []
        for b, row in zip(self.numerator_exponent, self.system.cartan):
            acc = [b] * n
            for c, xs in zip(row, by_root):
                if c:
                    scaled = map(operator.mul, xs, itertools.repeat(c))
                    acc = list(map(operator.add, acc, scaled))
            coords.append(acc)
        return dict(zip(map(Weight, zip(*coords)), self.offsets.values()))

    def is_certified(self, w: Weight) -> bool:
        """True when the stored multiplicity of ``w`` is exact: integral
        offset of height at most the cutoff, degree inside the window."""
        d = self.grading.degree(w)
        if not self.window[0] <= d <= self.window[1]:
            return False
        off = self.offset_of(w)
        if off is None:
            return True  # off-lattice weights never occur: zero is exact
        return sum(off) <= self.height_cutoff

    def multiplicity(self, w: Weight) -> int:
        off = self.offset_of(w)
        return 0 if off is None else self.offsets.get(off, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.system == other.system
            and self.grading == other.grading
            and self.window == other.window
            and self.height_cutoff == other.height_cutoff
            and self.terms() == other.terms()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TruncatedSeries({len(self.offsets)} terms, window {self.window}, "
            f"H {self.height_cutoff})"
        )


DEFAULT_HEIGHT_CUTOFF = 12


def _rebased(
    s: TruncatedSeries, base: Weight
) -> tuple[tuple[int, ...], dict[tuple[int, ...], int]] | None:
    """The terms of ``s`` keyed by their offsets from ``base`` instead of
    from its numerator exponent, with the shift ``numerator - base`` in
    simple-root coordinates; None when that difference is off the root
    lattice.  A term's offset from ``base`` is its own plus the shift, so
    one lattice solve moves every term, a coordinate at a time."""
    shift = root_lattice_coords(s.system, s.numerator_exponent - base)
    if shift is None:
        return None
    by_root = [
        list(map(operator.add, xs, itertools.repeat(d))) if d else xs
        for xs, d in zip(zip(*s.offsets), shift)
    ]
    return shift, dict(zip(zip(*by_root), s.offsets.values()))


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Sum of two series sharing a window.

    The terms of ``b`` are rebased onto ``a``'s numerator exponent, which
    must differ from ``b``'s by a root-lattice vector.  Both windows must
    reach down to both base degrees, so the sum is complete from its true
    degree floor.  The height cutoff shrinks so that a height certified
    against the common base is certified in both summands.
    """
    if a.system != b.system:
        raise ValueError("mismatched lattices")
    if a.grading != b.grading:
        raise ValueError("mismatched gradings")
    if a.window != b.window:
        raise ValueError(f"mismatched windows {a.window} and {b.window}")
    if a.window[0] > min(a.base_degree(), b.base_degree()):
        raise ValueError(
            "window floor above a summand's base degree; "
            "sum would be uncertifiable"
        )
    rebased = _rebased(b, a.numerator_exponent)
    if rebased is None:
        raise ValueError(
            "numerator exponents differ by a non-root-lattice vector"
        )
    shift, moved = rebased
    cutoff = min(a.height_cutoff, b.height_cutoff + sum(shift))
    out = dict(a.offsets)
    for key, m in moved.items():
        out[key] = out.get(key, 0) + m
    return TruncatedSeries(
        a.system,
        a.grading,
        a.numerator_exponent,
        tuple(set(a.denominator) | set(b.denominator)),
        a.window,
        cutoff,
        out,
    )


def restrict_window(s: TruncatedSeries, window: tuple[int, int]) -> TruncatedSeries:
    """Shrink the certified window, dropping terms outside it."""
    if not (s.window[0] <= window[0] and window[1] <= s.window[1]):
        raise TruncationError(
            f"window {window} is not contained in the certified "
            f"window {s.window}"
        )
    degrees = s._offset_degrees()
    kept = {
        o: m
        for o, m in s.offsets.items()
        if window[0] <= degrees[o] <= window[1]
    }
    return TruncatedSeries(
        s.system,
        s.grading,
        s.numerator_exponent,
        s.denominator,
        window,
        s.height_cutoff,
        kept,
    )
