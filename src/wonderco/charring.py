"""Character-ring arithmetic.

Finitely supported characters over a weight lattice, irreducible characters
via the Freudenthal recursion, and the container for truncated expansions of
products of geometric series 1/(1 - e^beta) with the readers of finished
series.  The series themselves are built in one pass over their cone by
:func:`wonderco.schubert.kempf_character`, and
:func:`wonderco.schubert._stratum_bounds` is the one place two of them are
compared.

A :class:`TruncatedSeries` represents

    e^{numerator_exponent} * prod e^{alpha} / prod_{beta in denominator} (1 - e^beta)

expanded over the cone ``numerator_exponent + N . denominator``.  Two
truncation axes keep it finite: a window of degrees under a fixed grading
cocharacter, and a cutoff on the height of the offset from the numerator
exponent.  Within the window, multiplicities of weights whose offset height
is at most the cutoff are exact; beyond the cutoff they are lower bounds.

A series stores one packed integer key per term: its offset, a bit field
per simple root, with the offset's degree on top, so degree and height are
read off the fields (see :class:`TruncatedSeries`).
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Mapping
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
]


class TruncationError(Exception):
    """A query fell outside the certified region of a truncated object."""


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
    return Character((Weight(w), m) for w, m in terms.items())


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

def _key(vec: tuple[int, ...], bits: int, per_root: tuple[int, ...]) -> int:
    """The packed key of an integer vector in simple-root coordinates:
    coordinate j in the field at bit ``bits * j`` and the vector's degree
    above all of them.  Keys are linear in the vector, so while every
    coordinate stays in ``[0, 2**bits)`` a step along a lattice vector is
    one addition of that vector's key."""
    key = sum(c << bits * j for j, c in enumerate(vec))
    return key + (sum(map(operator.mul, per_root, vec)) << bits * len(vec))


class TruncatedSeries:
    """Windowed expansion of a cone series; see the module docstring.

    The stored form is ``packed``: each term's multiplicity keyed by the
    :func:`_key` of its offset ``mu - numerator_exponent``, in fields of
    ``bits``.  A term's degree is the numerator's plus
    ``key >> bits * rank``, and its offset height is the sum of its fields.
    Fields are set once and ``packed`` is read-only, so a cached series
    cannot be altered.
    """

    __slots__ = (
        "system",
        "grading",
        "numerator_exponent",
        "denominator",
        "window",
        "height_cutoff",
        "bits",
        "packed",
    )

    def __init__(
        self,
        system: RootSystem,
        grading: Grading,
        numerator_exponent: Weight,
        denominator: tuple[Root, ...],
        window: tuple[int, int],
        height_cutoff: int,
        bits: int,
        packed: Mapping[int, int],
    ):
        if window[0] > window[1]:
            raise ValueError(f"empty window {window}")
        self.system = system
        self.grading = grading
        self.numerator_exponent = numerator_exponent
        self.denominator = tuple(sorted(denominator))
        self.window = window
        self.height_cutoff = height_cutoff
        self.bits = bits
        self.packed = MappingProxyType(packed)

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"TruncatedSeries.{name} is read-only")
        object.__setattr__(self, name, value)

    # -- bookkeeping helpers

    def weight_of(self, offset: tuple[int, ...]) -> Weight:
        return Weight(
            b + sum(map(operator.mul, row, offset))
            for b, row in zip(self.numerator_exponent, self.system.cartan)
        )

    def offset_of(self, w: Weight) -> tuple[int, ...] | None:
        """The offset of ``w`` from the numerator exponent; None when the
        difference is off the root lattice."""
        return root_lattice_coords(self.system, w - self.numerator_exponent)

    def _columns(self) -> list[list[int]]:
        """The stored offsets unpacked, one list per simple root, in the
        order of ``packed``."""
        mask = (1 << self.bits) - 1
        return [
            [(key >> sh) & mask for key in self.packed]
            for sh in range(0, self.bits * self.system.rank, self.bits)
        ]

    def _weight_columns(self, by_root: list[list[int]]) -> list[list[int]]:
        """Weights of terms given by offset columns, a coordinate at a time
        over all terms: coordinate i is the numerator's plus row i of the
        Cartan matrix against the offsets."""
        coords = []
        for b, row in zip(self.numerator_exponent, self.system.cartan):
            acc = itertools.repeat(b, len(by_root[0]))
            for c, xs in zip(row, by_root):
                # chained lazily; the off-diagonal entries of a Cartan
                # matrix are mostly -1, which needs no product
                if c == -1:
                    acc = map(operator.sub, acc, xs)
                elif c:
                    scaled = map(operator.mul, xs, itertools.repeat(c))
                    acc = map(operator.add, acc, scaled)
            coords.append(list(acc))
        return coords

    def terms(self) -> dict[Weight, int]:
        """The stored terms keyed by their weights."""
        weights = map(Weight, zip(*self._weight_columns(self._columns())))
        return dict(zip(weights, self.packed.values()))

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

    def _key_of(self, offset: tuple[int, ...]) -> int | None:
        """The packed key of an offset; None outside every field, where no
        stored key can match."""
        if min(offset) < 0 or max(offset) >> self.bits:
            return None
        return _key(offset, self.bits, self.grading.simple_root_degrees)

    def multiplicity(self, w: Weight) -> int:
        off = self.offset_of(w)
        return 0 if off is None else self.packed.get(self._key_of(off), 0)

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
            f"TruncatedSeries({len(self.packed)} terms, window {self.window}, "
            f"H {self.height_cutoff})"
        )


DEFAULT_HEIGHT_CUTOFF = 12
