"""Schubert cells of the 3-plane Grassmannian in a 6-space.

The ambient group is the rank-5 special linear group acting on a 6-space
split into two 3-blocks; the Grassmannian of 3-planes is its quotient by
the maximal parabolic at the middle node.  This module enumerates the 20
Borel orbits (cells), computes the inversion data K(w)/L(w)/J(w) entering
the local-cohomology character of a cell closure,

    e^{w w0(lam)} prod_{alpha in K} e^alpha / prod_{beta in J} (1 - e^beta)

with w0 the longest element of the parabolic's Weyl subgroup, expands that
character as a truncated series graded by the scaling cocharacter (twice
the middle fundamental coweight), and derives per-weight character bounds
for the two unstable strata of the split-block scaling action: the first
stratum is a cell closure, the second is its image under the block swap.

A :class:`TruncatedSeries` holds such a character expanded over the cone
``numerator + N . J``.  Two truncation axes keep it finite: a window of
scaling degrees, and a cutoff on the height of the offset from the
numerator.  Within the window, multiplicities of weights whose offset
height is at most the cutoff are exact; beyond it they are lower bounds.
Each term is stored as one packed integer key of its offset, a bit field
per simple root with the offset's degree on top, so degree and height are
read off the fields.  Only :func:`kempf_character` builds series, through
the one fold of :func:`_cone_keys`: positive-degree roots first, then the
terms below the window dropped, then the degree-0 roots, which leave every
degree as it is.  :func:`_stratum_bounds` is the one place two series are
compared.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

from .charring import DEFAULT_HEIGHT_CUTOFF, Character
from .rootsys import (
    Root,
    Weight,
    WeylElement,
    act,
    build_root_system,
    coset_reps,
    longest_parabolic,
    root_lattice_coords,
    root_to_weight,
)

__all__ = [
    "GRASS_SYSTEM",
    "LEVI",
    "CSTAR_GRADING",
    "Grading",
    "TruncatedSeries",
    "SchubertCell",
    "InversionData",
    "enumerate_cells",
    "cell_for_fixed_point",
    "component_cell",
    "one_line",
    "closure_contains",
    "covering_cells",
    "kl_sets",
    "cell_exponent",
    "kempf_character",
    "unstable_character_bounds",
    "cousin_terms",
    "swap_blocks_weight",
]

GRASS_SYSTEM = build_root_system("A5")

# simple roots of the parabolic's Levi factor: everything but the middle node
LEVI = frozenset({1, 2, 4, 5})

_DIM = 9


@dataclass(frozen=True)
class SchubertCell:
    """A Borel orbit on the Grassmannian.

    ``fixed_point`` is the 3-subset of {1..6} spanning the torus-fixed
    coordinate plane of the cell (4..6 are the second-block lines);
    ``codim`` is 9 minus the cell dimension, and the closed point carries
    the identity with codimension 9.
    """

    w: WeylElement
    codim: int
    fixed_point: tuple[int, int, int]


@dataclass(frozen=True)
class InversionData:
    """Root data of a cell's local-cohomology character.

    ``K``: images of the parabolic-radical roots that stay positive;
    ``L``: sign-flipped images, recorded positively; ``J``: their union,
    the denominator of the character.
    """

    K: tuple[Root, ...]
    L: tuple[Root, ...]
    J: tuple[Root, ...]


def one_line(w: WeylElement) -> tuple[int, ...]:
    """The permutation of {1..6} given by the word, as images of 1..6."""
    perm = list(range(1, 7))
    for j in reversed(w.word):
        perm = [j + 1 if x == j else j if x == j + 1 else x for x in perm]
    return tuple(perm)


@lru_cache(maxsize=1)
def enumerate_cells() -> tuple[SchubertCell, ...]:
    """All 20 cells, in increasing dimension."""
    cells = []
    for w in coset_reps(GRASS_SYSTEM, LEVI):
        perm = one_line(w)
        fp = tuple(sorted(perm[:3]))
        cells.append(SchubertCell(w, _DIM - len(w), fp))
    return tuple(cells)


def cell_for_fixed_point(subset) -> SchubertCell:
    key = tuple(sorted(subset))
    for cell in enumerate_cells():
        if cell.fixed_point == key:
            return cell
    raise ValueError(f"{key} is not a 3-subset of {{1..6}}")


def component_cell(component: str) -> SchubertCell:
    """The cell whose closure is the first unstable stratum.

    The stratum consists of the planes meeting the first block in
    dimension at least 2; its fixed points are the 3-subsets with at least
    two entries in {1,2,3}, and the open cell sits at their maximum in the
    domination order.  Only the first stratum is a cell closure: the
    second is its image under the block swap, which does not normalize the
    Borel.
    """
    if component != "F1":
        raise ValueError(f"no cell closure for component {component!r}")
    best = max(
        (
            c.fixed_point
            for c in enumerate_cells()
            if sum(1 for i in c.fixed_point if i <= 3) >= 2
        ),
    )
    return cell_for_fixed_point(best)


def closure_contains(outer: SchubertCell, inner: SchubertCell) -> bool:
    """Whether the inner cell lies in the closure of the outer one.

    Componentwise domination of the sorted fixed-point subsets is the
    Bruhat order on these cosets.
    """
    return all(
        i <= o for i, o in zip(inner.fixed_point, outer.fixed_point)
    )


@lru_cache(maxsize=1)
def covering_cells() -> tuple[SchubertCell, ...]:
    """The first stratum's open cell, then its codimension-one boundary
    cells: the three closures whose series bound the stratum."""
    top = component_cell("F1")
    return (top,) + tuple(
        c
        for c in enumerate_cells()
        if c.codim == top.codim + 1 and closure_contains(top, c)
    )


# ---------------------------------------------------------------------------
# inversion sets

@lru_cache(maxsize=1)
def _radical_roots() -> tuple[Root, ...]:
    """Positive roots outside the Levi: those with middle coefficient 1."""
    return tuple(
        r
        for r in GRASS_SYSTEM.positive_roots
        if r[2] > 0
    )


def _check_minimal(w: WeylElement) -> None:
    for i in LEVI:
        image = act(w, Root(int(j + 1 == i) for j in range(5)))
        if any(c < 0 for c in image):
            raise ValueError(
                "not a minimal coset representative: "
                f"word {w.word} inverts a Levi simple root"
            )


def _graded_lex(r: Root) -> tuple:
    return (sum(r), tuple(-c for c in r))


@lru_cache(maxsize=32)
def kl_sets(w: WeylElement) -> InversionData:
    """Inversion data of a cell: how ``w`` moves the radical roots."""
    _check_minimal(w)
    kept, flipped = [], []
    for beta in _radical_roots():
        image = act(w, beta)
        if all(c >= 0 for c in image):
            kept.append(image)
        else:
            flipped.append(-image)
    return InversionData(
        tuple(sorted(kept, key=_graded_lex)),
        tuple(sorted(flipped, key=_graded_lex)),
        tuple(sorted(kept + flipped, key=_graded_lex)),
    )


# ---------------------------------------------------------------------------
# character series

@lru_cache(maxsize=32)
def _exponent_element(w: WeylElement) -> WeylElement:
    # the Weyl product is the costly part of an exponent; one per cell
    return w * longest_parabolic(GRASS_SYSTEM, LEVI)


def cell_exponent(w: WeylElement, k: int) -> Weight:
    """The exponent w w0(k varpi_3), w0 the Levi longest element."""
    lam = Weight(k * int(i == 2) for i in range(5))
    return act(_exponent_element(w), lam)


@lru_cache(maxsize=256)
def _numerator(w: WeylElement, k: int) -> Weight:
    num = cell_exponent(w, k)
    for alpha in kl_sets(w).K:
        num = num + root_to_weight(GRASS_SYSTEM, alpha)
    return num


# ---------------------------------------------------------------------------
# truncated series

@dataclass(frozen=True)
class Grading:
    """An integer grading cocharacter of ``GRASS_SYSTEM``, recorded by its
    values on the fundamental weights."""

    values: tuple[int, ...]

    def degree(self, w: Weight) -> int:
        return sum(map(operator.mul, self.values, w))

    @cached_property
    def simple_root_degrees(self) -> tuple[int, ...]:
        """Degree of each simple root; root degrees are linear in these."""
        c = GRASS_SYSTEM.cartan
        n = GRASS_SYSTEM.rank
        return tuple(
            sum(self.values[i] * c[i][j] for i in range(n)) for j in range(n)
        )


# the scaling cocharacter (twice the middle fundamental coweight) evaluated
# on the fundamental weights
CSTAR_GRADING = Grading((1, 2, 3, 2, 1))


def _key(vec: tuple[int, ...], bits: int) -> int:
    """The packed key of an integer vector in simple-root coordinates:
    coordinate j in the field at bit ``bits * j`` and the vector's degree
    above all of them.  Keys are linear in the vector, so while every
    coordinate stays in ``[0, 2**bits)`` a step along a lattice vector is
    one addition of that vector's key."""
    key = sum(c << bits * j for j, c in enumerate(vec))
    per_root = CSTAR_GRADING.simple_root_degrees
    return key + (sum(map(operator.mul, per_root, vec)) << bits * len(vec))


class TruncatedSeries:
    """Windowed expansion of a cell character; see the module docstring.

    The stored form is ``packed``: each term's multiplicity keyed by the
    :func:`_key` of its offset ``mu - numerator_exponent``, in fields of
    ``bits``.  A term's degree is the numerator's plus
    ``key >> bits * rank``, and its offset height is the sum of its fields.
    Fields are set once and ``packed`` is read-only, so a cached series
    cannot be altered.
    """

    __slots__ = (
        "numerator_exponent",
        "denominator",
        "window",
        "height_cutoff",
        "bits",
        "packed",
    )

    def __init__(
        self,
        numerator_exponent: Weight,
        denominator: tuple[Root, ...],
        window: tuple[int, int],
        height_cutoff: int,
        bits: int,
        packed: Mapping[int, int],
    ):
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
            for b, row in zip(self.numerator_exponent, GRASS_SYSTEM.cartan)
        )

    def offset_of(self, w: Weight) -> tuple[int, ...] | None:
        """The offset of ``w`` from the numerator exponent; None when the
        difference is off the root lattice."""
        return root_lattice_coords(GRASS_SYSTEM, w - self.numerator_exponent)

    def _columns(self) -> list[list[int]]:
        """The stored offsets unpacked, one list per simple root, in the
        order of ``packed``."""
        mask = (1 << self.bits) - 1
        return [
            [(key >> sh) & mask for key in self.packed]
            for sh in range(0, self.bits * GRASS_SYSTEM.rank, self.bits)
        ]

    def _weight_columns(self, by_root: list[list[int]]) -> list[list[int]]:
        """Weights of terms given by offset columns, a coordinate at a time
        over all terms: coordinate i is the numerator's plus row i of the
        Cartan matrix against the offsets."""
        coords = []
        for b, row in zip(self.numerator_exponent, GRASS_SYSTEM.cartan):
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
        d = CSTAR_GRADING.degree(w)
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
        return _key(offset, self.bits)

    def multiplicity(self, w: Weight) -> int:
        off = self.offset_of(w)
        return 0 if off is None else self.packed.get(self._key_of(off), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.window == other.window
            and self.height_cutoff == other.height_cutoff
            and self.terms() == other.terms()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TruncatedSeries({len(self.packed)} terms, window {self.window}, "
            f"H {self.height_cutoff})"
        )


def _cone_keys(
    roots: tuple[Root, ...], base: int, window: tuple[int, int], cutoff: int
) -> tuple[int, dict[int, int]]:
    """The expansion of 1 / prod (1 - e^beta) inside the window, as the
    field width and the packed keys of ``TruncatedSeries``.

    A term at offset o has degree ``base`` plus the grading of o.  The roots
    are folded in one at a time with the running sum T(o) = S(o) + T(o -
    beta), visiting terms by increasing height; a term is extended only
    while its height stays within the cutoff and its degree at most the
    window top.  Roots of positive degree go first, then those of degree 0,
    tallest first in each class.  After the last positive-degree root every
    term's degree is final, so the terms below the window floor are dropped
    there.  No root has negative degree and every root positive height, so
    a dropped term never comes back and a kept term is reached only through
    kept ones: in any root order, the result is exactly the full cone's
    terms with height at most the cutoff and degree inside the window.  No
    coordinate exceeds the cutoff, which sets the field width, and the
    degree field sits on top, so a step along a root is a single addition
    and the window is a range of keys.
    """
    lo, hi = window
    per_root = CSTAR_GRADING.simple_root_degrees
    degrees = [sum(map(operator.mul, per_root, beta)) for beta in roots]
    if any(d < 0 for d in degrees):
        # no cell's J set has such a root: an internal invariant
        raise AssertionError("negative-degree denominator root in a product")
    bits = max(1, cutoff.bit_length())
    if base > hi or cutoff < 0:
        return bits, {}
    deg_shift = bits * GRASS_SYSTEM.rank
    limit = (hi - base + 1) << deg_shift
    floor = (lo - base) << deg_shift

    def fold(beta: Root) -> None:
        ht = sum(beta)
        step = _key(beta, bits)
        for h in range(cutoff - ht + 1):
            dst = by_height[h + ht]
            for key, m in by_height[h].items():
                key += step
                if key < limit:
                    dst[key] = dst.get(key, 0) + m

    by_height: list[dict[int, int]] = [{} for _ in range(cutoff + 1)]
    by_height[0][0] = 1
    tallest_first = sorted(zip(degrees, roots), key=lambda dr: -sum(dr[1]))
    for d, beta in tallest_first:
        if d:
            fold(beta)
    if floor > 0:
        # only degree-0 roots remain: every term's degree is final
        by_height = [{x: m for x, m in t.items() if x >= floor} for t in by_height]
    for d, beta in tallest_first:
        if not d:
            fold(beta)
    return bits, {key: m for terms in by_height for key, m in terms.items()}


@lru_cache(maxsize=512)
def kempf_character(
    w: WeylElement,
    k: int,
    window: tuple[int, int],
    height_cutoff: int = DEFAULT_HEIGHT_CUTOFF,
) -> TruncatedSeries:
    """Local-cohomology character of a cell closure as a truncated series.

    The window is in scaling degrees.  The denominator has no root of
    negative degree, so nothing lives below the numerator degree and the
    whole window is certified up to the height cutoff.  Results are cached
    and immutable.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window {window}")
    num = _numerator(w, k)
    roots = kl_sets(w).J
    bits, keys = _cone_keys(roots, CSTAR_GRADING.degree(num), window, height_cutoff)
    return TruncatedSeries(num, roots, window, height_cutoff, bits, keys)


def _swap_blocks(cols: list) -> list:
    """The block swap on weight coordinates given as columns (sequences of
    equal length, one per fundamental coordinate).

    With eps_j = mu_j + ... + mu_5 the coordinate-line values, the swap
    sends eps to (eps_4, eps_5, eps_6 = 0, eps_1, eps_2, eps_3); taking
    consecutive differences again gives (mu_4, mu_5, -sum(mu), mu_1, mu_2).
    """
    c0, c1, _, c3, c4 = cols
    return [c3, c4, list(map(operator.neg, map(sum, zip(*cols)))), c0, c1]


def swap_blocks_weight(mu: Weight) -> Weight:
    """Weight action of the block swap exchanging e_i and e*_i.

    As a permutation of the six coordinate lines it is the product of the
    longest Weyl element with the Levi longest element.
    """
    return Weight(col[0] for col in _swap_blocks([(c,) for c in mu]))


def _stratum_bounds(
    component: str, k: int, window: tuple[int, int], height_cutoff: int
) -> tuple[TruncatedSeries, list[list[int]], list[int]]:
    """The first stratum's open-cell series behind ``component``'s bounds,
    its offset columns (``TruncatedSeries._columns``) and each term's lower
    bound, all in the order of ``packed``; the upper bound is the term's
    multiplicity.  See :func:`unstable_character_bounds`."""
    lo, hi = window
    if component == "F2":
        k, window = -k, (-hi, -lo)
    elif component != "F1":
        raise ValueError(f"unknown component {component!r}")
    # every stored term survives the height and degree pruning, so the
    # read-off is exact on its support
    top, *boundary = (
        kempf_character(cell.w, k, window, height_cutoff)
        for cell in covering_cells()
    )
    # subtract on the open cell's terms.  Its term at offset o sits at
    # o - s in a boundary series, s that numerator's offset; all three share
    # one field width, so the boundary key is the open cell's less the key
    # of s.  A positive boundary term off the open cell's support leaves no
    # positive lower bound there.
    cols = top._columns()
    lower = list(top.packed.values())
    for series in boundary:
        s = root_lattice_coords(
            GRASS_SYSTEM, series.numerator_exponent - top.numerator_exponent
        )
        if s is None:
            raise AssertionError("boundary numerator off the open cell's lattice coset")
        if min(series.packed.values(), default=1) <= 0:
            raise AssertionError("nonpositive boundary multiplicity")
        delta = _key(s, top.bits)
        shifted = [key - delta for key in top.packed]
        for col, sj in zip(cols, s):
            if sj:
                # a field shifted out of [0, cutoff] holds no boundary
                # term, and its key would alias a neighbouring field
                for i, c in enumerate(col):
                    if not sj <= c <= height_cutoff + sj:
                        shifted[i] = None
        got = series.packed
        lower = [m - got[x] if x in got else m for m, x in zip(lower, shifted)]
    return top, cols, lower


def _stratum_weights(component: str, top: TruncatedSeries, cols: list) -> list[Weight]:
    """Weights of the open cell's terms with these offset columns, swapped for F2."""
    weight_cols = top._weight_columns(cols)
    if component == "F2":
        weight_cols = _swap_blocks(weight_cols)
    return list(map(Weight, zip(*weight_cols)))


def unstable_character_bounds(
    component: str,
    k: int,
    window: tuple[int, int],
    height_cutoff: int = DEFAULT_HEIGHT_CUTOFF,
) -> tuple[Character, Character]:
    """Per-weight lower and upper bounds on an unstable-stratum character.

    The upper bound is the character of the covering cell closure; the
    lower bound subtracts the two boundary-cell characters and floors at
    zero.  The second stratum is handled through the block swap: its
    character at parameter k is the swapped image of the first stratum's
    at -k, so the window reverses.  Bounds are exact zero below the first
    stratum's degree floor and above the second's ceiling; elsewhere they
    are valid on weights within the height cutoff.
    """
    top, cols, lower = _stratum_bounds(component, k, window, height_cutoff)
    weights = _stratum_weights(component, top, cols)
    return (
        Character((w, m) for w, m in zip(weights, lower) if m > 0),
        Character(zip(weights, top.packed.values())),
    )


def cousin_terms(
    w: WeylElement,
    k: int,
    depth: int,
    window: tuple[int, int],
    height_cutoff: int = DEFAULT_HEIGHT_CUTOFF,
) -> tuple[tuple[TruncatedSeries, ...], ...]:
    """Character series of the closure strata below a cell, by depth.

    Entry j holds the cached :func:`kempf_character` series of the cells
    of codimension codim(w)+j inside the closure of the cell of ``w``, all
    on ``window`` at ``height_cutoff``; each certifies its own terms through
    ``is_certified``.  The sequence stops early when no cells remain (depth
    0 is the cell itself).  A Cousin sum adds the members of entry j with
    sign (-1)^j, weight by weight.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    _check_minimal(w)
    base_cell = next(c for c in enumerate_cells() if c.w == w)
    out = []
    for j in range(depth + 1):
        group = tuple(
            kempf_character(c.w, k, window, height_cutoff)
            for c in enumerate_cells()
            if c.codim == base_cell.codim + j and closure_contains(base_cell, c)
        )
        if not group:
            break
        out.append(group)
    return tuple(out)
