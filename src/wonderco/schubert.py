"""Schubert cells of the 3-plane Grassmannian in a 6-space.

The ambient group is the rank-5 special linear group acting on a 6-space
split into two 3-blocks; the Grassmannian of 3-planes is its quotient by
the maximal parabolic at the middle node.  This module enumerates the 20
Borel orbits (cells), computes the inversion data K(w)/L(w)/J(w) entering
the local-cohomology character of a cell closure,

    e^{w w0(lam)} prod_{alpha in K} e^alpha / prod_{beta in J} (1 - e^beta)

with w0 the longest element of the parabolic's Weyl subgroup, which
fixes lam = k varpi_3, so the exponent is w(lam).  It expands that
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
degree as it is.  The cone is level-free: it is cached per window relative
to the numerator degree, and every level on that relative window shares
it, with its read-off (:class:`_Cone`): a level's weights are the cone's
Cartan image plus its numerator.  A window with its floor below the
numerator degree, whatever its top, is a cut of one full cone per cell and
cutoff, read-off included.  Both are in the first stratum's frame:
:class:`UnstableStratum` alone maps a read-off into the second's, and owns
the strata's cached bounds (shared by a stratum and its mirror) and their
certification.  No other module reads packed series.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property, lru_cache, partial, reduce
from types import MappingProxyType

from .charring import DEFAULT_HEIGHT_CUTOFF, Character
from .rootsys import (
    Root,
    Weight,
    WeylElement,
    _cartan_inverse,
    _record,
    act,
    build_root_system,
    coset_reps,
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
    "UnstableStratum",
    "unstable_character_bounds",
    "swap_blocks_weight",
]

GRASS_SYSTEM = build_root_system("A5")

# simple roots of the parabolic's Levi factor: everything but the middle node
LEVI = frozenset({1, 2, 4, 5})

_DIM = 9


@_record
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


@_record
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
    fixed = (c.fixed_point for c in enumerate_cells())
    best = max(fp for fp in fixed if sum(i <= 3 for i in fp) >= 2)
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
    return tuple(r for r in GRASS_SYSTEM.positive_roots if r[2] > 0)


def _check_minimal(w: WeylElement) -> None:
    for i in LEVI:
        image = act(w, Root(int(j + 1 == i) for j in range(5)))
        if any(c < 0 for c in image):
            raise ValueError(
                "not a minimal coset representative: "
                f"word {w.word} inverts a Levi simple root"
            )


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
    order = GRASS_SYSTEM.positive_roots.index
    return InversionData(
        tuple(sorted(kept, key=order)),
        tuple(sorted(flipped, key=order)),
        tuple(sorted(kept + flipped, key=order)),
    )


# ---------------------------------------------------------------------------
# character series

def cell_exponent(w: WeylElement, k: int) -> Weight:
    """The exponent w w0(k varpi_3), w0 the Levi longest element; w0
    fixes varpi_3, so it is w(k varpi_3)."""
    return act(w, Weight(k * int(i == 2) for i in range(5)))


@lru_cache(maxsize=256)
def _numerator(w: WeylElement, k: int) -> Weight:
    num = cell_exponent(w, k)
    for alpha in kl_sets(w).K:
        num = num + root_to_weight(GRASS_SYSTEM, alpha)
    return num


@lru_cache(maxsize=256)
def _boundary_shifts(k: int) -> tuple[tuple[int, ...], ...]:
    """Offsets of the boundary numerators from the open cell's at level ``k``."""
    top, *boundary = (_numerator(cell.w, k) for cell in covering_cells())
    shifts = tuple(root_lattice_coords(GRASS_SYSTEM, num - top) for num in boundary)
    if None in shifts:
        raise AssertionError("covering-cell numerators off one lattice coset")
    # k + 3 along the first or the last simple root: one field to mask
    if any(len(s) - s.count(0) > 1 for s in shifts):
        raise AssertionError("boundary shift moves more than one field")
    return shifts


# ---------------------------------------------------------------------------
# truncated series

@_record
class Grading:
    """An integer grading cocharacter of ``GRASS_SYSTEM``, recorded by its
    values on the fundamental weights."""

    values: tuple[int, ...]

    def degree(self, w: Weight) -> int:
        return sum(map(operator.mul, self.values, w))

    @cached_property
    def simple_root_degrees(self) -> tuple[int, ...]:
        """Degree of each simple root; root degrees are linear in these."""
        cols = zip(*GRASS_SYSTEM.cartan)
        return tuple(sum(map(operator.mul, self.values, col)) for col in cols)


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


class _Cone(tuple):
    """The pair ``(bits, packed)`` of :func:`_cone_keys` and the read-off all
    levels on its relative window share, as tuples built once and never set:
    the offsets per simple root in ``packed`` order (``columns``), their
    heights (nondecreasing) and their Cartan image.  A cone is folded, or
    :meth:`cut` from a parent, whose read-offs it compresses."""

    def __new__(cls, bits: int, packed: Mapping[int, int]):
        return super().__new__(cls, (bits, MappingProxyType(packed)))

    _of_parent = None  # on a cut: read-off name -> the parent's, compressed

    def __setattr__(self, name, value):
        raise AttributeError(f"_Cone.{name} is read-only")

    def cut(self, limit: int) -> _Cone:
        """The keys below ``limit``, in order, as a cone cut from this one."""
        kept = tuple([key < limit for key in self[1]])
        cone = _Cone(self[0], dict(itertools.compress(self[1].items(), kept)))
        cone.__dict__["_of_parent"] = lambda name: tuple(
            tuple(itertools.compress(col, kept)) for col in getattr(self, name)
        )
        return cone

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        if self._of_parent:
            return self._of_parent("columns")
        bits, packed = self
        mask, fields = (1 << bits) - 1, range(0, bits * GRASS_SYSTEM.rank, bits)
        return tuple(tuple([key >> sh & mask for key in packed]) for sh in fields)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        heights = tuple(reduce(partial(map, operator.add), self.columns))
        assert all(map(operator.le, heights, heights[1:])), "packed out of height order"
        return heights

    @cached_property
    def image(self) -> tuple[tuple[int, ...], ...]:
        if self._of_parent:
            return self._of_parent("image")
        # row i of the Cartan matrix against the offsets, chained lazily from
        # the diagonal; every other entry is 0 or -1
        assert set(itertools.chain(*GRASS_SYSTEM.cartan)) <= {2, 0, -1}, "A5 Cartan"
        cols, image = self.columns, []
        for i, row in enumerate(GRASS_SYSTEM.cartan):
            acc = map(operator.mul, cols[i], itertools.repeat(row[i]))
            for c, xs in zip(row, cols):
                if c == -1:
                    acc = map(operator.sub, acc, xs)
            image.append(tuple(acc))
        return tuple(image)


@_record
class TruncatedSeries:
    """Windowed expansion of a cell character; see the module docstring.

    The stored form is ``packed``: each term's multiplicity keyed by the
    :func:`_key` of its offset ``mu - numerator_exponent``, in fields of
    ``bits``.  A term's degree is the numerator's plus
    ``key >> bits * rank``, and its offset height is the sum of its fields.
    ``cone`` holds ``(bits, packed)`` with their level-free read-off.
    Fields cannot be set and ``packed`` is read-only, so a cached series
    cannot be altered.
    """

    numerator_exponent: Weight
    denominator: tuple[Root, ...]
    window: tuple[int, int]
    height_cutoff: int
    cone: _Cone

    @property
    def bits(self) -> int:
        return self.cone[0]

    @property
    def packed(self) -> Mapping[int, int]:
        return self.cone[1]

    def weight_of(self, offset: tuple[int, ...]) -> Weight:
        return Weight(
            b + sum(map(operator.mul, row, offset))
            for b, row in zip(self.numerator_exponent, GRASS_SYSTEM.cartan)
        )

    def weight_columns(self, kept=None) -> list[Iterable[int]]:
        """The weights' coordinates, of every term or of those ``kept`` selects:
        image column i plus numerator coordinate i (the column where that is 0)."""
        num, image = self.numerator_exponent, self.cone.image
        if kept is not None:
            image = [itertools.compress(col, kept) for col in image]
        shift = partial(map, operator.add)
        return [shift(col, itertools.repeat(b)) if b else col for b, col in zip(num, image)]

    def weights(self, kept=None) -> Iterator[Weight]:
        return map(Weight, zip(*self.weight_columns(kept)))

    def terms(self) -> dict[Weight, int]:
        """The stored terms keyed by their weights."""
        return dict(zip(self.weights(), self.packed.values()))

    def is_certified(self, w: Weight) -> bool:
        """True when the stored multiplicity of ``w`` is exact: integral
        offset of height at most the cutoff, degree inside the window."""
        d = CSTAR_GRADING.degree(w)
        if not self.window[0] <= d <= self.window[1]:
            return False
        off = root_lattice_coords(GRASS_SYSTEM, w - self.numerator_exponent)
        if off is None:
            return True  # off-lattice weights never occur: zero is exact
        return sum(off) <= self.height_cutoff

    def _key_of(self, offset: tuple[int, ...]) -> int | None:
        """The packed key of an offset; None outside every field, where no
        stored key can match."""
        if min(offset) < 0 or max(offset) >> self.bits:
            return None
        return _key(offset, self.bits)


@lru_cache(maxsize=64)
def _cone_keys(
    roots: tuple[Root, ...], window: tuple[int, int], cutoff: int
) -> _Cone:
    """The expansion of 1 / prod (1 - e^beta) inside the window, as the
    field width and the read-only packed keys of ``TruncatedSeries``, in a
    :class:`_Cone` that keeps their read-off.

    The window is relative: a term at offset o has the grading of o as its
    degree, and a series at numerator degree ``base`` asks for its own
    window less ``base``.  So the cone is level-free, and one cached
    expansion serves every level and window with the same difference.  The
    roots are folded in one at a time with the running sum T(o) = S(o) +
    T(o - beta), visiting terms by increasing height; a term is extended
    only while its height stays within the cutoff and its degree at most
    the window top.  Roots of positive degree go first, then those of
    degree 0, tallest first in each class.  After the last positive-degree
    root every term's degree is final, so the terms below the window floor
    are dropped there.  No root has negative degree and every root positive
    height, so a dropped term never comes back and a kept term is reached
    only through kept ones: in any root order, the result is exactly the
    full cone's terms with height at most the cutoff and degree inside the
    window.  No coordinate exceeds the cutoff, which sets the field width,
    and the degree field sits on top, so a step along a root is a single
    addition and the window is a range of keys.  Keys come by height, one
    layer after another, and :attr:`_Cone.heights` relies on it.  A window
    with ``lo < 0`` is the full cone cut at ``hi``, as its floor binds
    nothing.  The full cone is the window ``(0, reach)``, ``reach`` the top
    ``cutoff * deg // ht`` of a root, so that no term within the cutoff lies
    above it; degrees never fall, so the cut keeps the direct fold's order.
    """
    lo, hi = window
    per_root = CSTAR_GRADING.simple_root_degrees
    degrees = [sum(map(operator.mul, per_root, beta)) for beta in roots]
    if any(d < 0 for d in degrees):
        # no cell's J set has such a root: an internal invariant
        raise AssertionError("negative-degree denominator root in a product")
    bits = max(1, cutoff.bit_length())
    if hi < 0 or cutoff < 0:
        return _Cone(bits, {})
    deg_shift = bits * GRASS_SYSTEM.rank
    limit = (hi + 1) << deg_shift
    if lo < 0:
        reach = max((cutoff * d // sum(beta) for d, beta in zip(degrees, roots)), default=0)
        full = _cone_keys(roots, (0, reach), cutoff)
        return full if hi >= reach else full.cut(limit)
    floor = lo << deg_shift

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
    return _Cone(bits, {key: m for terms in by_height for key, m in terms.items()})


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
    and immutable.  The cone itself is level-free: this only attaches the
    numerator to the shared :func:`_cone_keys` expansion, and its read-off,
    on the window taken relative to the numerator degree.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window {window}")
    num = _numerator(w, k)
    roots = kl_sets(w).J
    base = CSTAR_GRADING.degree(num)
    cone = _cone_keys(roots, (lo - base, hi - base), height_cutoff)
    return TruncatedSeries(num, tuple(sorted(roots)), window, height_cutoff, cone)


def swap_blocks_weight(mu: Weight) -> Weight:
    """Weight action of the block swap exchanging e_i and e*_i.

    As a permutation of the six coordinate lines it is the product of the
    longest Weyl element with the Levi longest element, and sends ``mu`` to
    ``(mu_4, mu_5, -sum(mu), mu_1, mu_2)``; ``UnstableStratum._weights``
    is the same map on a read-off's columns.
    """
    m1, m2, m3, m4, m5 = mu
    return Weight((m4, m5, -(m1 + m2 + m3 + m4 + m5), m1, m2))


@lru_cache(maxsize=64)
def _stratum_bounds(
    k: int, window: tuple[int, int], height_cutoff: int
) -> tuple[TruncatedSeries, tuple[int, ...]]:
    """The first stratum's bounds at level ``k``: its open cell's series and
    each term's lower bound, in the order of ``packed``; the upper bound is
    the term's multiplicity, and the terms' offsets and weights are read
    off the series' cone.  Cached and immutable; :class:`UnstableStratum`
    reads them for both strata, so a bundle and its mirror share them."""
    # every stored term survives the height and degree pruning, so the
    # read-off is exact on its support
    top, *boundary = (
        kempf_character(cell.w, k, window, height_cutoff)
        for cell in covering_cells()
    )
    # one pass per boundary cell: the term at offset o sits at o - s there,
    # s that numerator's offset, so at the open cell's key less that of s.
    # s moves one field j; where j leaves [0, cutoff] there is no boundary
    # term and the key would alias a neighbour.  A boundary term off the open
    # cell's support would leave no positive lower bound, so none is read.
    lower = top.packed.values()
    for series, s in zip(boundary, _boundary_shifts(k)):
        if series.numerator_exponent != top.weight_of(s):
            raise AssertionError("boundary numerator off the open cell's lattice coset")
        if min(series.packed.values(), default=1) <= 0:
            raise AssertionError("nonpositive boundary multiplicity")
        delta, got = _key(s, top.bits), series.packed.get
        j = next((i for i, sj in enumerate(s) if sj), 0)
        lo, hi = s[j], height_cutoff + s[j]
        lower = [
            m - got(key - delta, 0) if lo <= c <= hi else m
            for m, key, c in zip(lower, top.packed, top.cone.columns[j])
        ]
    return top, tuple(lower)


@lru_cache(maxsize=64)
def _height_functionals(component: str, top: Weight) -> tuple:
    """A stratum's offset-height and root-lattice functionals on ambient weights,
    each with its value at ``top``, the open cell's numerator, and their
    denominator: the integer inverse Cartan matrix's column sums and first row
    (for A5 row j is j times the first modulo ``den``), composed with the frame."""
    rows, den = _cartan_inverse(GRASS_SYSTEM)
    for j, row in enumerate(rows, 1):
        assert {(x - j * y) % den for x, y in zip(row, rows[0])} == {0}, "A5"
    frame = swap_blocks_weight if component == "F2" else Weight
    units = [frame(Weight(int(i == j) for j in range(5))) for i in range(5)]
    dot = partial(map, operator.mul)
    fs = ([sum(col) for col in zip(*rows)], rows[0])
    return *((tuple(sum(dot(f, u)) for u in units), sum(dot(f, top))) for f in fs), den


class UnstableStratum:
    """An unstable stratum read off the first-stratum series at ``level``:
    the one owner of the stratum read-off and of the second stratum's frame.

    The second stratum at ``k`` is the block swap's image of the first at
    ``-k`` on the reversed window, so it has ``level`` ``-k``; windows
    reverse and weights swap on the way in and out.  All three covering-cell
    series share one window and one cutoff, so they certify a weight exactly
    when its degree is in the window and its offset height over the open
    cell's numerator is at most the cutoff plus ``slack``, the least height
    of a boundary numerator's shift (0 if none is negative).  No offset is
    kept: :meth:`bounds_at` solves one per weight, for its key.
    """

    def __init__(self, component: str, level: int):
        if component not in ("F1", "F2"):
            raise ValueError(f"unknown component {component!r}")
        self.component = component
        self.level = level
        self.slack = min(0, *map(sum, _boundary_shifts(self.level)))
        self._top = _numerator(covering_cells()[0].w, self.level)

    def _read(self, window: tuple[int, int], height_cutoff: int):
        if self.component == "F2":
            window = (-window[1], -window[0])
        return _stratum_bounds(self.level, window, height_cutoff)

    def _weights(self, top: TruncatedSeries, kept=None) -> Iterator[Weight]:
        """The weights of ``top``'s terms, or of those ``kept`` selects, in the
        stratum's frame.  Swapped: weight columns 3, 4, 0, 1 around minus the
        numerator's sum and offset columns 0 and 4, where Cartan columns sum to 1."""
        if self.component == "F1":
            return top.weights(kept)
        sums = [sum(col) for col in zip(*GRASS_SYSTEM.cartan)]
        assert sums == [1, 0, 0, 0, 1], "A5 Cartan column sums"
        c0, c4 = itertools.compress(top.cone.columns, sums)
        if kept is not None:
            c0, c4 = (itertools.compress(col, kept) for col in (c0, c4))
        start = itertools.repeat(-sum(top.numerator_exponent))
        w0, w1, _, w3, w4 = top.weight_columns(kept)
        middle = map(operator.sub, start, map(operator.add, c0, c4))
        return map(Weight, zip(w3, w4, middle, w0, w1))

    def reaches(self, n: int) -> bool:
        """Whether the series reach grade ``n``: the first stratum's start at
        the open cell's numerator degree, ``k + 8``; the second's end at minus it."""
        return (-n if self.component == "F2" else n) >= CSTAR_GRADING.degree(self._top)

    def auto_cutoff(self, weights: Iterable[Weight]) -> int:
        """The least cutoff, at least the default, certifying ``weights`` on
        the root lattice (off it they are exact at zero), read off the
        stratum's :func:`_height_functionals` on the weights' columns."""
        (ht, ht0), (lat, lat0), den = _height_functionals(self.component, self._top)
        cols = list(zip(*weights)) or [()] * GRASS_SYSTEM.rank  # no weights: empty columns
        # each functional on the columns, chained lazily
        heights, lattice = (reduce(partial(map, operator.add), (
            map(operator.mul, col, itertools.repeat(c)) for c, col in zip(f, cols)
        )) for f in (ht, lat))
        residues = map(operator.mod, lattice, itertools.repeat(den))
        on = map(operator.eq, residues, itertools.repeat(lat0 % den))
        highest = max(itertools.compress(heights, on), default=None)
        if highest is None:
            return DEFAULT_HEIGHT_CUTOFF
        return max(DEFAULT_HEIGHT_CUTOFF, (highest - ht0) // den - self.slack)

    def certifies(self, w: Weight, window: tuple[int, int], height_cutoff: int) -> bool:
        """Whether all three covering-cell series certify ``w``, read off the
        :func:`_height_functionals`; off the root lattice they are exact, at zero."""
        if not window[0] <= CSTAR_GRADING.degree(w) <= window[1]:
            return False
        (ht, ht0), (lat, lat0), den = _height_functionals(self.component, self._top)
        if (sum(map(operator.mul, lat, w)) - lat0) % den:
            return True
        return (sum(map(operator.mul, ht, w)) - ht0) // den <= height_cutoff + self.slack

    def positive_bounds(self, window: tuple[int, int], height_cutoff: int) -> tuple:
        """The terms with a positive lower bound, split by certification: a
        dict of the certified ones, ``(lower, upper, True)`` at each weight,
        and a list of the weights of the rest, which carry no bounds.  Only
        these terms become weights; the certified ones precede one cut in
        the cone's heights, at the cutoff plus ``slack``."""
        top, lower = self._read(window, height_cutoff)
        kept = [m > 0 for m in lower]
        weights = list(self._weights(top, kept))
        cut = bisect_right(top.cone.heights, height_cutoff + self.slack)
        lows, ups = (itertools.compress(c, kept) for c in (lower[:cut], top.packed.values()))
        certified = dict(zip(weights, zip(lows, ups, itertools.repeat(True))))
        return certified, weights[len(certified):]

    def bounds_at(self, w: Weight, window: tuple[int, int], height_cutoff: int):
        """(0, upper, certified) at a weight without a certified positive lower bound."""
        mu = swap_blocks_weight(w) if self.component == "F2" else w
        off = root_lattice_coords(GRASS_SYSTEM, mu - self._top)
        top = self._read(window, height_cutoff)[0]
        upper = 0 if off is None else top.packed.get(top._key_of(off), 0)
        return 0, upper, self.certifies(w, window, height_cutoff)


def unstable_character_bounds(
    component: str,
    k: int,
    window: tuple[int, int],
    height_cutoff: int = DEFAULT_HEIGHT_CUTOFF,
) -> tuple[Character, Character]:
    """Per-weight lower and upper bounds on an unstable-stratum character.

    The upper bound is the character of the covering cell closure; the
    lower bound subtracts the two boundary-cell characters and floors at
    zero; the second stratum at ``k`` is read off the first at ``-k``, the
    side the degree-3 cross-check reads for the bundles at level ``-k``.
    Bounds are exact zero below the first stratum's degree floor and above
    the second's ceiling; elsewhere they are valid within the height cutoff.
    """
    stratum = UnstableStratum(component, -k if component == "F2" else k)
    top, lower = stratum._read(window, height_cutoff)
    weights = list(stratum._weights(top))
    return (
        Character((w, m) for w, m in zip(weights, lower) if m > 0),
        Character(zip(weights, top.packed.values())),
    )
