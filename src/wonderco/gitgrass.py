"""The scaling action on 3-planes in a split 6-space.

The ambient space is V + V*, two 3-blocks with basis e_1..e_3 and
e*_1..e*_3 (columns 1..3 and 4..6).  The one-parameter scaling group acts
with weight +1 on V and -1 on V*; the two copies of SL_3 act on the
blocks.  This module computes scaling weights of the 20 exterior-cube
basis vectors, stability of 3-planes with respect to the scaling, the two
unstable strata (too much intersection with one block), the exterior
cube's blocks read off the Plucker basis, and the translation of
block-diagonal weights into (line bundle power, scaling grade) pairs.

All linear algebra is exact over rationals; points are canonicalized to
reduced row-echelon form, so equality means equality of subspaces.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .rootsys import Weight, _record, _rref

__all__ = [
    "PluckerIndex",
    "SubspacePoint",
    "Summand",
    "SheafDescriptor",
    "all_plucker_indices",
    "cstar_weight",
    "subspace_point",
    "graph_point",
    "coordinate_point",
    "fixed_points",
    "intersection_dims",
    "unstable_component",
    "decompose_module",
    "sheaf_correspondence",
]

@_record
class PluckerIndex:
    """Basis vector of the exterior cube: wedge of e_i (i in ``first``) and
    e*_j (j in ``second``), three factors in total."""

    first: tuple[int, ...]
    second: tuple[int, ...]

    def __post_init__(self):
        first = tuple(sorted(self.first))
        second = tuple(sorted(self.second))
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        if len(set(first)) != len(first) or len(set(second)) != len(second):
            raise ValueError(f"repeated index in {first}^{second}")
        if not set(first) <= {1, 2, 3} or not set(second) <= {1, 2, 3}:
            raise ValueError(f"indices out of range in {first}^{second}")
        if len(first) + len(second) != 3:
            raise ValueError(
                f"need three wedge factors, got {len(first)} + {len(second)}"
            )

    def columns(self) -> tuple[int, ...]:
        """0-based ambient column positions of the wedge factors."""
        return tuple(i - 1 for i in self.first) + tuple(
            j + 2 for j in self.second
        )


def all_plucker_indices() -> tuple[PluckerIndex, ...]:
    out = []
    for cols in itertools.combinations(range(1, 7), 3):
        first = tuple(c for c in cols if c <= 3)
        second = tuple(c - 3 for c in cols if c > 3)
        out.append(PluckerIndex(first, second))
    return tuple(out)


def cstar_weight(p: PluckerIndex) -> int:
    return len(p.first) - len(p.second)


# ---------------------------------------------------------------------------
# points

@_record
class SubspacePoint:
    """A 3-plane in the 6-space, stored as the reduced row-echelon form of a
    spanning 3x6 matrix; construct via :func:`subspace_point`."""

    rows: tuple[tuple[Fraction, ...], ...]


def _rank(rows) -> int:
    reduced = _rref([[Fraction(x) for x in row] for row in rows])
    return sum(1 for row in reduced if any(row))


def subspace_point(rows) -> SubspacePoint:
    """Canonicalize a 3x6 spanning matrix; rejects rank-deficient input."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if len(mat) != 3 or any(len(row) != 6 for row in mat):
        raise ValueError("expected a 3x6 matrix")
    reduced = _rref(mat)
    if sum(1 for row in reduced if any(row)) != 3:
        raise ValueError("rows do not span a 3-plane")
    return SubspacePoint(tuple(tuple(row) for row in reduced))


def graph_point(m) -> SubspacePoint:
    """The graph {(v, M v)}: rows (e_i | i-th column pattern of M)."""
    mat = [[Fraction(x) for x in row] for row in m]
    if len(mat) != 3 or any(len(row) != 3 for row in mat):
        raise ValueError("expected a 3x3 matrix")
    rows = []
    for i in range(3):
        left = [Fraction(int(j == i)) for j in range(3)]
        right = [mat[j][i] for j in range(3)]
        rows.append(left + right)
    return subspace_point(rows)


def coordinate_point(p: PluckerIndex) -> SubspacePoint:
    """The coordinate 3-plane spanned by the wedge factors of ``p``."""
    rows = []
    for col in p.columns():
        rows.append([Fraction(int(j == col)) for j in range(6)])
    return subspace_point(rows)


def fixed_points() -> tuple[SubspacePoint, ...]:
    """All 20 coordinate 3-planes (the torus-fixed points)."""
    return tuple(coordinate_point(p) for p in all_plucker_indices())


# ---------------------------------------------------------------------------
# stability

def intersection_dims(u: SubspacePoint) -> tuple[int, int]:
    """(dim of intersection with V, with V*), exactly.

    A vector of the row span lies in V iff its last three coordinates
    vanish, so the intersection dimension is 3 minus the rank of the
    last-three-column block; symmetrically for V*.
    """
    last = [row[3:] for row in u.rows]
    first = [row[:3] for row in u.rows]
    return 3 - _rank(last), 3 - _rank(first)


def unstable_component(u: SubspacePoint) -> str | None:
    """"F1" when the plane meets V in a 2-plane or more, "F2" for V*,
    None when semistable, that is when it meets each block in at most a
    line.  The two cases exclude each other.  At this dimension the strict
    and non-strict thresholds coincide, so semistable points are stable."""
    d_v, d_vstar = intersection_dims(u)
    if d_v >= 2:
        return "F1"
    if d_vstar >= 2:
        return "F2"
    return None


# ---------------------------------------------------------------------------
# module structure

@_record
class Summand:
    """An irreducible block of the exterior cube: highest weight of the two
    rank-2 factors, scaling weight, dimension."""

    highest_weight: Weight
    cstar: int
    dim: int


def decompose_module() -> tuple[Summand, ...]:
    """The blocks by decreasing scaling weight: the basis vectors with ``a``
    first-block factors span Lambda^a V (x) Lambda^(3-a) V*, of highest weight
    the a-th fundamental weight on both factors (zero for a = 0 and 3)."""
    blocks = Counter((cstar_weight(p), len(p.first)) for p in all_plucker_indices())
    return tuple(
        Summand(Weight((int(a == 1), int(a == 2)) * 2), cstar, dim)
        for (cstar, a), dim in blocks.items()
    )


# ---------------------------------------------------------------------------
# weight-to-sheaf translation

@_record
class SheafDescriptor:
    """The (line bundle power, scaling grade) translation of a
    block-diagonal weight."""

    k: int
    n: int


def _diagonal_coords(lam: Weight) -> tuple[int, int]:
    """(f1, f2) of a block-diagonal weight (f1, f2, f1, f2)."""
    f = lam.coords
    if len(f) != 4 or (f[0], f[1]) != (f[2], f[3]):
        raise ValueError(f"weight {f} is not block-diagonal (f1,f2,f1,f2)")
    return f[0], f[1]


def sheaf_correspondence(lam: Weight) -> SheafDescriptor:
    """Translate a block-diagonal weight (f1, f2, f1, f2) to (k, n).

    Additive, fixed by (1,0,1,0) -> (1,-1) and (0,1,0,1) -> (1,1); hence
    the doubled restricted roots (2,-1,2,-1) and (-1,2,-1,2) map to
    (1,-3) and (1,3).
    """
    f1, f2 = _diagonal_coords(lam)
    return SheafDescriptor(f1 + f2, f2 - f1)
