"""Exponent criterion solver.

A criterion matrix M attached to a diagram (see
:func:`wonderco.satake.criterion_matrices`) admits the exponent vector n of
a monomial derivative along the boundary coordinates exactly when

    (M - I) n >= 0   componentwise,  n >= 0,  n != 0.

This module enumerates such vectors up to a bound, picks out the minimal
ones (those that are not sums of two smaller admissible vectors), and
decides outright existence with an exact Fourier-Motzkin elimination, so an
empty enumeration can be certified rather than trusted.

The sweep helpers build the matrices for abstract irreducible types: plain
Cartan matrices for the reduced series, and for the nonreduced BC series
either the bordered chain matrix alone (its last diagonal entry is 1,
reflecting the halved doubled root) or, by default, that matrix joined with
the Cartan matrix of the underlying reduced system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .rootsys import build_root_system
from .satake import RestrictedSystem, SatakeDiagram, criterion_matrices, restricted_system

__all__ = [
    "Matrix",
    "solution_set",
    "joint_solution_set",
    "minimal_solutions",
    "joint_has_solutions",
    "Classification",
    "classify",
    "bordered_chain_matrix",
    "series_matrices",
    "abstract_sweep",
]

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_BOUND = 100


def _check_square(matrix: Matrix) -> int:
    r = len(matrix)
    if r == 0 or any(len(row) != r for row in matrix):
        raise ValueError(f"criterion matrix must be square and nonempty: {matrix}")
    return r


def _admits(matrices: tuple[Matrix, ...], n: tuple[int, ...]) -> bool:
    for m in matrices:
        for i, row in enumerate(m):
            if sum(row[j] * n[j] for j in range(len(n))) < n[i]:
                return False
    return True


def joint_solution_set(
    matrices: tuple[Matrix, ...] | list[Matrix], bound: int = DEFAULT_BOUND
) -> frozenset[tuple[int, ...]]:
    """Nonzero vectors 0 <= n_i <= bound admitted by every matrix."""
    matrices = tuple(matrices)
    if not matrices:
        raise ValueError("need at least one matrix")
    ranks = {_check_square(m) for m in matrices}
    if len(ranks) != 1:
        raise ValueError("matrices of mixed sizes")
    r = ranks.pop()
    if not joint_has_solutions(matrices):
        return frozenset()
    out = set()
    for n in itertools.product(range(bound + 1), repeat=r):
        if any(n) and _admits(matrices, n):
            out.add(n)
    return frozenset(out)


def solution_set(matrix: Matrix, bound: int = DEFAULT_BOUND) -> frozenset[tuple[int, ...]]:
    return joint_solution_set((matrix,), bound)


def minimal_solutions(
    matrix: Matrix | tuple[Matrix, ...], bound: int = DEFAULT_BOUND
) -> tuple[tuple[int, ...], ...]:
    """Admissible vectors that are not sums of two smaller admissible ones."""
    matrices = (matrix,) if matrix and isinstance(matrix[0][0], int) else tuple(matrix)
    sols = joint_solution_set(matrices, bound)
    out = []
    for s in sols:
        decomposable = False
        for a in sols:
            if a == s or any(x > y for x, y in zip(a, s)):
                continue
            b = tuple(y - x for x, y in zip(a, s))
            if any(b) and b in sols:
                decomposable = True
                break
        if not decomposable:
            out.append(s)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# exact existence decision

def _fm_feasible(ineqs: list[tuple[tuple[Fraction, ...], Fraction]], nvars: int) -> bool:
    """Feasibility of {a . x >= b} by Fourier-Motzkin elimination."""
    system = [(tuple(a), b) for a, b in ineqs]
    for var in range(nvars):
        lowers = []  # x_var >= expr
        uppers = []  # x_var <= expr
        rest = []
        for a, b in system:
            c = a[var]
            if c == 0:
                rest.append((a, b))
                continue
            scaled = tuple(x / abs(c) for x in a), b / abs(c)
            if c > 0:
                lowers.append(scaled)
            else:
                uppers.append(scaled)
        new = rest
        for (la, lb), (ua, ub) in itertools.product(lowers, uppers):
            # la.x >= lb with la[var]=1, ua.x >= ub with ua[var]=-1; summing
            # eliminates the variable
            a = tuple(x + y for x, y in zip(la, ua))
            new.append((a, lb + ub))
        seen = set()
        system = []
        for a, b in new:
            key = (a, b)
            if key not in seen:
                seen.add(key)
                system.append((a, b))
    return all(b <= 0 for _, b in system)


def joint_has_solutions(matrices: tuple[Matrix, ...] | list[Matrix]) -> bool:
    """True when some nonzero nonnegative integer vector is admissible.

    Decided exactly: the constraints are homogeneous, so a rational point
    with some coordinate at least 1 scales to an integer solution.
    """
    matrices = tuple(matrices)
    if not matrices:
        raise ValueError("need at least one matrix")
    r = _check_square(matrices[0])
    base: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for m in matrices:
        _check_square(m)
        for i, row in enumerate(m):
            coeffs = tuple(
                Fraction(row[j] - (i == j)) for j in range(r)
            )
            base.append((coeffs, Fraction(0)))
    for i in range(r):
        unit = tuple(Fraction(int(j == i)) for j in range(r))
        base.append((unit, Fraction(0)))
    for i in range(r):
        pointed = list(base)
        unit = tuple(Fraction(int(j == i)) for j in range(r))
        pointed.append((unit, Fraction(1)))
        if _fm_feasible(pointed, r):
            return True
    return False


# ---------------------------------------------------------------------------
# diagram classification

@dataclass(frozen=True)
class Classification:
    """Existence verdict and admissible exponents for one diagram."""

    restricted: RestrictedSystem
    matrices: tuple[Matrix, ...]
    exists: bool
    solutions: frozenset[tuple[int, ...]]
    minimal: tuple[tuple[int, ...], ...]


def classify(d: SatakeDiagram, bound: int = DEFAULT_BOUND) -> Classification:
    """Solve the criterion jointly over every family selection's matrix."""
    rs = restricted_system(d)
    matrices = criterion_matrices(rs)
    exists = joint_has_solutions(matrices)
    solutions = joint_solution_set(matrices, bound) if exists else frozenset()
    minimal = minimal_solutions(matrices, bound) if exists else ()
    return Classification(
        restricted=rs,
        matrices=matrices,
        exists=exists,
        solutions=solutions,
        minimal=minimal,
    )


# ---------------------------------------------------------------------------
# abstract sweep

def bordered_chain_matrix(r: int) -> Matrix:
    """Chain Cartan matrix with the last diagonal entry lowered to 1."""
    if r < 1:
        raise ValueError("rank must be positive")
    rows = []
    for i in range(r):
        row = [0] * r
        row[i] = 2
        if i > 0:
            row[i - 1] = -1
        if i < r - 1:
            row[i + 1] = -1
        rows.append(row)
    rows[r - 1][r - 1] = 1
    return tuple(tuple(row) for row in rows)


def series_matrices(label: str, bc_policy: str = "both") -> tuple[Matrix, ...]:
    """Criterion matrices for an abstract irreducible type label.

    Reduced labels ("A3", "G2", ...) give their Cartan matrix.  "BC<r>"
    gives the bordered chain matrix, joined under the default policy with
    the Cartan matrix of the underlying reduced system (B_r, or A_1 when
    r = 1).
    """
    if bc_policy not in ("both", "displayed"):
        raise ValueError(f"unknown bc_policy {bc_policy!r}")
    if label.startswith("BC"):
        r = int(label[2:])
        displayed = bordered_chain_matrix(r)
        if bc_policy == "displayed":
            return (displayed,)
        reduced = "A1" if r == 1 else f"B{r}"
        return (displayed, build_root_system(reduced).cartan)
    return (build_root_system(label).cartan,)


def _sweep_labels(max_rank: int) -> tuple[str, ...]:
    labels = []
    ranges = {
        "A": range(1, max_rank + 1),
        "B": range(2, max_rank + 1),
        "C": range(2, max_rank + 1),
        "D": range(3, max_rank + 1),
        "E": (6, 7, 8),
        "F": (4,),
        "G": (2,),
    }
    for series, rr in ranges.items():
        for r in rr:
            if r <= max_rank:
                labels.append(f"{series}{r}")
    labels.extend(f"BC{r}" for r in range(1, max_rank + 1))
    return tuple(labels)


def abstract_sweep(
    max_rank: int = 8, bc_policy: str = "both"
) -> dict[str, bool]:
    """Existence verdict for every irreducible type up to the given rank."""
    return {
        label: joint_has_solutions(series_matrices(label, bc_policy))
        for label in _sweep_labels(max_rank)
    }
