"""Exponent criterion solver.

A criterion matrix M attached to a diagram (see
:func:`wonderco.satake.criterion_matrices`) admits the exponent vector n of
a monomial derivative along the boundary coordinates exactly when

    (M - I) n >= 0   componentwise,  n >= 0,  n != 0.

This module enumerates such vectors up to a bound, picks out the minimal
ones (those that are not sums of two smaller admissible vectors), and
decides outright existence with an exact Fourier-Motzkin elimination on
integer rows, so an empty enumeration can be certified rather than trusted.

The sweep helpers build the matrices for abstract irreducible types: plain
Cartan matrices for the reduced series, and for the nonreduced BC series
one joined system, the bordered chain matrix (its last diagonal entry is 1,
reflecting the halved doubled root) together with the Cartan matrix of the
underlying reduced system.
"""

from __future__ import annotations

import itertools
import math

from .rootsys import _MAX_RANK, _MIN_RANK, _record, _simple_cartan, build_root_system
from .satake import RestrictedSystem, SatakeDiagram, criterion_matrices, restricted_system

__all__ = [
    "Matrix",
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


def _rank(matrices: tuple[Matrix, ...]) -> int:
    if not matrices:
        raise ValueError("need at least one matrix")
    ranks = set()
    for m in matrices:
        r = len(m)
        if r == 0 or any(len(row) != r for row in m):
            raise ValueError(f"criterion matrix must be square and nonempty: {m}")
        ranks.add(r)
    if len(ranks) != 1:
        raise ValueError("matrices of mixed sizes")
    return ranks.pop()


def _admits(matrices: tuple[Matrix, ...], n: tuple[int, ...]) -> bool:
    for m in matrices:
        for i, row in enumerate(m):
            if sum(row[j] * n[j] for j in range(len(n))) < n[i]:
                return False
    return True


def _scan(matrices: tuple[Matrix, ...], bound: int) -> frozenset[tuple[int, ...]]:
    r = len(matrices[0])
    return frozenset(
        n
        for n in itertools.product(range(bound + 1), repeat=r)
        if any(n) and _admits(matrices, n)
    )


def joint_solution_set(
    matrices: tuple[Matrix, ...] | list[Matrix], bound: int
) -> frozenset[tuple[int, ...]]:
    """Nonzero vectors 0 <= n_i <= bound admitted by every matrix."""
    matrices = tuple(matrices)
    if not joint_has_solutions(matrices):
        return frozenset()
    return _scan(matrices, bound)


def minimal_solutions(
    solutions: frozenset[tuple[int, ...]],
) -> tuple[tuple[int, ...], ...]:
    """The vectors of a solution set that are not sums of two smaller ones
    in it."""
    out = []
    for s in solutions:
        decomposable = False
        for a in solutions:
            if a == s or any(x > y for x, y in zip(a, s)):
                continue
            b = tuple(y - x for x, y in zip(a, s))
            if any(b) and b in solutions:
                decomposable = True
                break
        if not decomposable:
            out.append(s)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# exact existence decision

def _fm_feasible(rows: list[tuple[tuple[int, ...], int]], nvars: int) -> bool:
    """Rational feasibility of {a . x >= b} for integer rows, by
    Fourier-Motzkin elimination.

    Each lower bound on a variable is combined with each upper bound,
    weighted by the other's coefficient magnitude, and the combined row is
    divided by the gcd of its coefficients and bound, so every row stays
    integral and reduced.
    """
    system = set(rows)
    for var in range(nvars):
        lowers = []  # coefficient > 0
        uppers = []  # coefficient < 0
        rest = set()
        for row in system:
            c = row[0][var]
            if c > 0:
                lowers.append(row)
            elif c < 0:
                uppers.append(row)
            else:
                rest.add(row)
        for (la, lb), (ua, ub) in itertools.product(lowers, uppers):
            p, q = -ua[var], la[var]
            a = tuple(p * x + q * y for x, y in zip(la, ua))
            b = p * lb + q * ub
            g = math.gcd(*a, b)
            if g > 1:
                a, b = tuple(x // g for x in a), b // g
            rest.add((a, b))
        system = rest
    return all(b <= 0 for _, b in system)


def joint_has_solutions(matrices: tuple[Matrix, ...] | list[Matrix]) -> bool:
    """True when some nonzero nonnegative integer vector is admissible.

    Decided exactly by one elimination: the homogeneous system, n >= 0,
    and the single row sum(n) >= 1.  The constraints other than that row
    form a cone, so a rational point of it scales to an integer solution,
    and any nonzero solution scales to meet the row.
    """
    matrices = tuple(matrices)
    r = _rank(matrices)
    rows = [
        (tuple(row[j] - (i == j) for j in range(r)), 0)
        for m in matrices
        for i, row in enumerate(m)
    ]
    rows += [(tuple(int(j == i) for j in range(r)), 0) for i in range(r)]
    rows.append(((1,) * r, 1))
    return _fm_feasible(rows, r)


# ---------------------------------------------------------------------------
# diagram classification

@_record
class Classification:
    """Existence verdict and admissible exponents for one diagram."""

    restricted: RestrictedSystem
    matrices: tuple[Matrix, ...]
    exists: bool
    solutions: frozenset[tuple[int, ...]]
    minimal: tuple[tuple[int, ...], ...]


def classify(d: SatakeDiagram, bound: int) -> Classification:
    """Solve the criterion jointly over every family selection's matrix:
    one existence test, then one bounded scan when it passes."""
    rs = restricted_system(d)
    matrices = criterion_matrices(rs)
    exists = joint_has_solutions(matrices)
    solutions = _scan(matrices, bound) if exists else frozenset()
    return Classification(
        restricted=rs,
        matrices=matrices,
        exists=exists,
        solutions=solutions,
        minimal=minimal_solutions(solutions),
    )


# ---------------------------------------------------------------------------
# abstract sweep

def bordered_chain_matrix(r: int) -> Matrix:
    """Chain Cartan matrix with the last diagonal entry lowered to 1."""
    rows = _simple_cartan("A", r)  # raises ValueError unless r >= 1
    rows[r - 1][r - 1] = 1
    return tuple(tuple(row) for row in rows)


def series_matrices(label: str) -> tuple[Matrix, ...]:
    """Criterion matrices for an abstract irreducible type label.

    Reduced labels ("A3", "G2", ...) give their Cartan matrix.  "BC<r>"
    gives the bordered chain matrix joined with the Cartan matrix of the
    underlying reduced system (B_r, or A_1 when r = 1).
    """
    if label.startswith("BC"):
        r = int(label[2:])
        reduced = "A1" if r == 1 else f"B{r}"
        return (bordered_chain_matrix(r), build_root_system(reduced).cartan)
    return (build_root_system(label).cartan,)


def _sweep_labels(max_rank: int) -> tuple[str, ...]:
    labels = [
        f"{series}{r}"
        for series, low in _MIN_RANK.items()
        for r in range(low, min(max_rank, _MAX_RANK.get(series, max_rank)) + 1)
    ]
    labels.extend(f"BC{r}" for r in range(1, max_rank + 1))
    return tuple(labels)


def abstract_sweep(max_rank: int = 8) -> dict[str, bool]:
    """Existence verdict for every irreducible type up to the given rank."""
    return {
        label: joint_has_solutions(series_matrices(label))
        for label in _sweep_labels(max_rank)
    }
