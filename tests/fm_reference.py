"""Test-side rational Fourier-Motzkin existence test.

An oracle for the criterion's existence test: rows in ``Fraction``, each
lower/upper pair combined after scaling both to a unit coefficient, and
one elimination per coordinate i on the homogeneous system plus
n_i >= 1.  ``opcrit.joint_has_solutions`` runs a single integer
elimination with the row sum(n) >= 1 instead, so the two share no code.
"""

import itertools
from fractions import Fraction


def fm_feasible(ineqs, nvars):
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


def has_solutions(matrices):
    """True when some nonzero nonnegative vector n has (M - I) n >= 0 for
    every M: some coordinate can be pointed to at least 1."""
    r = len(matrices[0])
    base = []
    for m in matrices:
        for i, row in enumerate(m):
            coeffs = tuple(Fraction(row[j] - (i == j)) for j in range(r))
            base.append((coeffs, Fraction(0)))
    for i in range(r):
        unit = tuple(Fraction(int(j == i)) for j in range(r))
        base.append((unit, Fraction(0)))
    for i in range(r):
        unit = tuple(Fraction(int(j == i)) for j in range(r))
        if fm_feasible(base + [(unit, Fraction(1))], r):
            return True
    return False
