"""Test-side Weyl descent and rational change of basis.

Production code needs only the chamber representative
(``rootsys.dominant_representative``) and integer root-lattice coordinates
(``rootsys.root_lattice_coords``); the oracles in the tests keep these
separate copies, so they stay independent of the code they check.
"""

from fractions import Fraction
from functools import lru_cache
from operator import mul

from wonderco.rootsys import (
    RootSystem,
    Weight,
    WeylElement,
    reflect_weight,
    weyl_element,
)


@lru_cache(maxsize=None)
def dominant_conjugate(
    system: RootSystem, mu: Weight
) -> tuple[Weight, WeylElement, int, bool]:
    """Dominant representative of a weight's Weyl orbit.

    Returns ``(mu_plus, w, length, regular)`` with ``act(w, mu) = mu_plus``
    dominant.  ``regular`` is True when the orbit is free, equivalently when
    ``mu_plus`` is strictly dominant; in that case ``w`` is the unique element
    moving ``mu`` to the dominant chamber and ``length`` is its Coxeter
    length.
    """
    v = mu
    applied: list[int] = []
    while True:
        i = next((j + 1 for j, c in enumerate(v.coords) if c < 0), None)
        if i is None:
            break
        v = reflect_weight(system, i, v)
        applied.append(i)
    w = weyl_element(system, tuple(reversed(applied)))
    return v, w, len(w), all(c > 0 for c in v)


@lru_cache(maxsize=None)
def _cartan_inverse(system: RootSystem) -> tuple[tuple[Fraction, ...], ...]:
    """The inverse Cartan matrix in Fractions, by Gauss-Jordan elimination."""
    n = system.rank
    aug = [
        [Fraction(system.cartan[i][j]) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def weight_to_root(system: RootSystem, weight: Weight) -> tuple[Fraction, ...]:
    """Simple-root coordinates of a weight (exact, possibly non-integral):
    the solution x of cartan @ x = weight."""
    inv = _cartan_inverse(system)
    return tuple(sum(map(mul, row, weight), Fraction(0)) for row in inv)
