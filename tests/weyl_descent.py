"""Test-side Weyl group, Weyl descent and rational change of basis.

Production code reaches every Weyl element through one weight descent
(``rootsys._descend``: coset representatives, the longest parabolic
element, the chamber representative) and needs only integer root-lattice
coordinates (``rootsys.root_lattice_coords``).  The oracles in the tests
keep separate routes, so they stay independent of the code they check: a
Weyl element here is its integer action matrix on simple-root
coordinates, and its canonical word comes from greedy left-descent
stripping on those matrices.  Tests build the elements they name by a
word through :func:`weyl_element`, and products as the concatenated word.
The Weyl product formula gives the dimensions the character tests check
against.
"""

from fractions import Fraction
from functools import lru_cache
from operator import mul

from wonderco.rootsys import (
    RootSystem,
    Weight,
    WeylElement,
    _symmetrizer,
    half_sum_positive,
    reflect_weight,
)

Matrix = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _reflection_matrix(system: RootSystem, i: int) -> Matrix:
    """Matrix of s_i acting on simple-root coordinates (columns are images)."""
    n = system.rank
    if not 1 <= i <= n:
        raise IndexError(f"simple index {i} out of range 1..{n}")
    c = system.cartan
    return tuple(
        tuple(int(k == j) - (c[i - 1][j] if k == i - 1 else 0) for j in range(n))
        for k in range(n)
    )


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _word_matrix(system: RootSystem, word) -> Matrix:
    """Action matrix on simple-root coordinates; the word applies right to left."""
    m = _identity(system.rank)
    for i in word:
        m = _mat_mul(m, _reflection_matrix(system, i))
    return m


def _stripped_word(system: RootSystem, m: Matrix, minv: Matrix) -> tuple[int, ...]:
    """Lexicographically least reduced word of the element with action
    matrix ``m`` and inverse ``minv``, by greedy left-descent stripping:
    ``i`` is a left descent of w exactly when w^{-1}(alpha_i) is negative."""
    n = system.rank
    ident = _identity(n)
    out: list[int] = []
    while m != ident:
        i = next(
            i for i in range(1, n + 1) if all(minv[k][i - 1] <= 0 for k in range(n))
        )
        out.append(i)
        s = _reflection_matrix(system, i)
        m = _mat_mul(s, m)
        minv = _mat_mul(minv, s)
    return tuple(out)


def canonical_word(system: RootSystem, word) -> tuple[int, ...]:
    """Canonical (lexicographically least reduced) word of the element
    spelled by ``word``."""
    word = tuple(word)
    return _stripped_word(
        system, _word_matrix(system, word), _word_matrix(system, word[::-1])
    )


def weyl_element(system: RootSystem, word) -> WeylElement:
    """The element spelled by ``word`` (applied right to left), held under
    its canonical word as the package's elements are."""
    return WeylElement(system, canonical_word(system, word))


@lru_cache(maxsize=None)
def weyl_group(system: RootSystem) -> tuple[tuple[Matrix, tuple[int, ...]], ...]:
    """Every element of W as ``(action matrix, canonical word)``, found by a
    breadth-first closure of the action matrices from the identity."""
    ident = _identity(system.rank)
    inverses = {ident: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for i in range(1, system.rank + 1):
                s = _reflection_matrix(system, i)
                nm = _mat_mul(s, m)
                if nm not in inverses:
                    inverses[nm] = _mat_mul(inverses[m], s)
                    nxt.append(nm)
        frontier = nxt
    return tuple((m, _stripped_word(system, m, minv)) for m, minv in inverses.items())


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
    w = WeylElement(system, canonical_word(system, reversed(applied)))
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


def weyl_dimension(system: RootSystem, lam: Weight) -> int:
    """dim of the irreducible with highest weight lam, by the product formula
    prod_{alpha > 0} (lam + rho, alpha) / (rho, alpha), as one exact ratio
    of integer products under the form of ``rootsys._symmetrizer``."""
    if not lam.is_dominant():
        raise ValueError(f"highest weight {lam.coords} is not dominant")
    d = _symmetrizer(system)
    rho = half_sum_positive(system)
    lam_rho = lam + rho
    num = den = 1
    for alpha in system.positive_roots:
        scaled = tuple(map(mul, d, alpha))
        num *= sum(map(mul, lam_rho, scaled))
        den *= sum(map(mul, rho, scaled))
    dim, rem = divmod(num, den)
    assert rem == 0
    return dim
