"""Root systems, Weyl groups, weights, and parabolic coset combinatorics.

Conventions used throughout the package:

* ``Root`` and ``Weight`` are immutable tuples of ints with coordinatewise
  ``+``/``-``: a ``Root`` in the simple-root basis, a ``Weight`` in the
  fundamental-weight basis.  Constructors do not coerce, so callers pass
  ints (parsers convert their input first), and ``.coords`` is the plain
  coordinate tuple.
* The Cartan matrix is indexed so that ``cartan[i][j] = <alpha_j, alpha_i_vee>``;
  consequently the fundamental coordinates of a root are ``C @ root_coords``
  and column ``j`` of ``C`` is ``alpha_j`` written in fundamental coordinates.
* Simple-root indices in the public API are 1-based (``s_1 .. s_rank``).
* Every Weyl-group computation is the descent of one integer weight:
  reflect in the first simple index with a negative coordinate until the
  weight is dominant, recording the indices (``_descend``).  A Weyl element
  is stored as the descent word of its image of rho, its lexicographically
  least reduced word; the minimal coset representatives of a parabolic are
  the descent words of one weight orbit, and the longest element of a
  parabolic is the descent word of rho minus the parabolic's positive
  roots.  These are the only elements built; none are multiplied.

Everything is an immutable value; all operations are pure functions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, attrgetter, mul, neg, sub

__all__ = [
    "Root",
    "Weight",
    "RootSystem",
    "WeylElement",
    "build_root_system",
    "pairing",
    "act",
    "coset_reps",
    "half_sum_positive",
    "simple_root",
    "root_to_weight",
    "root_lattice_coords",
    "reflect_root",
    "reflect_weight",
    "longest_parabolic",
    "root_inner",
]


class _Vector(tuple):
    """An immutable integer vector with coordinatewise arithmetic.

    ``+``, ``-`` and unary ``-`` act coordinatewise, never as tuple
    concatenation, and return the left operand's own type.  Ordering,
    hashing and equality are those of the coordinate tuple, so a ``Root``
    and a ``Weight`` with equal coordinates compare equal: no container
    mixes them.  ``coords`` is a plain tuple, on which ``+`` concatenates.
    """

    __slots__ = ()

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple(self)

    def __add__(self, other):
        return type(self)(map(add, self, other))

    def __sub__(self, other):
        return type(self)(map(sub, self, other))

    def __neg__(self):
        return type(self)(map(neg, self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(coords={tuple(self)!r})"


class Root(_Vector):
    """A root, stored in simple-root coordinates."""

    __slots__ = ()

    def is_positive(self) -> bool:
        return any(self) and all(c >= 0 for c in self)


class Weight(_Vector):
    """A weight, stored in fundamental-weight coordinates."""

    __slots__ = ()

    def scale(self, k: int) -> "Weight":
        return Weight(k * a for a in self)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self)


def _record(cls):
    """Make ``cls`` a frozen value record over its annotated fields.

    The fields are the class's own annotations, in order.  The record is
    built from them by position or keyword, class attributes of the same
    name are defaults, and ``__post_init__`` runs after construction.
    ``==`` compares the field tuples of two records of exactly one class,
    ``hash`` is that of the field tuple, the repr reads
    ``QualName(field=value, ...)`` and fields cannot be assigned or
    deleted: the behaviour of ``dataclass(frozen=True)``, without the cost
    of importing ``dataclasses`` and generating its methods.  Methods the
    class body defines are kept.
    """
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")
    if len(names) == 1:
        get = attrgetter(names[0])

        def key(obj):
            return (get(obj),)

    else:
        key = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls, names, defaults, args, kwargs)
        # object.__setattr__, not a write to __dict__, which would
        # materialise the dict and slow every later field read
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, names, key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls


def _bind(cls, names, defaults, args, kwargs) -> list:
    """The field values of a record construction that is not one value per
    field by position, checked as a call to a signature would check it."""
    if len(args) > len(names):
        raise TypeError(
            f"{cls.__qualname__}() takes {len(names)} fields but {len(args)} were given"
        )
    given = dict(zip(names, args))
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{cls.__qualname__}() got an unexpected field {name!r}")
        if name in given:
            raise TypeError(f"{cls.__qualname__}() got multiple values for {name!r}")
    values = {**defaults, **given, **kwargs}
    missing = [n for n in names if n not in values]
    if missing:
        raise TypeError(f"{cls.__qualname__}() missing fields {missing}")
    return [values[n] for n in names]


@_record
class RootSystem:
    """A finite crystallographic root system.

    ``positive_roots`` is sorted graded-lexicographically on simple-root
    coordinates, which fixes the order of every exposed sequence.  Systems
    appear as cache keys throughout, so the structural hash is computed once
    up front.
    """

    type_label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            hash((self.type_label, self.rank, self.cartan, self.positive_roots)),
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RootSystem({self.type_label})"


# ---------------------------------------------------------------------------
# construction

_CLASSICAL_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": {6: 72, 7: 126, 8: 240},
    "F": {4: 48},
    "G": {2: 12},
}

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}


def _simple_cartan(series: str, rank: int) -> list[list[int]]:
    if series not in _MIN_RANK:
        raise ValueError(f"unknown series {series!r}")
    if rank < _MIN_RANK[series] or rank > _MAX_RANK.get(series, 10**9):
        raise ValueError(f"invalid rank {rank} for series {series}")
    c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int, down: int = -1, up: int = -1) -> None:
        c[i][j] = down
        c[j][i] = up

    if series in ("A", "B", "C"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if series == "B" and rank >= 2:
            # alpha_rank is short: <alpha_{r-1}, alpha_r_vee> = -2
            c[rank - 1][rank - 2] = -2
        if series == "C":
            # alpha_rank is long: <alpha_r, alpha_{r-1}_vee> = -2
            c[rank - 2][rank - 1] = -2
    elif series == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif series == "E":
        # Bourbaki numbering: chain 1-3-4-5-6(-7-8), node 2 hangs off node 4.
        chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a - 1, b - 1)
        bond(2 - 1, 4 - 1)
    elif series == "F":
        bond(0, 1)
        bond(2, 3)
        # middle double bond, alpha_3 short
        c[1][2] = -1
        c[2][1] = -2
    elif series == "G":
        # alpha_1 short, alpha_2 long
        c[0][1] = -3
        c[1][0] = -1
    return c


def _parse_label(type_label: str, rank: int | None) -> list[tuple[str, int]]:
    """Parse ``("A", 5)``, ``("A5", None)`` or ``("A2xA2", None)`` forms."""
    if rank is not None:
        return [(type_label, rank)]
    factors = []
    for part in type_label.split("x"):
        part = part.strip()
        if len(part) < 2 or not part[0].isalpha() or not part[1:].isdigit():
            raise ValueError(f"malformed type label {part!r}")
        factors.append((part[0].upper(), int(part[1:])))
    return factors


def _close_under_reflections(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    rank = len(cartan)
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots: set[tuple[int, ...]] = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(rank):
                p = sum(cartan[i][j] * beta[j] for j in range(rank))
                img = tuple(
                    beta[j] - (p if j == i else 0) for j in range(rank)
                )
                if img not in roots:
                    roots.add(img)
                    nxt.append(img)
        frontier = nxt
    return [r for r in roots if all(c >= 0 for c in r)]


@lru_cache(maxsize=None)
def build_root_system(type_label: str, rank: int | None = None) -> RootSystem:
    """Build a root system by reflection closure from its simple roots.

    Accepts either a series letter plus rank (``build_root_system("A", 5)``),
    a combined label (``"A5"``), or a product label (``"A2xA2"``) whose
    factors are laid out block-diagonally.  Repeated calls with the same
    label return the same instance, which keeps cache keys cheap everywhere
    downstream.
    """
    factors = _parse_label(type_label, rank)
    blocks = [_simple_cartan(series, r) for series, r in factors]
    total = sum(len(b) for b in blocks)
    cartan = [[0] * total for _ in range(total)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                cartan[offset + i][offset + j] = v
        offset += len(b)

    # graded-lex order: by height, then with earlier simple coords dominating,
    # so the simple roots appear first and in index order
    positive = _close_under_reflections(cartan)
    positive.sort(key=lambda r: (sum(r), tuple(-c for c in r)))
    label = "x".join(f"{s}{r}" for s, r in factors)

    expected = 0
    for series, r in factors:
        rule = _CLASSICAL_COUNTS[series]
        expected += rule[r] if isinstance(rule, dict) else rule(r)
    if 2 * len(positive) != expected:
        raise AssertionError(
            f"root count {2 * len(positive)} != classical count {expected} for {label}"
        )

    return RootSystem(
        type_label=label,
        rank=total,
        cartan=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(Root(r) for r in positive),
    )


# ---------------------------------------------------------------------------
# cached per-system lookups

@lru_cache(maxsize=None)
def all_roots(system: RootSystem) -> frozenset[Root]:
    return frozenset(system.positive_roots) | {-r for r in system.positive_roots}


def _check_indices(system: RootSystem, indices) -> None:
    for i in indices:
        if not 1 <= i <= system.rank:
            raise IndexError(f"simple index {i} out of range 1..{system.rank}")


def simple_root(system: RootSystem, i: int) -> Root:
    _check_indices(system, (i,))
    return Root(int(j == i - 1) for j in range(system.rank))


def root_to_weight(system: RootSystem, root: Root) -> Weight:
    """Fundamental coordinates of a root: ``C @ root_coords``."""
    return Weight(sum(map(mul, row, root)) for row in system.cartan)


def _rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact reduced row-echelon form, zero rows last."""
    mat = [row[:] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(pivot_row, nrows) if mat[r][col] != 0), None
        )
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        lead = mat[pivot_row][col]
        mat[pivot_row] = [x / lead for x in mat[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [
                    x - factor * y for x, y in zip(mat[r], mat[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return mat[:pivot_row] + [
        [Fraction(0)] * ncols for _ in range(nrows - pivot_row)
    ]


@lru_cache(maxsize=None)
def _cartan_inverse(
    system: RootSystem,
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The inverse Cartan matrix as integer rows over one common
    denominator: the least common denominator of its entries, which
    divides the Cartan determinant.  The inverse is the right half of
    the reduced form of ``[C | I]``."""
    n = system.rank
    aug = _rref([
        [Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(system.cartan)
    ])
    inverse = [row[n:] for row in aug]
    den = math.lcm(*(x.denominator for row in inverse for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in inverse), den


def root_lattice_coords(
    system: RootSystem, weight: Weight
) -> tuple[int, ...] | None:
    """Simple-root coordinates of a root-lattice weight, None off the lattice.

    Each coordinate is an integer dot product with a row of the inverse
    Cartan matrix, divided exactly by its common denominator.
    """
    rows, den = _cartan_inverse(system)
    out = []
    for row in rows:
        q, r = divmod(sum(map(mul, row, weight)), den)
        if r:
            return None
        out.append(q)
    return tuple(out)


def pairing(system: RootSystem, x: Root | Weight, i: int) -> int:
    """Evaluate ``<x, alpha_i_vee>``.

    For a weight this is its i-th fundamental coordinate; for a root it is
    row i of the Cartan matrix applied to the root's coordinates.
    """
    _check_indices(system, (i,))
    if isinstance(x, Weight):
        return x[i - 1]
    return sum(map(mul, system.cartan[i - 1], x))


def reflect_root(system: RootSystem, i: int, root: Root) -> Root:
    coords = list(root)
    coords[i - 1] -= pairing(system, root, i)
    return Root(coords)


def reflect_weight(system: RootSystem, i: int, weight: Weight) -> Weight:
    p = weight[i - 1]
    return Weight(w - p * row[i - 1] for w, row in zip(weight, system.cartan))


# ---------------------------------------------------------------------------
# Weyl elements

def _descend(system: RootSystem, v: Weight) -> tuple[Weight, tuple[int, ...]]:
    """Reflect ``v`` in the first simple index with a negative coordinate
    until it is dominant; return the dominant weight and the indices used,
    in order.

    If ``v = w(mu)`` with ``mu`` dominant and ``w`` minimal in its coset of
    the stabilizer of ``mu``, the negative coordinates of ``v`` are exactly
    the left descents of ``w``, so the indices spell the lexicographically
    least reduced word of ``w``.
    """
    word: list[int] = []
    while True:
        i = next((j + 1 for j, c in enumerate(v) if c < 0), None)
        if i is None:
            return v, tuple(word)
        v = reflect_weight(system, i, v)
        word.append(i)


@lru_cache(maxsize=None)
def _orbit(system: RootSystem, mu: Weight) -> frozenset[Weight]:
    """The Weyl orbit of a weight, by closure under simple reflections."""
    seen = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, system.rank + 1):
                img = reflect_weight(system, i, w)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(seen)


@_record
class WeylElement:
    """A Weyl group element, stored as its canonical reduced word.

    The canonical word is the descent word of ``w(rho)``: rho is regular, so
    it is the lexicographically least reduced word of ``w``.  Word equality
    is element equality, and ``len(word)`` is the Coxeter length.  The
    package builds elements only in :func:`coset_reps` and
    :func:`longest_parabolic`, each from a descent, so every word is
    canonical; nothing multiplies elements.
    """

    system: RootSystem
    word: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.word)


def act(w: WeylElement, x: Root | Weight):
    """Apply a Weyl element; the word acts right to left on x."""
    system = w.system
    if isinstance(x, Root):
        for i in reversed(w.word):
            x = reflect_root(system, i, x)
        return x
    for i in reversed(w.word):
        x = reflect_weight(system, i, x)
    return x


def longest_parabolic(system: RootSystem, subset: frozenset[int] | set[int]) -> WeylElement:
    """Longest element of the parabolic subgroup generated by ``subset``.

    It negates the parabolic's positive roots and permutes the others, so
    it sends rho to rho minus the sum of the parabolic's positive roots.
    """
    sub = set(subset)
    _check_indices(system, sub)
    v = half_sum_positive(system)
    for r in system.positive_roots:
        if all(c == 0 or j + 1 in sub for j, c in enumerate(r)):
            v = v - root_to_weight(system, r)
    return WeylElement(system, _descend(system, v)[1])


def coset_reps(
    system: RootSystem, parabolic_subset: frozenset[int] | set[int]
) -> tuple[WeylElement, ...]:
    """Minimal-length representatives of W / W_P, sorted by length then word.

    The weight lam_P, the sum of the fundamental weights off the parabolic,
    has stabilizer W_P, so its orbit points match the cosets.  For w minimal
    in its coset, i is a left descent of w exactly when the i-th coordinate
    of w(lam_P) is negative, so the descent word of each orbit point is the
    canonical word of its minimal representative.
    """
    sub = set(parabolic_subset)
    _check_indices(system, sub)
    lam = Weight(int(j + 1 not in sub) for j in range(system.rank))
    reps = [WeylElement(system, _descend(system, u)[1]) for u in _orbit(system, lam)]
    return tuple(sorted(reps, key=lambda w: (len(w), w.word)))


@lru_cache(maxsize=None)
def dominant_representative(system: RootSystem, mu: Weight) -> Weight:
    """Dominant representative of a weight's Weyl orbit."""
    return _descend(system, mu)[0]


def half_sum_positive(system: RootSystem) -> Weight:
    """rho, the half sum of positive roots: all-ones in fundamental coords."""
    return Weight((1,) * system.rank)


# ---------------------------------------------------------------------------
# invariant bilinear form

@lru_cache(maxsize=None)
def _symmetrizer(system: RootSystem) -> tuple[int, ...]:
    """Positive integers d_i with diag(d) @ C symmetric.

    They give the invariant form through (alpha_i, alpha_j) = d_i c_ij, so
    d_i = (alpha_i, alpha_i) / 2 and (fundamental_i, alpha_j) = d_j
    delta_ij.  Each component's first node starts at 1 and the rest follow
    along the bonds; the resulting rationals are then scaled by the least
    common multiple of their denominators, which keeps the form integral
    on the root lattice (for example B2 gives (2, 1), G2 (1, 3)).
    """
    n = system.rank
    c = system.cartan
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and c[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(c[i][j], c[j][i])
                    stack.append(j)
    scale = math.lcm(*(x.denominator for x in d))
    return tuple(int(x * scale) for x in d)


def root_inner(system: RootSystem, a, b) -> int:
    """(x, y) for integer vectors in simple-root coordinates, in the
    normalization of :func:`_symmetrizer`, as an int.  Coroot pairings
    <x, beta^vee> = 2 (x, beta) / (beta, beta) are quotients of two such
    values, the same for any normalization of the form."""
    d = _symmetrizer(system)
    c = system.cartan
    total = 0
    for i in range(system.rank):
        if a[i] == 0:
            continue
        for j in range(system.rank):
            if b[j] != 0 and c[i][j] != 0:
                total += a[i] * b[j] * d[i] * c[i][j]
    return total
