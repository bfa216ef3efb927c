"""Satake diagrams, restricted root systems, and criterion matrices.

A Satake diagram decorates a Dynkin diagram with a set of black (compact)
vertices and an involutive arrow pairing of white vertices.  From that data
this module rebuilds the induced involution on the ambient root lattice
by Araki's formula theta = -w_black o p (see :func:`theta_of_simple`),
splits the roots into the pointwise-fixed part and its complement, forms
the restricted root system carried by the white classes, and extracts the
integer matrices consumed by the exponent criterion in :mod:`.opcrit`.

The built-in catalog covers the diagrams exercised elsewhere in the
package; :func:`parse_diagram` accepts the same three-directive text format
(``type``, ``black``, ``arrow``) for diagrams supplied by hand.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .rootsys import (
    Root,
    RootSystem,
    _record,
    _simple_cartan,
    act,
    all_roots,
    build_root_system,
    longest_parabolic,
    root_inner,
    simple_root,
)

__all__ = [
    "DiagramError",
    "SatakeDiagram",
    "RestrictedSystem",
    "make_diagram",
    "parse_diagram",
    "catalog_names",
    "catalog_diagram",
    "CATALOG",
    "theta_of_simple",
    "theta_matrix",
    "apply_theta",
    "check_involution",
    "phi_split",
    "restricted_system",
    "family_choices",
    "criterion_matrices",
]


class DiagramError(ValueError):
    """The decorated diagram violates a structural requirement."""


# ---------------------------------------------------------------------------
# diagrams

@_record
class SatakeDiagram:
    """A Dynkin diagram with black vertices and white arrow pairs.

    Vertices are 1-based simple-root indices of ``system``.  ``arrows`` is a
    sorted tuple of sorted pairs of distinct white vertices.
    """

    system: RootSystem
    black: frozenset[int]
    arrows: tuple[tuple[int, int], ...]

    def whites(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(1, self.system.rank + 1) if i not in self.black
        )

    def arrow_partner(self, i: int) -> int:
        for a, b in self.arrows:
            if i == a:
                return b
            if i == b:
                return a
        return i


def make_diagram(
    system: RootSystem,
    black: set[int] | frozenset[int] = frozenset(),
    arrows: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
) -> SatakeDiagram:
    n = system.rank
    black = frozenset(black)
    for i in black:
        if not 1 <= i <= n:
            raise DiagramError(f"black vertex {i} out of range 1..{n}")
    seen: set[int] = set()
    norm = []
    for a, b in arrows:
        if not (1 <= a <= n and 1 <= b <= n):
            raise DiagramError(f"arrow ({a},{b}) out of range 1..{n}")
        if a == b:
            raise DiagramError(f"arrow ({a},{b}) must join distinct vertices")
        if a in black or b in black:
            raise DiagramError(f"arrow ({a},{b}) touches a black vertex")
        if a in seen or b in seen:
            raise DiagramError(f"vertex in more than one arrow: ({a},{b})")
        seen.update((a, b))
        norm.append((min(a, b), max(a, b)))
    return SatakeDiagram(system, black, tuple(sorted(norm)))


def _vertices(words: list[str]) -> list[int]:
    try:
        return [int(x) for x in words]
    except ValueError as exc:
        raise DiagramError(str(exc)) from None


def parse_diagram(text: str) -> SatakeDiagram:
    """Build a diagram from ``type``/``black``/``arrow`` directives."""
    type_label: str | None = None
    black: set[int] = set()
    arrows: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split()
        if head == "type":
            if len(rest) != 1 or type_label is not None:
                raise DiagramError(f"malformed type line: {line!r}")
            type_label = rest[0]
        elif head == "black":
            black.update(_vertices(rest))
        elif head == "arrow":
            if len(rest) != 2:
                raise DiagramError(f"malformed arrow line: {line!r}")
            arrows.append(tuple(_vertices(rest)))
        else:
            raise DiagramError(f"unknown directive {head!r}")
    if type_label is None:
        raise DiagramError("missing 'type' line")
    try:
        system = build_root_system(type_label)
    except ValueError as exc:
        raise DiagramError(str(exc)) from None
    return make_diagram(system, black, arrows)


CATALOG: dict[str, str] = {
    "PGL6-PSp6": "type A5\nblack 1 3 5",
    "PGL3-GL2": "type A2\narrow 1 2",
    "PGL4-GL3": "type A3\nblack 2\narrow 1 3",
    "PGL5-GL4": "type A4\nblack 2 3\narrow 1 4",
    "PGL6-GL5": "type A5\nblack 2 3 4\narrow 1 5",
    "PSp4-SL2xSp2": "type C2\nblack 1",
    "PSp6-SL2xSp4": "type C3\nblack 1 3",
    "PSp8-SL2xSp6": "type C4\nblack 1 3 4",
    "PSO5-SO4": "type B2\nblack 2",
    "PSO6-SO5": "type D3\nblack 2 3",
    "PSO7-SO6": "type B3\nblack 2 3",
    "PSO8-SO7": "type D4\nblack 2 3 4",
    "split-A1": "type A1",
    "split-A2": "type A2",
    "GxG-A1": "type A1xA1\narrow 1 2",
    "GxG-A2": "type A2xA2\narrow 1 3\narrow 2 4",
    "E6-F4": "type E6\nblack 2 3 4 5",
    "F4-PSO9": "type F4\nblack 1 2 3",
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(CATALOG))


@lru_cache(maxsize=None)
def catalog_diagram(name: str) -> SatakeDiagram:
    try:
        text = CATALOG[name]
    except KeyError:
        raise DiagramError(
            f"unknown diagram {name!r}; available: {', '.join(catalog_names())}"
        ) from None
    return parse_diagram(text)


# ---------------------------------------------------------------------------
# the induced involution

def theta_of_simple(d: SatakeDiagram, i: int) -> Root:
    """Image of the i-th simple root under the diagram's involution.

    Araki (1962): theta = -w_black o p, with w_black the longest element
    of the black vertices' Weyl group and p the arrow pairing.  A black
    vertex is fixed; a white vertex i goes to -w_black(alpha_p(i)), minus
    the highest root with coefficient one at p(i), the rest black.
    """
    if i in d.black:
        return simple_root(d.system, i)
    w_black = longest_parabolic(d.system, d.black)
    return -act(w_black, simple_root(d.system, d.arrow_partner(i)))


@lru_cache(maxsize=None)
def theta_matrix(d: SatakeDiagram) -> tuple[tuple[int, ...], ...]:
    """The involution in simple-root coordinates; column j is theta(alpha_j).

    Raises :class:`DiagramError` unless the map squares to the identity and
    permutes the roots.
    """
    n = d.system.rank
    cols = [theta_of_simple(d, j).coords for j in range(1, n + 1)]
    mat = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    for i in range(n):
        for j in range(n):
            entry = sum(mat[i][k] * mat[k][j] for k in range(n))
            if entry != (i == j):
                raise DiagramError("involution does not square to the identity")
    for beta in d.system.positive_roots:
        if _apply(mat, beta) not in all_roots(d.system):
            raise DiagramError(
                f"involution maps {beta.coords} outside the root system"
            )
    return mat


def _apply(mat: tuple[tuple[int, ...], ...], r: Root) -> Root:
    n = len(mat)
    return Root(sum(mat[i][j] * r[j] for j in range(n)) for i in range(n))


def apply_theta(d: SatakeDiagram, r: Root) -> Root:
    return _apply(theta_matrix(d), r)


def check_involution(d: SatakeDiagram) -> bool:
    """True when the diagram induces a genuine involution of the roots."""
    try:
        theta_matrix(d)
    except DiagramError:
        return False
    return True


def phi_split(d: SatakeDiagram) -> tuple[tuple[Root, ...], tuple[Root, ...]]:
    """(pointwise-fixed roots, positive roots off the black span)."""
    theta_matrix(d)  # validate first
    fixed = []
    moved_positive = []
    for r in sorted(all_roots(d.system)):
        if all(c == 0 or (j + 1) in d.black for j, c in enumerate(r)):
            fixed.append(r)
        elif r.is_positive():
            moved_positive.append(r)
    return tuple(fixed), tuple(moved_positive)


# ---------------------------------------------------------------------------
# restricted system

@_record
class RestrictedSystem:
    """The restricted root data carried by the white classes.

    Every restricted root is held as the integer root-lattice vector
    gamma = alpha - theta(alpha), twice the restriction of alpha.
    ``classes`` lists the white vertex orbits under the arrow pairing;
    ``gammas[k]`` is gamma of alpha_i for i in the k-th class.  ``cartan``
    is the restricted Cartan matrix, ``families[k]`` the positive roots off
    the black span with gamma equal to ``gammas[k]``, and ``nonreduced``
    records whether some restricted root occurs together with its double.
    """

    diagram: SatakeDiagram
    classes: tuple[tuple[int, ...], ...]
    gammas: tuple[Root, ...]
    cartan: tuple[tuple[int, ...], ...]
    type_label: str
    nonreduced: bool
    families: tuple[tuple[Root, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.classes)


def _gamma(d: SatakeDiagram, r: Root) -> Root:
    return r - apply_theta(d, r)


def restricted_system(d: SatakeDiagram) -> RestrictedSystem:
    """Restricted roots, Cartan matrix, type label, and criterion families.

    Beyond the involution checks this enforces the symmetric-space axioms
    that the diagram alone does not guarantee: no root may have alpha +
    theta(alpha) again a root, and the restricted simple roots must pair
    integrally.  The pairing <sigma_j, sigma_i^vee> of restricted simple
    roots is read off the gammas, 2 (gamma_j, gamma_i) / (gamma_i,
    gamma_i), since the coroot pairing does not change when both roots are
    doubled.
    """
    system = d.system
    theta_matrix(d)
    whites = d.whites()
    if not whites:
        raise DiagramError("diagram has no white vertices")
    in_class: set[int] = set()
    classes = []
    for i in whites:
        if i in in_class:
            continue
        orbit = tuple(sorted({i, d.arrow_partner(i)}))
        in_class.update(orbit)
        classes.append(orbit)
    classes_t = tuple(classes)

    _, phi1_plus = phi_split(d)
    for alpha in phi1_plus:
        total = alpha + apply_theta(d, alpha)
        if total in all_roots(system):
            raise DiagramError(
                f"alpha + theta(alpha) is a root for alpha = {alpha.coords}; "
                "the diagram is not of symmetric-space type"
            )

    gammas = []
    for orbit in classes_t:
        reps = {_gamma(d, simple_root(system, i)) for i in orbit}
        if len(reps) != 1:
            raise DiagramError(
                f"arrow class {orbit} has inconsistent restrictions"
            )
        gammas.append(reps.pop())

    r = len(classes_t)
    cartan_rows = []
    for i in range(r):
        den = root_inner(system, gammas[i], gammas[i])
        row = []
        for j in range(r):
            num = 2 * root_inner(system, gammas[j], gammas[i])
            if num % den:
                g = math.gcd(num, den)
                raise DiagramError(
                    f"restricted pairing <sigma_{j + 1}, sigma_{i + 1}^vee> "
                    f"= {num // g}/{den // g} is not an integer"
                )
            row.append(num // den)
        cartan_rows.append(tuple(row))
    cartan = tuple(cartan_rows)

    restrictions: dict[Root, list[Root]] = {}
    for alpha in phi1_plus:
        restrictions.setdefault(_gamma(d, alpha), []).append(alpha)
    gamma_set = set(restrictions) | {-g for g in restrictions}
    divisible = [Root(2 * x for x in g) in gamma_set for g in gammas]

    families = tuple(
        tuple(sorted(restrictions.get(g, []), key=lambda x: x.coords))
        for g in gammas
    )
    for orbit, fam in zip(classes_t, families):
        if not fam:
            raise DiagramError(f"arrow class {orbit} has an empty family")

    label = _identify_type(cartan, divisible)
    return RestrictedSystem(
        diagram=d,
        classes=classes_t,
        gammas=tuple(gammas),
        cartan=cartan,
        type_label=label,
        nonreduced=any(divisible),
        families=families,
    )


def _components(
    vertices: range, edges: list[tuple[int, int]]
) -> list[list[int]]:
    """Connected components of a graph by union-find: each in the order of
    ``vertices``, ordered by first vertex."""
    parent = {v: v for v in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values(), key=lambda g: g[0])


def _identify_type(
    cartan: tuple[tuple[int, ...], ...], divisible: list[bool]
) -> str:
    r = len(cartan)
    bonds = [
        (i, j) for i in range(r) for j in range(r) if i != j and cartan[i][j] != 0
    ]
    labels = []
    for verts in _components(range(r), bonds):
        sub = tuple(
            tuple(cartan[i][j] for j in verts) for i in verts
        )
        if any(divisible[i] for i in verts):
            labels.append(f"BC{len(verts)}")
        else:
            labels.append(_match_series(sub))
    return "x".join(labels)


def _match_series(mat: tuple[tuple[int, ...], ...]) -> str:
    r = len(mat)
    for series in "ABCDEFG":
        try:
            template = _simple_cartan(series, r)
        except ValueError:
            continue
        for perm in itertools.permutations(range(r)):
            if all(
                mat[perm[i]][perm[j]] == template[i][j]
                for i in range(r)
                for j in range(r)
            ):
                return f"{series}{r}"
    raise DiagramError(f"restricted Cartan matrix {mat} matches no series")


# ---------------------------------------------------------------------------
# criterion matrices

def _matrix_for(
    rs: RestrictedSystem, choice: tuple[Root, ...]
) -> tuple[tuple[int, ...], ...]:
    d = rs.diagram
    rows = []
    for alpha in choice:
        den = root_inner(d.system, alpha, alpha)
        if apply_theta(d, alpha) == -alpha:
            den *= 2
        row = []
        for gamma in rs.gammas:
            num = 2 * root_inner(d.system, gamma, alpha)
            if num % den:
                raise DiagramError(
                    f"criterion entry <{gamma.coords}, {alpha.coords}^vee> "
                    f"is not an integer"
                )
            row.append(num // den)
        rows.append(tuple(row))
    return tuple(rows)


def family_choices(rs: RestrictedSystem):
    """All one-root-per-family selections with their criterion matrices.

    Rows follow the family order; a row for a root negated by the involution
    is halved (its restriction is a full restricted root, not half of one).
    """
    for combo in itertools.product(*rs.families):
        yield combo, _matrix_for(rs, combo)


def criterion_matrices(rs: RestrictedSystem) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The distinct criterion matrices over all family selections, sorted."""
    return tuple(sorted({m for _, m in family_choices(rs)}))
