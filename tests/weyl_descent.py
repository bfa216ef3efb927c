"""Test-side Weyl descent that also records the moving element.

Production code needs only the chamber representative
(``rootsys.dominant_representative``); the oracles in the tests keep this
separate copy, so they stay independent of the code they check.
"""

from functools import lru_cache

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
    return v, w, len(w), v.is_strictly_dominant()
