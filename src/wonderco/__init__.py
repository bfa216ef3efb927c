"""wonderco: character-level geometry of a rank-two wonderful compactification.

The package computes, with exact integer arithmetic throughout:

* root systems, Weyl combinatorics, and parabolic cosets (``rootsys``);
* finitely supported characters and irreducible characters (``charring``);
* involution diagrams, restricted root systems, and spherical roots
  (``satake``);
* the integer-cone criterion for distinguished monomial differential
  operators (``opcrit``);
* the torus action on the Grassmannian of 3-planes in a 6-space: Pluecker
  weights, semistability, unstable strata, and the line-bundle dictionary
  (``gitgrass``);
* Schubert cells, inversion sets, and local-cohomology character series with
  their grading bounds (``schubert``);
* boundary-divisor cohomology characters of the compactification itself,
  with duality and cross-route validation (``wondercoh``).

``wonderco.cli`` exposes every stage as a subcommand; ``wonderco.acceptance``
bundles the end-to-end checks.
"""

__version__ = "0.1.0"
