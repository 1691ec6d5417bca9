"""Equivariant Schubert calculus on two-step flag varieties via puzzles.

Subpackages/modules:

- ``algebra``: exact arithmetic: sparse integer polynomials in
  y-variables, the delta-linear tower ring over ``Z[zeta_12]``, exact
  division by linear forms, and the difference-basis (positivity)
  decomposition.
- ``labels``: the eight edge labels and their duals, the canonical
  triangle/rhombus piece tables and every table derived from them, and
  table validation.
- ``strings``: 012-strings, Bruhat covers, the recursion oracle for
  structure constants, the Chevalley rule, and the quantum layer.
- ``board``: triangular-lattice geometry, puzzles, boundaries, weights,
  serialization and rendering.
- ``search``: one row-state engine for equivariant puzzles: product
  expansions by a row-transfer pass, and puzzle listings and single
  structure constants by a walk over the same states.
- ``mutation``: directed gashes, propagation, gash classes, flaws and
  resolutions, the mutation involution, mutation graphs, and the
  left-to-right sliding bijection.
- ``aura``: auras of semi-labeled edges/gashes/flawed puzzles and the
  executable summation identities tying auras to structure constants.
- ``cli``: the ``twostep`` command-line interface.
"""

__version__ = "0.1.0"
