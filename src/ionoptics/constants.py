"""Physical constants used across the toolkit.

Values are CODATA 2018 literals pinned here rather than taken from
scipy.constants, so that results do not drift when SciPy updates its
CODATA tables.
"""

import math

ELEMENTARY_CHARGE = 1.602176634e-19
"""Elementary charge in C (exact by SI definition)."""

VACUUM_PERMITTIVITY = 8.8541878128e-12
"""Vacuum electric permittivity in F/m."""

ATOMIC_MASS = 1.66053906660e-27
"""Unified atomic mass unit in kg."""

COULOMB_CONSTANT = 1.0 / (4.0 * math.pi * VACUUM_PERMITTIVITY)
"""1 / (4 pi eps0) in N m^2 / C^2."""

UM = 1e-6
"""One micrometre in m: scenario files and reports give lengths in um."""

MAX_ARRAY_BYTES = 256 * 2**20
"""The largest array one input may make the toolkit allocate, in bytes: a
complex grid, the crystal's n x n Jacobian or a sweep row's values."""
