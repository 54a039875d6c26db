"""Equilibrium geometry of a linear ion crystal in a harmonic axial well.

N ions of charge q*e and mass m confined along the axis of a trap with
axial angular frequency w arrange themselves where the harmonic restoring
force balances the mutual Coulomb repulsion. Scaling positions by

    l = (q^2 e^2 / (4 pi eps0 m w^2))^(1/3)

removes every physical parameter from the problem: the dimensionless
coordinates u_1 < u_2 < ... < u_N satisfy

    u_i = sum_{j<i} (u_i - u_j)^-2  -  sum_{j>i} (u_i - u_j)^-2

and depend only on N. The spacing is widest at the crystal edges and
tightest at the centre, so an addressing system built for the crystal
must handle a range of site separations, not a single pitch.

The solver is a damped Newton iteration on the force-balance residual
with its analytic Jacobian, started from evenly spaced positions. It is
fully deterministic: the same N always yields the same configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ATOMIC_MASS, COULOMB_CONSTANT, ELEMENTARY_CHARGE, MAX_ARRAY_BYTES
from .errors import ConvergenceError, InvalidInputError, check_count, check_real

__all__ = [
    "TrapSpec",
    "IonCrystal",
    "length_scale",
    "equilibrium_positions",
    "force_residual",
    "solve_crystal",
    "ion_spacings",
]

_TOLERANCE = 1e-12
_MAX_ITERATIONS = 200
# the most ions whose n x n float64 Newton Jacobian fits MAX_ARRAY_BYTES;
# the scenario schema's trap.ion_count maximum equals it
MAX_ION_COUNT = math.isqrt(MAX_ARRAY_BYTES // 8)


@dataclass(frozen=True)
class TrapSpec:
    """Axial trap and ion species parameters.

    Parameters
    ----------
    ion_mass_amu : float
        Ion mass in unified atomic mass units.
    ion_charge : int
        Charge state in units of the elementary charge (>= 1).
    axial_frequency_hz : float
        Axial secular frequency f (not angular) in Hz.
    ion_count : int
        Number of ions in the chain.
    """

    ion_mass_amu: float
    ion_charge: int
    axial_frequency_hz: float
    ion_count: int

    def __post_init__(self):
        check_real("ion_mass_amu", self.ion_mass_amu, 0)
        check_count("ion_charge", self.ion_charge)
        check_real("axial_frequency_hz", self.axial_frequency_hz, 0)
        check_count("ion_count", self.ion_count)


@dataclass(frozen=True)
class IonCrystal:
    """Solved crystal: dimensionless positions plus the physical length scale."""

    dimensionless_positions: np.ndarray
    length_scale_m: float
    trap: TrapSpec

    def __post_init__(self):
        u = np.asarray(self.dimensionless_positions, dtype=float)
        object.__setattr__(self, "dimensionless_positions", u)
        if u.ndim != 1 or len(u) != self.trap.ion_count:
            raise InvalidInputError("position count does not match trap.ion_count")
        if len(u) > 1 and not np.all(np.diff(u) > 0):
            raise InvalidInputError("positions must be strictly increasing")
        if np.max(np.abs(force_residual(u))) > 1e-10:
            raise InvalidInputError("positions do not satisfy force balance")

    @property
    def positions_m(self) -> np.ndarray:
        """Physical equilibrium positions in metres, centred on the trap axis."""
        return self.dimensionless_positions * self.length_scale_m


def length_scale(trap: TrapSpec) -> float:
    """Coulomb length scale l in metres for the given trap.

    l = (q^2 e^2 / (4 pi eps0 m w^2))^(1/3) with w = 2 pi f. A trap whose
    m w^2 or l under- or overflows a float raises InvalidInputError.
    """
    q = trap.ion_charge * ELEMENTARY_CHARGE
    m = trap.ion_mass_amu * ATOMIC_MASS
    w = 2.0 * math.pi * trap.axial_frequency_hz
    stiffness = m * w * w
    scale = (COULOMB_CONSTANT * q * q / stiffness) ** (1.0 / 3.0) if stiffness > 0 else 0.0
    if not 0 < scale < math.inf:
        raise InvalidInputError(
            f"trap gives no finite, positive Coulomb length scale: m w^2 = "
            f"{stiffness:.3e} kg/s^2, l = {scale:.3e} m"
        )
    return scale


def force_residual(u: np.ndarray) -> np.ndarray:
    """Net dimensionless force on each ion at positions u (zero at equilibrium)."""
    u = np.asarray(u, dtype=float)
    if len(u) == 1:
        return u.copy()
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return u - np.sum(np.sign(d) / (d * d), axis=1)


def _jacobian(u: np.ndarray) -> np.ndarray:
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    inv3 = 1.0 / np.abs(d) ** 3
    jac = -2.0 * inv3
    np.fill_diagonal(jac, 1.0 + 2.0 * np.sum(inv3, axis=1))
    return jac


def equilibrium_positions(n: int) -> np.ndarray:
    """Dimensionless equilibrium positions of an n-ion chain, sorted ascending.

    Damped Newton iteration on the force balance, starting from uniformly
    spaced positions over [-n/2, n/2] scaled by 0.63. Backtracking halves
    the step until the residual norm decreases and the ordering stays
    strict. Raises ConvergenceError if the residual has not dropped below
    _TOLERANCE (max norm) within _MAX_ITERATIONS iterations, and
    InvalidInputError unless n is an integer from 1 to MAX_ION_COUNT (5792),
    the most whose n x n float64 Jacobian fits MAX_ARRAY_BYTES (256 MiB).
    """
    check_count("ion count", n)
    if n > MAX_ION_COUNT:
        raise InvalidInputError(
            f"ion count {n:g} needs an n x n Jacobian over the "
            f"{MAX_ARRAY_BYTES // 2**20} MiB limit; at most {MAX_ION_COUNT} ions"
        )
    n = int(n)

    u = 0.63 * np.linspace(-n / 2.0, n / 2.0, n)
    # make the start exactly antisymmetric so the solution stays mirror
    # symmetric to machine precision
    u = 0.5 * (u - u[::-1])

    for _ in range(_MAX_ITERATIONS):
        res = force_residual(u)
        if np.max(np.abs(res)) < _TOLERANCE:
            return u
        step = np.linalg.solve(_jacobian(u), -res)
        norm = np.linalg.norm(res)
        lam = 1.0
        while lam > 1e-8:
            trial = u + lam * step
            ordered = n == 1 or bool(np.all(np.diff(trial) > 0))
            if ordered and np.linalg.norm(force_residual(trial)) < norm:
                break
            lam *= 0.5
        u = u + lam * step

    res = float(np.max(np.abs(force_residual(u))))
    raise ConvergenceError(
        f"equilibrium solver did not reach tolerance {_TOLERANCE:g} "
        f"after {_MAX_ITERATIONS} iterations (residual {res:.3e})",
        residual=res,
    )


def solve_crystal(trap: TrapSpec) -> IonCrystal:
    """Solve the chain for the given trap and attach the physical length scale."""
    u = equilibrium_positions(trap.ion_count)
    return IonCrystal(u, length_scale(trap), trap)


def ion_spacings(crystal: IonCrystal) -> np.ndarray:
    """Gaps between neighbouring ions in metres (length N-1, symmetric)."""
    return np.diff(crystal.positions_m)
