"""Photonic chip out-coupling model: TIR mirror geometry and waveguide leakage.

A waveguide terminated by an angled facet reflects its mode upward by
total internal reflection. For a facet inclined at `facet_angle_deg` to
the chip plane, a guided ray travelling parallel to the surface hits the
facet at that same angle of incidence, so TIR requires

    facet_angle >= arcsin(n_ambient / n_effective).

A 45 degree facet sends the ray straight up; any excess tilts the
internal ray by twice the facet error, and Snell's law at the top
surface then fixes the exit angle from vertical:

    internal = 2 (facet_angle - 45 deg)
    sin(exit) = n_effective sin(internal) / n_exit

Waveguide-to-waveguide crosstalk from evanescent leakage is modelled as
an exponential in the gap, expressed in dB and anchored at a reference
pitch:

    XT(d) = XT_ref + 20 log10(e) * decay * (d_ref - d)

The default decay of 1.0 per micrometre is a calibration surrogate for
the guided-mode overlap; scenarios may override it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NoTirError, TrappedRayError, check_real

__all__ = [
    "TirMirrorSpec",
    "OutcouplingResult",
    "WaveguideArraySpec",
    "tir_critical_angle",
    "outcoupling_angle",
    "leakage_crosstalk",
]

DB_PER_NEPER = 20.0 * math.log10(math.e)


@dataclass(frozen=True)
class TirMirrorSpec:
    """Angled-facet mirror at the end of a waveguide.

    facet_angle_deg is measured from the chip plane. n_effective is the
    guided-mode effective index, n_ambient the index of the medium behind
    the facet (the etched trench), n_exit the medium above the chip.
    Each index must be finite and >= 1.
    """

    facet_angle_deg: float
    n_effective: float
    n_ambient: float = 1.0
    n_exit: float = 1.0

    def __post_init__(self):
        check_real("facet_angle_deg", self.facet_angle_deg, 0, 90)
        for name in ("n_effective", "n_ambient", "n_exit"):
            check_real(name, getattr(self, name), 1, closed=True)


@dataclass(frozen=True)
class OutcouplingResult:
    internal_tilt_deg: float
    exit_angle_deg: float
    tir_satisfied: bool


@dataclass(frozen=True)
class WaveguideArraySpec:
    """Out-coupler array feeding the addressing optics.

    positions_m are the transverse waveguide coordinates (sorted),
    mode_mfd_m the per-axis mode-field diameters of the emitted spot.
    """

    positions_m: np.ndarray
    mode_mfd_m: tuple[float, float]
    leakage_decay_per_m: float = 1.0e6
    leakage_reference: tuple[float, float] = (5.0e-6, -30.0)

    def __post_init__(self):
        if np.ndim(self.positions_m) != 1 or len(self.positions_m) < 1:
            raise InvalidInputError("positions_m must be a non-empty 1-d array")
        for i, p in enumerate(self.positions_m):
            check_real(f"positions_m[{i}]", p)
        pos = np.asarray(self.positions_m, dtype=float)
        object.__setattr__(self, "positions_m", pos)
        if len(pos) > 1 and not np.all(np.diff(pos) > 0):
            raise InvalidInputError("positions_m must be strictly increasing")
        for i, mfd in enumerate(self.mode_mfd_m):
            check_real(f"mode_mfd_m[{i}]", mfd, 0)
        check_real("leakage_decay_per_m", self.leakage_decay_per_m, 0)
        check_real("leakage_reference[0]", self.leakage_reference[0], 0)
        check_real("leakage_reference[1]", self.leakage_reference[1])

    @property
    def channel_count(self) -> int:
        return len(self.positions_m)

    def check_channel(self, index) -> None:
        """InvalidInputError, naming `index`, unless it is an integer (not a
        bool) from 0 to channel_count - 1."""
        n = self.channel_count
        if isinstance(index, bool) or not (isinstance(index, numbers.Integral) and 0 <= index < n):
            raise InvalidInputError(
                f"channel {index!r} is not an integer from 0 to {n - 1} "
                f"for {n} waveguides"
            )


def tir_critical_angle(spec: TirMirrorSpec) -> float:
    """Critical facet angle in degrees; below it the facet stops reflecting."""
    if spec.n_ambient >= spec.n_effective:
        raise NoTirError(
            "total internal reflection impossible: "
            f"n_ambient {spec.n_ambient} >= n_effective {spec.n_effective}"
        )
    return math.degrees(math.asin(spec.n_ambient / spec.n_effective))


def outcoupling_angle(spec: TirMirrorSpec) -> OutcouplingResult:
    """Exit geometry of the out-coupled beam.

    Raises TrappedRayError when the internal tilt exceeds the critical
    angle of the top surface and the light cannot leave the chip.
    """
    critical = tir_critical_angle(spec)
    internal = 2.0 * (spec.facet_angle_deg - 45.0)
    sin_exit = spec.n_effective * math.sin(math.radians(internal)) / spec.n_exit
    if abs(sin_exit) >= 1.0:
        raise TrappedRayError(
            f"internal tilt {internal:.2f} deg exceeds the top-surface "
            "critical angle; the reflected mode cannot exit the chip"
        )
    return OutcouplingResult(
        internal_tilt_deg=internal,
        exit_angle_deg=math.degrees(math.asin(sin_exit)),
        tir_satisfied=spec.facet_angle_deg >= critical,
    )


def leakage_crosstalk(array: WaveguideArraySpec, i: int, j: int) -> float:
    """Evanescent-leakage crosstalk between channels i and j in dB:
    XT_ref + DB_PER_NEPER decay (d_ref - gap), equal to XT_ref at the
    reference pitch d_ref. The model has no upper bound: it rises above
    0 dB for gaps below d_ref + XT_ref / (DB_PER_NEPER decay), about
    2.1 um for compact.json's 1.2 per um and -30 dB at 5 um.
    InvalidInputError for an index that check_channel rejects, or i == j."""
    array.check_channel(i)
    array.check_channel(j)
    if i == j:
        raise InvalidInputError("leakage is defined between distinct channels")
    gap = abs(float(array.positions_m[i] - array.positions_m[j]))
    ref_pitch, ref_db = array.leakage_reference
    return ref_db + DB_PER_NEPER * array.leakage_decay_per_m * (ref_pitch - gap)
