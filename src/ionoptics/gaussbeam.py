"""Astigmatic Gaussian beams and ABCD matrix propagation.

A beam is described per transverse axis (x and y) by its waist radius
and the waist position relative to the beam's reference plane. Beams
propagate in vacuum (n = 1). The complex parameter at the reference
plane is

    q = -waist_position + i z_R,      z_R = pi w0^2 / lambda

with lambda the wavelength. Elements act on q as
q' = (A q + B) / (C q + D). Matrices use the physical-q convention:

    free space (length L):      [[1, L], [0, 1]]
    thin lens (focal f):        [[1, 0], [-1/f, 1]]

The numerical aperture used throughout is the sine of the 1/e^2
far-field half-angle; in the small-angle form NA = lambda / (pi w0),
which makes NA and waist mutually convertible at a given wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, SingularConfigurationError, check_real, is_finite_real

__all__ = [
    "BeamAxis",
    "AstigmaticGaussian",
    "FreeSpace",
    "ThinLens",
    "beam_from_mfd",
    "rayleigh_length",
    "chain_matrix",
    "propagate_abcd",
    "width_at",
]


@dataclass(frozen=True)
class BeamAxis:
    """One transverse axis of a Gaussian beam.

    waist_position is measured along the propagation axis relative to the
    beam's reference plane (negative: the waist lies behind the plane).
    """

    waist_radius: float
    waist_position: float = 0.0

    def __post_init__(self):
        check_real("waist_radius", self.waist_radius, 0)
        check_real("waist_position", self.waist_position)


@dataclass(frozen=True)
class AstigmaticGaussian:
    wavelength: float
    x: BeamAxis
    y: BeamAxis

    def __post_init__(self):
        check_real("wavelength", self.wavelength, 0)


def beam_from_mfd(mfd_x: float, mfd_y: float, wavelength: float) -> AstigmaticGaussian:
    """Construct a beam at its waist from mode-field diameters (2 w0)."""
    return AstigmaticGaussian(
        wavelength=wavelength,
        x=BeamAxis(0.5 * mfd_x),
        y=BeamAxis(0.5 * mfd_y),
    )


def _axis(beam: AstigmaticGaussian, axis: str) -> BeamAxis:
    if axis == "x":
        return beam.x
    if axis == "y":
        return beam.y
    raise InvalidInputError("axis must be 'x' or 'y'")


def _rayleigh(ax: BeamAxis, wavelength: float) -> float:
    """z_R = pi w0^2 / lambda; InvalidInputError unless it is a positive,
    finite float (a waist or wavelength whose z_R over- or underflows)."""
    try:
        zr = math.pi * ax.waist_radius**2 / wavelength
    except OverflowError:
        zr = math.inf
    if not 0 < zr < math.inf:
        raise InvalidInputError(
            f"waist radius {ax.waist_radius:.3e} m at wavelength {wavelength:.3e} m "
            f"gives no positive, finite Rayleigh range (z_R = {zr:.3e} m)"
        )
    return zr


def rayleigh_length(beam: AstigmaticGaussian, axis: str) -> float:
    """z_R = pi w0^2 / lambda (vacuum) for the requested axis, in metres."""
    return _rayleigh(_axis(beam, axis), beam.wavelength)


@dataclass(frozen=True)
class FreeSpace:
    """Propagation over `length` metres in vacuum."""

    length: float

    def __post_init__(self):
        check_real("length", self.length)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[1.0, self.length], [0.0, 1.0]])


@dataclass(frozen=True)
class ThinLens:
    """focal_length must be a nonzero real number within the float range,
    not a bool, or an infinite float, which is a flat plate."""

    focal_length: float

    def __post_init__(self):
        f = self.focal_length
        if not (is_finite_real(f) and f != 0 or isinstance(f, float) and math.isinf(f)):
            raise InvalidInputError(
                "focal_length must be nonzero and within the float range, or an infinite "
                f"float, not a bool and not NaN, got {f}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[1.0, 0.0], [-1.0 / self.focal_length, 1.0]])


def chain_matrix(chain: Sequence) -> np.ndarray:
    """Compose a chain of FreeSpace and ThinLens elements applied left to right."""
    mat = np.eye(2)
    for el in chain:
        mat = el.matrix @ mat
    return mat


def _q_reference(ax: BeamAxis, wavelength: float) -> complex:
    return complex(-ax.waist_position, _rayleigh(ax, wavelength))


def _transform_axis(ax: BeamAxis, wavelength: float, mat: np.ndarray) -> BeamAxis:
    q = _q_reference(ax, wavelength)
    denom = mat[1, 0] * q + mat[1, 1]
    if abs(denom) < 1e-15:
        raise SingularConfigurationError("degenerate beam transform (C q + D = 0)")
    q_out = (mat[0, 0] * q + mat[0, 1]) / denom
    zr_out = q_out.imag
    if not zr_out > 0:
        raise SingularConfigurationError("transform produced a non-physical beam")
    w0 = math.sqrt(zr_out * wavelength / math.pi)
    return BeamAxis(w0, -q_out.real)


def propagate_abcd(beam: AstigmaticGaussian, chain: Sequence) -> AstigmaticGaussian:
    """Propagate both axes through `chain`.

    The returned beam's reference plane is the chain exit; its
    waist_position values locate the output waists relative to that plane.
    """
    mat = chain_matrix(chain)
    return AstigmaticGaussian(
        wavelength=beam.wavelength,
        x=_transform_axis(beam.x, beam.wavelength, mat),
        y=_transform_axis(beam.y, beam.wavelength, mat),
    )


def width_at(beam: AstigmaticGaussian, axis: str, z: float) -> float:
    """1/e^2 intensity radius at position z relative to the reference plane."""
    check_real("z", z)
    ax = _axis(beam, axis)
    zr = _rayleigh(ax, beam.wavelength)
    return ax.waist_radius * math.sqrt(1.0 + ((z - ax.waist_position) / zr) ** 2)
