"""Scalar wave optics on a uniform grid: angular-spectrum propagation,
thin phase elements, and focal-spot metrology.

Fields are sampled on an nx-by-ny grid (powers of two, >= 64) with a
single pitch for both axes. samples[iy, ix] holds the complex amplitude
at x = (ix - nx/2) * pitch, and likewise for y, so the window is centred
on the optical axis. Fields propagate in vacuum (n = 1). Propagation
uses the band-limited angular spectrum: the spectrum is multiplied by
exp(i kz d) with kz = sqrt(k^2 - kx^2 - ky^2) and evanescent components
(kx^2 + ky^2 > k^2) are discarded. Within the propagating band the
transfer function has unit modulus, so power is conserved and a
z / -z round trip is the identity.

Every FFT runs in _fft2. Given no columns it is the full 2-d transform;
given column blocks, its axis-0 pass runs in place on exactly those
blocks, then the axis-1 pass on the rows it is given (all by default).
One rule names the columns: those that can hold a nonzero sample. A
forward transform names the field's nonzero column span (behind an
aperture, a small part of the grid), and an inverse the propagating
band's two column blocks. The result is bit-identical to scipy.fft.fft2
and ifft2: pocketfft also runs axis 0 first, an all-zero column
transforms to exact zeros, and the inverse's 1/(nx ny) scale is a power
of two. Each row of the axis-1 pass is transformed on its own, so a row
subset is bit-identical to those rows of the whole transform. A lens
keeps to the column rule: it multiplies every row of the field's
nonzero column span, or only the opening's box of the aperture at its z.

A plane read only for its x variance names no column block, so only
the axis-1 pass runs. By Parseval along y, the column sums of |E|^2 are
those of |G|^2 over ny, where G is the axis-1 inverse transform of the
propagated spectrum; its rows outside the propagating band are zero, so
the transfer product is built on the band's rows and only they are
transformed (FreeSpacePlanes.x_variance; Matsushima & Shimobaba, Opt.
Express 17, 19662, 2009, for the band-limited angular spectrum).

A plane read only for its row y = 0 (FreeSpacePlanes.axis_rows, the
synthesis probe's on-axis spot) runs no 2-d pass: row ny/2 of a 2-d
inverse DFT is the 1-d inverse along x of sum_m (-1)^m P[m, :] / ny, P
the transfer product, so the signed column sums of P's band blocks feed
one 1-d inverse of a single row.

One class propagates: FreeSpacePlanes, a field's spectrum and window
guard. Every step of the stack loop (propagate_elements) starts from
planes and runs no x-axis pass it does not need. The source is a
product of an x and a y profile, so its spectrum is the outer product
of two 1-d transforms, one pass of a row and one of a column, and so
are its spectral moments (gaussian_planes). Free space is diagonal in
(ky, kx) and a wedge in (y, kx), so a step that ends at a wedge runs the
axis-0 inverse pass alone, the ramp and the axis-0 forward pass, and the
next guard's real-space moments come by Parseval. A step that ends at an
aperture runs its axis-1 pass on the opening's rows only; one that ends
at a lens builds its whole plane.

Past an aperture the field is zero outside the opening's box, and the
stack loop owns the grid _aperture returns: a lens at its z multiplies
the box in place, and the next planes take that grid as their spectrum
(_box_planes). Their forward transform runs in place on the box's
columns, their moments read the box's rows, and they keep a copy of the
box alone, which serves the guard's covariance and any later read of
the field. The stack mutates no grid it did not create: a caller's
field is copied before its transform.

Before propagating, the routine estimates where the beam will land from
the first and second moments of intensity in both real and angular
space, and refuses distances that would push the predicted 1/e^2
footprint into the outer half of the window, where periodic wrap-around
would corrupt the result. One footprint formula serves both of its
steps. It first decides a distance at the Cauchy-Schwarz limit
|cov| <= sqrt(var var_s) of the x-theta covariance, which needs no FFT
beyond the spectrum; only a distance the limit cannot clear takes the
covariance itself (one inverse FFT for both axes), so converging beams
are not penalised.

All angles are radians and all lengths metres.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import struct
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np
import scipy.fft as sfft
from numpy.polynomial import Polynomial

from .constants import MAX_ARRAY_BYTES
from .errors import (
    FocusNotBracketedError,
    InvalidGeometryError,
    InvalidInputError,
    PropagationWindowError,
    SamplingError,
    check_count,
    check_members,
    check_real,
    is_finite_real,
)
from .gaussbeam import AstigmaticGaussian, ThinLens

__all__ = [
    "ScalarField",
    "ThinLensPhase",
    "WedgePhase",
    "CircAperture",
    "PhaseElement",
    "make_gaussian_field",
    "angular_spectrum_propagate",
    "FreeSpacePlanes",
    "gaussian_planes",
    "propagate_elements",
    "apply_element",
    "spot_metrics",
    "SpotMetrics",
    "find_focus",
    "FocusResult",
    "write_field_sfld",
    "read_field_sfld",
    "write_field_csv",
]

_MIN_GRID = 64
_MAX_SAMPLES = MAX_ARRAY_BYTES // 16  # 4096^2 complex128; reference.json runs 2048^2
SFLD_MAGIC = b"SFLD"
# magic, version, nx, ny, clipped_fraction, pitch, wavelength, then ambient
# index, origin x and origin y, fixed at _SFLD_FRAME and checked on read
_SFLD_HEADER = struct.Struct("<4sIIIf5d")
SFLD_HEADER_SIZE = 64
_SFLD_FRAME = (1.0, 0.0, 0.0)
# wrap-around guard: |centroid| + this factor times the predicted 1/e^2
# radius must stay inside the half-width of the grid
_WINDOW_FACTOR = 2.0
# relative margin of the guard's footprint at the covariance's
# Cauchy-Schwarz limit over the rounding of the moments it is computed from
_BOUND_MARGIN = 1e-9
_TILT_LIMIT = math.radians(30.0)
# the spot fit stops at a step below this in units of (peak, w0, w0), or
# fails after this many trial points
_FIT_STEP_TOL = 1e-12
_FIT_MAX_EVALS = 100
# rows per block of the in-place x mirror: 1 MiB of temporary at nx = 1024
_MIRROR_ROWS = 64


def _check_grid(nx: int, ny: int, pitch: float):
    for n in (nx, ny):
        if (isinstance(n, bool) or not isinstance(n, numbers.Integral)
                or n < _MIN_GRID or (n & (n - 1)) != 0):
            raise InvalidInputError(
                f"grid dimensions must be powers of two >= {_MIN_GRID}, got {nx}x{ny}"
            )
    if nx * ny > _MAX_SAMPLES:
        raise InvalidInputError(
            f"grid {nx}x{ny} needs {nx * ny * 16 // 2**20} MiB per complex grid, over "
            f"the {_MAX_SAMPLES * 16 // 2**20} MiB limit ({_MAX_SAMPLES} samples)"
        )
    check_real("pitch", pitch, 0)


def _check_grid_tuple(grid) -> tuple:
    """`grid` as (nx, ny, pitch) after _check_grid; InvalidInputError
    unless it has those three members."""
    nx, ny, pitch = check_members("grid", grid, 3)
    _check_grid(nx, ny, pitch)
    return nx, ny, pitch


class _Grid:
    """Coordinates and wavenumber of a centred grid with nx, ny, pitch,
    wavelength and clipped_fraction, and fields on it."""

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.nx) - self.nx // 2) * self.pitch

    @property
    def y(self) -> np.ndarray:
        return (np.arange(self.ny) - self.ny // 2) * self.pitch

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    def _with_samples(self, samples: np.ndarray, clipped_fraction=None) -> "ScalarField":
        if clipped_fraction is None:
            clipped_fraction = self.clipped_fraction
        return ScalarField(samples, self.pitch, self.wavelength, clipped_fraction)


@dataclass(eq=False)
class ScalarField(_Grid):
    """Sampled complex field. Treat instances as immutable; operations
    return new fields. The stack loop (propagate_elements) mutates only
    the samples of fields it created itself, before any caller sees
    them. Samples that are not complex numbers raise
    InvalidInputError; a NaN or infinite one fails at the first intensity
    sum that reads it (the window guard, spot_metrics)."""

    samples: np.ndarray
    pitch: float
    wavelength: float
    clipped_fraction: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples)
        # NumPy would take None for NaN; a numeric array skips this pass
        if samples.dtype.hasobject:
            for value in samples.flat:
                if not isinstance(value, numbers.Number):
                    raise InvalidInputError(f"samples must be complex numbers: got {value!r}")
        try:
            self.samples = np.ascontiguousarray(samples, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"samples must be complex numbers: {exc}") from None
        if self.samples.ndim != 2:
            raise InvalidInputError("samples must be a 2-d array")
        _check_grid(self.nx, self.ny, self.pitch)
        check_real("wavelength", self.wavelength, 0)
        check_real("clipped_fraction", self.clipped_fraction, 0, 1, closed=True)

    @property
    def nx(self) -> int:
        return self.samples.shape[1]

    @property
    def ny(self) -> int:
        return self.samples.shape[0]

    @property
    def power(self) -> float:
        return _power_sum(self.samples) * self.pitch**2


@dataclass(frozen=True)
class _Frame(_Grid):
    """What a ScalarField holds besides its samples: the grid and beam of
    planes whose field is built only when read."""

    nx: int
    ny: int
    pitch: float
    wavelength: float
    clipped_fraction: float = 0.0


@dataclass(frozen=True)
class ThinLensPhase(ThinLens):
    """Ideal thin lens: multiplies by exp(-i k r^2 / (2 f)) about the axis.
    focal_length keeps ThinLens's rule: an infinite one is a flat plate."""


@dataclass(frozen=True)
class WedgePhase:
    """Thin wedge deflecting the beam in y by tilt_y radians.

    The phase ramp is exp(i k sin(tilt_y) y), so a wedge with tilt_y = -t
    cancels a source launched with tilt (0, +t). The out-couplers tilt
    every beam in the y plane only, so no wedge needs an x tilt. tilt_y
    must be a real number below 30 degrees in magnitude, not NaN or a bool.
    """

    tilt_y: float

    def __post_init__(self):
        if not (is_finite_real(self.tilt_y) and abs(self.tilt_y) < _TILT_LIMIT):
            raise InvalidInputError(
                f"wedge tilt magnitude must stay below 30 degrees, got {self.tilt_y} rad"
            )


@dataclass(frozen=True)
class CircAperture:
    radius: float

    def __post_init__(self):
        check_real("radius", self.radius, 0)


PhaseElement = Union[ThinLensPhase, WedgePhase, CircAperture]


def _check_tilt(tilt: float, wavelength: float, pitch: float):
    """InvalidInputError for a tilt that is not finite, SamplingError for one
    whose phase ramp the pitch aliases (Nyquist)."""
    check_real("tilt", tilt)
    if abs(math.sin(tilt)) >= wavelength / (2.0 * pitch):
        raise SamplingError(f"tilt {math.degrees(tilt):.4g} deg aliases on pitch {pitch:.3e} m; "
                            f"need |sin(tilt)| < {wavelength / (2.0 * pitch):.4g}")


def _gaussian_profiles(
    beam: AstigmaticGaussian,
    tilt: tuple[float, float],
    grid: tuple[int, int, float],
    center: tuple[float, float],
):
    """The (x, y) profiles of make_gaussian_field, each normalised to unit
    power along its axis, after make_gaussian_field's checks."""
    nx, ny, pitch = _check_grid_tuple(grid)
    tilt, center = check_members("tilt", tilt, 2), check_members("center", center, 2)
    w0x, w0y = beam.x.waist_radius, beam.y.waist_radius

    w_min, w_max = min(w0x, w0y), max(w0x, w0y)
    if pitch > w_min / 4.0:
        raise SamplingError(
            f"pitch {pitch:.3e} m too coarse for waist {w_min:.3e} m; "
            f"need pitch <= {w_min / 4.0:.3e} m"
        )
    if min(nx, ny) * pitch < 8.0 * w_max:
        raise SamplingError(
            f"window {min(nx, ny) * pitch:.3e} m too small for waist {w_max:.3e} m; "
            f"need width >= {8.0 * w_max:.3e} m"
        )
    for t in tilt:
        _check_tilt(t, beam.wavelength, pitch)
    for c in center:
        check_real("center", c)

    ik = 1j * (2.0 * math.pi / beam.wavelength)
    profiles = []
    for n, w0, t, c in ((nx, w0x, tilt[0], center[0]), (ny, w0y, tilt[1], center[1])):
        u = (np.arange(n) - n // 2) * pitch - c
        # far off the window u / w0 may overflow; exp(-inf) is 0 like any
        # envelope beyond exp's underflow
        with np.errstate(over="ignore"):
            profile = np.exp(-((u / w0) ** 2)) * np.exp(ik * (math.sin(t) * u))
        profiles.append(profile)
    norms = [math.sqrt(_power_sum(p[None, :]) * pitch) for p in profiles]
    if 0.0 in norms:
        raise InvalidInputError(
            f"beam centered at ({center[0]:.3e}, {center[1]:.3e}) m carries no "
            "power inside the sampled window"
        )
    return [p / norm for p, norm in zip(profiles, norms)]


def make_gaussian_field(
    beam: AstigmaticGaussian,
    tilt: tuple[float, float],
    grid: tuple[int, int, float],
    center: tuple[float, float] = (0.0, 0.0),
) -> ScalarField:
    """Sample a tilted elliptical Gaussian at its waist, normalised to unit power.

    `grid` is (nx, ny, pitch). The pitch must resolve the smaller waist
    with four samples and each tilt's ramp (|sin| < wavelength / (2 pitch)),
    and the window must span eight times the larger waist, otherwise a
    SamplingError explains the required grid. A tilt or center member
    that is not finite raises InvalidInputError.

    The envelope and the tilt ramp are products of one factor per axis, so
    the field is the outer product of an x and a y profile, each the exp of
    its axis's envelope times the exp of its ramp, normalised to unit power
    along its axis. It equals the 2-d exp of the summed exponents to
    rounding. gaussian_planes takes the same profiles to the spectrum
    without building the field.
    """
    profile_x, profile_y = _gaussian_profiles(beam, tilt, grid, center)
    return ScalarField(np.multiply.outer(profile_y, profile_x), grid[2], beam.wavelength)


def _span(mask: np.ndarray) -> slice:
    """The slice from the first to the last true entry of a 1-d mask."""
    if not mask.any():
        return slice(0, 0)
    return slice(int(mask.argmax()), len(mask) - int(mask[::-1].argmax()))


def _row_sums(samples: np.ndarray) -> np.ndarray:
    """Row sums of |samples|^2 (C-contiguous), from one einsum read of its
    float64 view."""
    v = samples.view(np.float64)
    return np.einsum("ij,ij->i", v, v)


def _column_sums(samples: np.ndarray) -> np.ndarray:
    """Column sums of |samples|^2 (C-contiguous), from one einsum read of
    its float64 view: no |E|^2 grid, one thread, no BLAS."""
    v = samples.view(np.float64)
    ix = np.einsum("ij,ij->j", v, v)
    return ix[0::2] + ix[1::2]


def _power_sum(samples: np.ndarray) -> float:
    """The sum of |samples|^2, from one read of the float64 view."""
    return float(_row_sums(samples).sum())


def _check_power(total: float, empty: str) -> float:
    """`total`, a sum of |E|^2; InvalidInputError if it is not finite (a
    NaN or infinite sample, or one whose square overflows), and with the
    message `empty` if it is not positive."""
    if not math.isfinite(total):
        raise InvalidInputError(f"field power {total} is not finite")
    if total <= 0:
        raise InvalidInputError(empty)
    return total


def _abs2(values: np.ndarray) -> np.ndarray:
    """|values|^2 of a 1-d complex array."""
    return values.real**2 + values.imag**2


def _sines(frame: _Grid):
    """(sin_x, sin_y): sin(theta) = lambda f of the FFT grid's spatial
    frequencies f along x and y, in fftfreq order."""
    return [frame.wavelength * sfft.fftfreq(n, frame.pitch) for n in (frame.nx, frame.ny)]


def _centroid_variance(weights: np.ndarray, coords: np.ndarray, total: float):
    """(centroid, variance) of `coords` under the marginal `weights` of sum `total`."""
    c = float(weights @ coords) / total
    return c, float(weights @ (coords - c) ** 2) / total


def _intensity_stats(samples: np.ndarray, x: np.ndarray, y: np.ndarray,
                     rows: slice = slice(None)):
    """(total, cx, cy, vx, vy) of |samples|^2 (C-contiguous), from two einsum
    reads of its float64 view; total is _power_sum's sum, bit for bit. A
    total that is not finite or not positive raises InvalidInputError.

    Only `rows` are read, and every other row must be zero: their column
    sums are the whole grid's, and their full-width row sums fill a
    vector of every row's, so each sum runs in the whole grid's order and
    the result is bit for bit that of the whole grid."""
    iy = np.zeros(len(y))
    iy[rows] = _row_sums(samples[rows])
    total = _check_power(float(iy.sum()), "field has no power")
    cx, vx = _centroid_variance(_column_sums(samples[rows]), x, total)
    cy, vy = _centroid_variance(iy, y, total)
    return total, cx, cy, vx, vy


def _marginal_stats(ix: np.ndarray, iy: np.ndarray, x: np.ndarray, y: np.ndarray):
    """(cx, cy, vx, vy) as _intensity_stats gives them, from an x and a y
    marginal of |E|^2 known only up to a positive scale each (by Parseval
    or from the profiles of a product field)."""
    cx, vx = _centroid_variance(ix, x, float(ix.sum()))
    cy, vy = _centroid_variance(iy, y, float(iy.sum()))
    return cx, cy, vx, vy


def _window_covariance(field: _Grid, spectrum: np.ndarray, axes, total: float,
                       support=None):
    """x-theta and y-theta covariances from the local transverse momentum
    density Im(conj(E) grad E) / k, given the cheap pass's axes and sum `total`.

    One inverse FFT gives h = dE/dx + i dE/dy. Im(conj(E) h) adds
    Re(conj(E) dE/dy) to the x density and -Re(conj(E) h) adds
    -Re(conj(E) dE/dx) to the y density; the spectral derivative is
    anti-Hermitian, so those cross terms sum to zero down every column
    and along every row, and the weighted sums keep only the wanted term.
    E is field.samples, or with `support` (rows, cols, samples) the
    samples on a box outside which E is zero: then `field` gives only the
    grid, and E and h are read on the box alone.
    """
    rows, cols, samples = support or (slice(None), slice(None), field.samples)
    fx = sfft.fftfreq(field.nx, field.pitch)
    fy = sfft.fftfreq(field.ny, field.pitch)
    h = (2j * math.pi * fx)[None, :] - (2.0 * math.pi * fy)[:, None]
    h *= spectrum
    e = samples.view(np.float64)
    h = _fft2(h, True)[rows, cols].view(np.float64)
    # column sums of Im(conj(E) h) = re h.imag - im h.real, row sums of Re(conj(E) h)
    im_columns = np.einsum("ij,ij->j", e[:, 0::2], h[:, 1::2])
    im_columns -= np.einsum("ij,ij->j", e[:, 1::2], h[:, 0::2])
    moment_x = float(im_columns @ field.x[cols])
    moment_y = -float(np.einsum("ij,ij->i", e, h) @ field.y[rows])
    (_, cx, mean_sx, *_), (_, cy, mean_sy, *_) = axes
    k_itot = field.wavenumber * total
    return moment_x / k_itot - cx * mean_sx, moment_y / k_itot - cy * mean_sy


def _extents(field: ScalarField, axes, covs, d: float):
    """Per axis of the cheap pass's `axes` with x-theta covariance in
    `covs`: (label, extent, half-window) after propagating `d`. The
    centroid moves along the mean ray and the predicted variance is
    var + 2 d cov + d^2 var_s; the extent adds _WINDOW_FACTOR times its
    1/e^2 radius to the centroid's distance from the axis."""
    for (label, c, mean_s, var, var_s, n_axis), cov in zip(axes, covs):
        var_pred = max(var + 2.0 * d * cov + d * d * var_s, 0.0)
        radius = 2.0 * math.sqrt(var_pred)  # 1/e^2 radius of a Gaussian
        centre = c + d * mean_s / max(math.sqrt(1.0 - mean_s**2), 1e-6)
        yield label, abs(centre) + _WINDOW_FACTOR * radius, 0.5 * n_axis * field.pitch


def _check_window(field: ScalarField, axes, covs, d: float):
    """Raise PropagationWindowError if the beam of the cheap pass's `axes`
    and x-theta covariances `covs` would leave the safe window, centred
    on the axis, after propagating `d`."""
    for label, extent, half in _extents(field, axes, covs, d):
        if extent > half:
            raise PropagationWindowError(
                f"propagating {d:.3e} m would move the beam "
                f"({label}-extent {extent:.3e} m) outside the safe "
                f"half-window {half:.3e} m; enlarge the grid or split "
                "the propagation"
            )


def _fft2(samples: np.ndarray, inverse: bool,
          columns: Optional[Sequence[slice]] = None,
          rows: Optional[Sequence[slice]] = None) -> np.ndarray:
    """The 2-d FFT of the C-contiguous grid `samples` (inverse if
    `inverse`), which it overwrites, or the passes of it that the caller
    names. With `columns` None it is scipy.fft.fft2 (ifft2). Otherwise
    `columns` are disjoint slices that name exactly the column blocks the
    axis-0 pass transforms, in place, and `rows` (None: every row) the row
    blocks the axis-1 pass then transforms, in place. Naming every nonzero
    column and every row gives the 2-d transform bit-identically (see the
    module docstring); an empty `columns` leaves the axis-1 pass alone, an
    empty `rows` the axis-0 pass alone, and a row the axis-1 pass skips
    keeps its axis-0 values. Every transform of the package runs here."""
    if columns is None:
        transform = sfft.ifft2 if inverse else sfft.fft2
        return transform(samples, workers=-1, overwrite_x=True)
    transform = sfft.ifft if inverse else sfft.fft
    for c in columns:
        # pocketfft writes an overwrite_x transform of a complex view into
        # the view itself
        transform(samples[:, c], axis=0, workers=-1, overwrite_x=True)
    if rows is None:
        return transform(samples, axis=1, workers=-1, overwrite_x=True)
    for r in rows:
        transform(samples[r], axis=1, workers=-1, overwrite_x=True)
    return samples


@functools.lru_cache(maxsize=1)
def _kz_quadrant(nx: int, ny: int, pitch: float, k: float):
    """The propagating band's distinct kz values, and a read-only int32
    table over the block [0..ay] x [0..ax] of the FFT grid that bounds the
    band (kx, ky >= 0, the Nyquist index included): 0 for an evanescent
    entry, else 1 + the index of the entry's kz among the values. One
    cache entry suffices: a run propagates on one grid at a time."""
    kx = (2.0 * math.pi * sfft.fftfreq(nx, pitch))[None, : nx // 2 + 1]
    ky = (2.0 * math.pi * sfft.fftfreq(ny, pitch))[: ny // 2 + 1, None]
    kz_sq = k * k - kx * kx - ky * ky
    # kx = 0 and ky = 0 bound the band's reach along the other axis
    ax = int(np.count_nonzero(kz_sq[0] > 0.0)) - 1
    ay = int(np.count_nonzero(kz_sq[:, 0] > 0.0)) - 1
    kz_sq = kz_sq[: ay + 1, : ax + 1]
    band = kz_sq > 0.0
    kz, slots = np.unique(np.sqrt(kz_sq[band]), return_inverse=True)
    index = np.zeros(kz_sq.shape, dtype=np.int32)
    index[band] = slots + 1
    kz.flags.writeable = index.flags.writeable = False
    return kz, index


def _band_blocks(n: int, q: int):
    """Along an axis of n samples whose quadrant holds indices 0..q-1:
    (grid slice, quadrant slice) of the quadrant's block and of its mirror
    image. Index n - i mirrors index i (i >= 1); the Nyquist index n/2 is
    its own mirror, so the mirrored block stops short of it."""
    m = min(q, n // 2) - 1
    return (slice(0, q), slice(None)), (slice(n - m, n), slice(m, 0, -1))


def _band_phases(frame: _Grid, distance: float) -> np.ndarray:
    """exp(i kz d) on the quadrant block that bounds the band (_kz_quadrant),
    0 where evanescent: one exp per distinct kz, gathered onto the block."""
    kz, index = _kz_quadrant(frame.nx, frame.ny, frame.pitch, frame.wavenumber)
    phases = np.zeros(len(kz) + 1, dtype=np.complex128)  # slot 0: evanescent
    np.multiply(kz, 1j * distance, out=phases[1:])
    np.exp(phases[1:], out=phases[1:])
    return phases[index]


def _transfer(field: ScalarField, distance: float, spectrum=None,
              band_rows: bool = False) -> np.ndarray:
    """Band-limited transfer exp(i kz d) on the FFT grid, zero outside the
    propagating band; with `spectrum`, the product transfer * spectrum.
    With `band_rows`, only the rows of the band's two row blocks, stacked
    in that order: every other row is zero.

    On an even grid fftfreq negates exactly, so kz[iy, ix] equals
    kz[iy, (nx - ix) % nx] and kz[(ny - iy) % ny, ix] bit for bit. The exp
    is therefore taken once per distinct kz of the quadrant block that
    bounds the band (_kz_quadrant) and gathered onto that block, and its
    mirror images fill the other three blocks of one zeroed grid; every
    entry gets the exp of the same float, so every value equals the
    full-grid formula's.
    """
    nx, ny = field.nx, field.ny
    quadrant = _band_phases(field, distance)
    qy, qx = quadrant.shape
    row_blocks = _band_blocks(ny, qy)
    # the rows of `out` each block fills: in place, or stacked from row 0
    targets = [r for r, _ in row_blocks]
    if band_rows:
        first, mirrored = targets
        targets = [first, slice(first.stop, first.stop + mirrored.stop - mirrored.start)]
    out = np.zeros((targets[1].stop, nx), dtype=np.complex128)
    for ((r, qr), t), (c, qc) in itertools.product(
        zip(row_blocks, targets), _band_blocks(nx, qx)
    ):
        if spectrum is None:
            out[t, c] = quadrant[qr, qc]
        else:
            # keep this operand order: NumPy's complex multiply may round
            # differently with the operands swapped, and reports must not move
            np.multiply(quadrant[qr, qc], spectrum[r, c], out=out[t, c])
    return out


def _band(frame: _Grid, axis: int) -> list:
    """The propagating band's two blocks of rows (axis 0) or columns (axis
    1) on the grid of `frame`: outside them _transfer writes only zeros."""
    q = _kz_quadrant(frame.nx, frame.ny, frame.pitch, frame.wavenumber)[1].shape[axis]
    return [s for s, _ in _band_blocks((frame.ny, frame.nx)[axis], q)]


def _x_marginal(band_rows: np.ndarray) -> np.ndarray:
    """ny times the column sums of |E|^2 of a plane whose transfer product
    is zero outside `band_rows` (stacked, overwritten): by Parseval along
    y, those of the band rows' axis-1 inverse pass alone."""
    return _column_sums(_fft2(band_rows, True, ()))


class FreeSpacePlanes:
    """Free-space planes of one field from its spectrum, each read behind
    the field's wrap-around guard. FreeSpacePlanes(field) copies the
    caller's field and takes the spectrum in one forward FFT of the copy
    on its nonzero column span (_fft2). gaussian_planes, _wedge and
    _box_planes pass the spectrum with the field's _Frame, its
    _intensity_stats (followed, for a source, by the spectral moments)
    and a builder of its support: (rows, cols, samples), the field on a
    box outside which it is zero. The support is built only when read,
    for the covariance, a zero distance or a caller, and the field only
    from it.

    guard() decides a distance first with the exact check's footprint
    (_extents) at the covariance's Cauchy-Schwarz limit: on the grid x is
    diagonal and the spectral momentum Hermitian, so |cov| <= sqrt(var
    var_s), and no covariance can give a larger footprint. The relative
    margin absorbs the rounding of the moments, so only a distance the
    limit cannot clear needs the exact covariance, which reads the
    support alone. The moments take one pass, which keeps the power sum
    the covariance reads; each is computed at most once.

    plane() costs one transfer build and one inverse FFT, whose axis-0
    pass runs on the band's two column blocks, all that _transfer writes;
    it stays bit-identical to a full 2-d FFT. x_variance() reads only the
    x variance of a plane, from the band rows (_x_marginal): about 0.3 of
    a full 2-d transform. axis_rows() reads only the row y = 0 of planes,
    one 1-d inverse each. Each step of the stack loop (propagate_elements)
    starts from planes and ends at a wedge (_wedge), an aperture
    (_aperture) or plane().
    """

    def __init__(self, field: Optional[ScalarField], spectrum=None,
                 frame: Optional[_Grid] = None, stats=None, build=None):
        if spectrum is None:
            # a copy: the transform overwrites its input, and the guard reads the field
            samples = field.samples.copy()
            spectrum = _fft2(samples, False, [_nonzero_columns(samples)])
        self._field, self.spectrum = field, spectrum
        self.frame = field if frame is None else frame
        self._stats, self._build = stats, build
        self._box = self._axes = self._covs = self._total = None

    def _support(self):
        """(rows, cols, samples): the field's samples on a box outside which
        it is zero, the whole grid unless the planes were made past an
        aperture (_box_planes); built at most once."""
        if self._box is None:
            if self._build is None:
                self._box = (slice(None), slice(None), self._field.samples)
            else:
                self._box, self._build = self._build(), None
        return self._box

    @property
    def field(self) -> ScalarField:
        """The field, built from its support on its first read if the
        planes were made without it: a box is embedded in zeros."""
        if self._field is None:
            frame = self.frame
            rows, cols, samples = self._support()
            if samples.shape != (frame.ny, frame.nx):
                samples, box = np.zeros((frame.ny, frame.nx), dtype=np.complex128), samples
                samples[rows, cols] = box
            self._field = frame._with_samples(samples)
        return self._field

    def moments(self):
        """The cheap pass's per-axis (label, centroid, mean sin(theta),
        variance, variance of sin(theta), samples), computed once."""
        if self._axes is None:
            frame = self.frame
            stats = self._stats or _intensity_stats(self.field.samples, frame.x, frame.y)
            self._total, cx, cy, vx, vy, *spectral = stats
            if not spectral:
                # angular moments of the whole spectrum, evanescent part too
                spectral = _intensity_stats(self.spectrum, *_sines(frame))[1:]
            mean_sx, mean_sy, var_sx, var_sy = spectral
            self._axes = (
                ("x", cx, mean_sx, vx, var_sx, frame.nx),
                ("y", cy, mean_sy, vy, var_sy, frame.ny),
            )
        return self._axes

    def guard(self, *distances: float):
        """Raise PropagationWindowError if the beam would leave the safe
        window at any of `distances` (InvalidInputError if one is not
        finite). A zero distance is the identity and passes."""
        for d in distances:
            check_real("propagation distance", d)
            if d == 0.0:
                continue
            axes = self.moments()
            limits = [math.copysign(math.sqrt(v) * math.sqrt(v_s), d)
                      for *_, v, v_s, _ in axes]
            extents = _extents(self.frame, axes, limits, d)
            if all(extent * (1.0 + _BOUND_MARGIN) <= half for _, extent, half in extents):
                continue
            if self._covs is None:
                self._covs = _window_covariance(self.frame, self.spectrum, axes, self._total,
                                                self._support())
            _check_window(self.frame, axes, self._covs, d)

    def plane(self, distance: float) -> ScalarField:
        """The guarded field `distance` downstream."""
        self.guard(distance)
        samples = self.field.samples.copy() if distance == 0.0 else _fft2(
            _transfer(self.frame, distance, self.spectrum), True, _band(self.frame, 1)
        )
        return self.frame._with_samples(samples)

    def x_variance(self, distance: float) -> float:
        """The x variance of |E|^2 of the guarded field `distance`
        downstream; equal to that of plane(distance) to rounding. Its x
        marginal comes from the band rows alone (_x_marginal), up to the
        factor ny the variance drops."""
        self.guard(distance)
        if distance == 0.0:
            return self.moments()[0][3]
        ix = _x_marginal(_transfer(self.frame, distance, self.spectrum, band_rows=True))
        total = _check_power(float(ix.sum()), "field has no power in the propagating band")
        return _centroid_variance(ix, self.frame.x, total)[1]

    def axis_rows(self, *distances: float) -> list:
        """The row y = 0 (index ny/2) of plane(d) at each of `distances`,
        all guarded first; equal to those rows of plane(d) to rounding.

        Row ny/2 of a 2-d inverse DFT is the 1-d inverse along x of
        sum_m (-1)^m P[m, :] / ny, where P is the transfer product, zero
        outside the band's blocks. The signs and 1/ny fold into the
        spectrum's band blocks once for every distance. Each distance then
        takes one exp per distinct kz and one gather (_band_phases), one
        signed column sum per block (einsum: one thread, no BLAS) and one
        1-d inverse of a one-row grid (_fft2): no transfer product and no
        2-d pass."""
        self.guard(*distances)
        frame = self.frame
        quadrant_shape = _kz_quadrant(frame.nx, frame.ny, frame.pitch, frame.wavenumber)[1].shape
        blocks = []
        for (r, qr), (c, qc) in itertools.product(
            _band_blocks(frame.ny, quadrant_shape[0]), _band_blocks(frame.nx, quadrant_shape[1])
        ):
            signs = np.where(np.arange(frame.ny)[r] % 2, -1.0, 1.0) / frame.ny
            blocks.append((qr, c, qc, signs[:, None] * self.spectrum[r, c]))
        rows = []
        for d in distances:
            if d == 0.0:
                rows.append(self.field.samples[frame.ny // 2].copy())
                continue
            quadrant = _band_phases(frame, d)
            row = np.zeros((1, frame.nx), dtype=np.complex128)
            for qr, c, qc, block in blocks:
                row[0, c] += np.einsum("ij,ij->j", quadrant[qr, qc], block)
            rows.append(_fft2(row, True, ())[0])
        return rows

    def _wedge(self, distance: float, wedge: WedgePhase) -> "FreeSpacePlanes":
        """The planes just past `wedge`, `distance` downstream.

        Free space is diagonal in (ky, kx) and the wedge in (y, kx): the
        transfer product's axis-0 inverse pass on the band's column blocks
        takes it to (y, kx), the ramp multiplies those blocks, and the
        axis-0 forward pass brings them back, with no axis-1 pass. The
        moments' real-space half comes by Parseval, which the ramp leaves
        alone: the y marginal from the row sums of the (y, kx) array, the
        x marginal from the product's band rows (_x_marginal), as
        x_variance takes it. A ramp the pitch aliases raises
        SamplingError after the guard and before any pass."""
        frame = self.frame
        self.guard(distance)
        _check_tilt(wedge.tilt_y, frame.wavelength, frame.pitch)
        samples = _transfer(frame, distance, self.spectrum)
        ix = _x_marginal(np.concatenate([samples[r] for r in _band(frame, 0)]))
        columns = _band(frame, 1)
        _fft2(samples, True, columns, ())
        iy = _row_sums(samples)
        # by Parseval along x, sum_x |E|^2 = sum_kx |M|^2 / nx on every row
        total = _check_power(float(iy.sum()) / frame.nx,
                             "field has no power in the propagating band")
        ramp = _wedge_ramp(frame, wedge)
        for c in columns:
            np.multiply(samples[:, c], ramp, out=samples[:, c])
        _fft2(samples, False, columns, ())
        return FreeSpacePlanes(
            None, samples, frame, (total, *_marginal_stats(ix, iy, frame.x, frame.y)),
            lambda: (slice(None), slice(None), _fft2(samples.copy(), True, columns)),
        )

    def _aperture(self, distance: float, aperture: CircAperture):
        """(field just past `aperture`, `distance` downstream; the
        opening's (rows, columns)). The plane's axis-1 inverse pass runs on
        the opening's rows only, which are bit-identical to those of
        plane(distance); the power before clipping comes by Parseval from
        the transfer product. The field's grid is new, zero outside the
        box, and the stack loop that asked for it owns it."""
        frame = self.frame
        self.guard(distance)
        opening = _opening(frame, aperture)
        samples = _transfer(frame, distance, self.spectrum)
        before = _power_sum(samples) / (frame.nx * frame.ny)
        _fft2(samples, True, _band(frame, 1), opening[:1])
        return _clip(frame, samples, opening, before), opening[:2]


def _window_guard(field: ScalarField, spectrum: np.ndarray, *distances: float):
    """Raise PropagationWindowError if the beam would leave the safe window
    at any of `distances`. A zero distance is the identity and passes."""
    FreeSpacePlanes(field, spectrum).guard(*distances)


def gaussian_planes(
    beam: AstigmaticGaussian,
    tilt: tuple[float, float],
    grid: tuple[int, int, float],
    center: tuple[float, float] = (0.0, 0.0),
) -> FreeSpacePlanes:
    """The FreeSpacePlanes of make_gaussian_field(beam, tilt, grid, center),
    with its checks and messages, without building the field.

    The field is the outer product of an x and a y profile, so its 2-d DFT
    is the outer product of theirs: one axis-1 pass of the x profile as a
    row and one axis-0 pass of the y profile as a column (_fft2). The
    real-space moments come from the profiles, and the spectral ones from
    the two 1-d spectra: each marginal of |spectrum|^2 is one 1-d |.|^2
    times the other's sum, a scale the moments drop. The field is built
    only if it is read, such as for the covariance of a step the
    Cauchy-Schwarz limit cannot clear. Both agree with the field's
    FreeSpacePlanes to rounding.
    """
    profile_x, profile_y = _gaussian_profiles(beam, tilt, grid, center)
    frame = _Frame(grid[0], grid[1], grid[2], beam.wavelength)
    spectrum_y = _fft2(profile_y[:, None].copy(), False, [slice(None)], ())
    spectrum_x = _fft2(profile_x[None, :].copy(), False, ())
    ix, iy = _abs2(profile_x), _abs2(profile_y)
    stats = (
        float(ix.sum()) * float(iy.sum()), *_marginal_stats(ix, iy, frame.x, frame.y),
        *_marginal_stats(_abs2(spectrum_x[0]), _abs2(spectrum_y[:, 0]), *_sines(frame)),
    )
    return FreeSpacePlanes(
        None, spectrum_y * spectrum_x, frame, stats,
        lambda: (slice(None), slice(None), np.multiply.outer(profile_y, profile_x)),
    )


def angular_spectrum_propagate(field: ScalarField, distance: float) -> ScalarField:
    """Propagate by `distance` (may be negative). Zero distance is the identity."""
    if distance == 0.0:
        return replace(field, samples=field.samples.copy())
    return FreeSpacePlanes(field).plane(distance)


def _check_positions(elements: Sequence) -> float:
    """The last z of (z, element) pairs (0.0 for none), which must be
    non-decreasing and >= 0; an entry that is not a pair with a real z, or
    whose element is not a PhaseElement, raises InvalidInputError naming it."""
    zs = [0.0]
    for entry in elements:
        try:
            z, element = entry
        except (TypeError, ValueError):
            z = element = None
        if isinstance(z, bool) or not isinstance(z, numbers.Real):
            raise InvalidInputError(
                f"elements must be (z, element) pairs with a real z, got {entry!r}"
            )
        if not isinstance(element, PhaseElement):
            raise InvalidInputError(f"unknown element type {type(element).__name__}")
        zs.append(z)
    if not all(a <= b for a, b in zip(zs, zs[1:])):
        raise InvalidInputError("element positions must be non-decreasing and >= 0")
    return zs[-1]


def propagate_elements(
    source: Union[ScalarField, FreeSpacePlanes], elements: Sequence
) -> ScalarField:
    """Carry a source at z = 0, a field or its FreeSpacePlanes, through
    (z, element) pairs with non-decreasing z >= 0 of PhaseElements (else
    InvalidInputError, before any transform, as for a source of another
    type) and return the field just past the last element.

    One loop (_stack) takes the elements in turn, and every step starts
    from planes: a caller's field is wrapped in its FreeSpacePlanes, which
    copies it. A step that ends at a wedge stays in the spectrum
    (FreeSpacePlanes._wedge), one that ends at an aperture builds only the
    opening's rows (FreeSpacePlanes._aperture), and one that ends at a
    lens builds its plane (plane(), which angular_spectrum_propagate runs
    too). The loop owns the grid an aperture returns: a lens at the
    aperture's z multiplies the opening's box of it in place, and the next
    step's planes take it as their spectrum (_box_planes). Zero-length
    steps, such as between an aperture and the lens at its z, are skipped;
    an element at the z of planes builds their field first."""
    # the loop holds the source's only reference and frees it at its first step
    sources = [source]
    del source
    state, _ = _stack(sources, elements)
    return state.field if isinstance(state, FreeSpacePlanes) else state


def _stack(sources: list, elements: Sequence):
    """(state, box) just past the last of `elements` for the one source
    popped from `sources`: state is planes or a field, and box the
    opening's (rows, cols) outside which the field, a grid the loop
    created, is zero (None if no aperture at the last z bounds it)."""
    state, box, z_now = sources.pop(), None, 0.0
    if not isinstance(state, (ScalarField, FreeSpacePlanes)):
        raise InvalidInputError(
            f"source must be a ScalarField or FreeSpacePlanes, got {type(state).__name__}"
        )
    _check_positions(elements)
    for z_el, el in elements:
        distance, z_now = z_el - z_now, z_el
        if distance != 0.0:
            state = _planes(state, box)
            if isinstance(el, WedgePhase):
                state, box = state._wedge(distance, el), None
                continue
            if isinstance(el, CircAperture):
                state, box = state._aperture(distance, el)
                continue
            state, box = state.plane(distance), None
        elif isinstance(state, FreeSpacePlanes):
            state = state.field
        if box is not None and isinstance(el, ThinLensPhase):
            state = _lens(state, el, *box, state.samples)
        else:
            state, box = apply_element(state, el), None
    return state, box


def _planes(state: Union[ScalarField, FreeSpacePlanes], box) -> FreeSpacePlanes:
    """The planes of a _stack state: the planes themselves, those of the
    grid the loop owns with its box (_box_planes), or FreeSpacePlanes of a
    field, which copies it."""
    if isinstance(state, FreeSpacePlanes):
        return state
    return FreeSpacePlanes(state) if box is None else _box_planes(state, *box)


def _box_planes(field: ScalarField, rows: slice, cols: slice) -> FreeSpacePlanes:
    """The FreeSpacePlanes of `field`, zero outside the box (rows, cols),
    whose samples the stack loop created and now hands over: they become
    the spectrum, in a forward transform in place on the box's columns
    (_fft2), with no copy of the grid and no scan for its nonzero
    columns. The moments come first, from the box's rows alone
    (_intensity_stats), bit for bit those of the whole grid; the planes
    keep a copy of the box alone as their support."""
    frame = _Frame(field.nx, field.ny, field.pitch, field.wavelength, field.clipped_fraction)
    samples = field.samples
    stats = _intensity_stats(samples, frame.x, frame.y, rows)
    box = samples[rows, cols].copy()
    return FreeSpacePlanes(None, _fft2(samples, False, [cols]), frame, stats,
                           lambda: (rows, cols, box))


def _mirror_x(samples: np.ndarray) -> None:
    """Mirror a grid in x in place on its periodic index map
    ix -> (nx - ix) % nx. That takes x to -x exactly for ix >= 1 and keeps
    column 0 (x = -nx/2 pitch, its own image under the window's
    periodicity). The columns are reversed a block of rows at a time, so no
    second grid is live; a second call undoes the first."""
    for r in range(0, samples.shape[0], _MIRROR_ROWS):
        block = samples[r : r + _MIRROR_ROWS, 1:]
        block[...] = block[:, ::-1]


def _nonzero_columns(samples: np.ndarray) -> slice:
    """The slice from the first to the last column that holds a nonzero sample."""
    return _span(np.any(samples, axis=0))


def _wedge_ramp(frame: _Grid, wedge: WedgePhase) -> np.ndarray:
    """The wedge's phase column exp(i k sin(tilt_y) y), shape (ny, 1)."""
    return np.exp(1j * frame.wavenumber * (math.sin(wedge.tilt_y) * frame.y))[:, None]


def _lens(field: ScalarField, lens: ThinLensPhase, rows: slice, cols: slice,
          samples: np.ndarray) -> ScalarField:
    """`field` through `lens`, whose phase is taken only on the box
    (rows, cols) of the field: every sample outside it must be zero. The
    result is written to the box of `samples`, which is zero outside it:
    a new grid (apply_element), whose box first holds the phase, or the
    field's own samples, a grid the stack loop created, multiplied in
    place (propagate_elements). Either way the samples multiply the
    phase, samples first, so both give the same values."""
    xb, yb = field.x[cols], field.y[rows]
    ik_2f = -1j * field.wavenumber / (2.0 * lens.focal_length)
    out = samples[rows, cols]
    phase = np.empty_like(out) if samples is field.samples else out
    np.multiply(np.exp(ik_2f * (yb * yb))[:, None], np.exp(ik_2f * (xb * xb))[None, :],
                out=phase)
    np.multiply(field.samples[rows, cols], phase, out=out)
    return replace(field, samples=samples)


def _opening(frame: _Grid, aperture: CircAperture):
    """(rows, cols, inside) of the aperture's opening on the grid: the
    bounding box of its samples and their mask on it. InvalidGeometryError
    if it holds no sample."""
    x, y = frame.x, frame.y
    r_sq = aperture.radius**2
    # x^2 + y^2 <= r^2 implies x^2 <= r^2 also in floating point, so
    # the box holds every sample of the opening
    rows, cols = _span(y * y <= r_sq), _span(x * x <= r_sq)
    xg, yg = x[None, cols], y[rows, None]
    inside = xg * xg + yg * yg <= r_sq
    if not inside.any():
        raise InvalidGeometryError("aperture lies entirely outside the grid")
    return rows, cols, inside


def _clip(frame: _Grid, samples: np.ndarray, opening, before: float) -> ScalarField:
    """The field on `frame` that keeps `samples` inside the `opening`
    (_opening) and is zero elsewhere, made in place: only the opening's
    box of `samples` is read. The power removed from `before`, the sum of
    |E|^2 of the unclipped plane, folds into the frame's cumulative
    clipped_fraction."""
    rows, cols, inside = opening
    box = samples[rows, cols]
    box[~inside] = 0.0
    samples[: rows.start] = samples[rows.stop :] = 0.0
    samples[rows, : cols.start] = samples[rows, cols.stop :] = 0.0
    step = 0.0 if before <= 0 else max(0.0, 1.0 - _power_sum(box) / before)
    cumulative = frame.clipped_fraction + (1.0 - frame.clipped_fraction) * step
    return frame._with_samples(samples, cumulative)


def apply_element(field: ScalarField, element: PhaseElement) -> ScalarField:
    """Apply a thin element in place at the field's plane.

    Apertures zero the field outside their opening and fold the removed
    power into the returned field's cumulative clipped_fraction. The
    opening's mask is built only on its bounding box.

    A lens takes its phase only on the field's nonzero column span, such
    as the opening of the aperture before it, over every row: the columns
    a forward transform names (_fft2). Outside the span the product is
    zero anyway, so the result differs from the full-grid product at most
    in the sign of zeros. The lens phase is the outer product of one exp
    per axis, which equals the 2-d exp of -i k (x^2 + y^2) / (2 f) to
    rounding. A wedge multiplies by one phase column, since its ramp
    varies in y only (a ramp the pitch aliases raises SamplingError, as
    for a source).
    """
    if isinstance(element, ThinLensPhase):
        return _lens(field, element, slice(None), _nonzero_columns(field.samples),
                     np.zeros_like(field.samples))
    if isinstance(element, WedgePhase):
        _check_tilt(element.tilt_y, field.wavelength, field.pitch)
        return replace(field, samples=field.samples * _wedge_ramp(field, element))
    if isinstance(element, CircAperture):
        return _clip(field, field.samples.copy(), _opening(field, element),
                     _power_sum(field.samples))
    raise InvalidInputError(f"unknown element type {type(element).__name__}")


@dataclass(frozen=True)
class SpotMetrics:
    centroid: tuple[float, float]
    mfd_moment: tuple[float, float]
    mfd_fit: tuple[float, float]
    clipped_fraction: float
    fit_failed: bool


def _fit_profile(coords: np.ndarray, profile: np.ndarray, c0: float, w0: float):
    """The 1/e^2 radius w of the Gaussian A exp(-2 ((x - c) / w)^2) that
    fits `profile` at `coords` in least squares over every sample.

    The solver is Levenberg-Marquardt (Moré 1978) from (peak, c0, w0) with
    the analytic Jacobian, in units of (peak, w0, w0), that is in
    (a, s, v) = (A / peak, c / w0, w / w0): each step solves
    (J^T J + lam diag(J^T J)) step = -J^T r. A trial point whose sum of
    squares is no larger than the current one's, up to that sum's rounding
    bound n eps, is taken and lam shrinks tenfold; otherwise lam grows
    tenfold. The fit stops at the first step that moves no parameter by
    more than _FIT_STEP_TOL in those units and returns w after that step.
    None for peak <= 0 or w0 <= 0, a singular normal matrix, no stop within
    _FIT_MAX_EVALS trial points, or a radius that is not finite and positive.
    """
    peak = float(profile.max())
    if peak <= 0 or not w0 > 0:
        return None
    t, y = coords / w0, profile / peak
    rows = np.empty((4, len(t)))  # the model's derivatives in (a, s, v), then the residual
    slack = 1.0 + len(t) * np.finfo(float).eps

    def gram(q):
        """rows @ rows.T at q = (a, s, v): J^T J, J^T r and r^T r in one product."""
        a, s, v = q
        e, ds, dv, r = rows
        u = t - s
        u /= v
        np.multiply(u, u, out=e)
        e *= -2.0
        np.exp(e, out=e)
        np.multiply(e, 4.0 * a / v, out=ds)
        ds *= u
        np.multiply(ds, u, out=dv)
        np.multiply(e, a, out=r)
        r -= y
        return rows @ rows.T

    q, lam = np.array([1.0, c0 / w0, 1.0]), 1e-3
    # a wild trial point may overflow u*u or give inf * 0; its NaN or inf sum of
    # squares fails the test below, so the warnings say nothing
    with np.errstate(all="ignore"):
        now = gram(q)
        for _ in range(_FIT_MAX_EVALS):
            normal = now[:3, :3].copy()
            normal.flat[::4] *= 1.0 + lam
            try:
                step = np.linalg.solve(normal, -now[:3, 3])
            except np.linalg.LinAlgError:
                return None
            if np.abs(step).max() <= _FIT_STEP_TOL:
                w = float(q[2] + step[2]) * w0
                return w if math.isfinite(w) and w > 0 else None
            trial = q + step
            after = gram(trial)
            if after[3, 3] <= now[3, 3] * slack:
                q, now, lam = trial, after, 0.1 * lam
            else:
                lam *= 10.0
    return None


def interp_row(samples: np.ndarray, coords: np.ndarray, value: float, axis: int):
    """Linear interpolation of |samples|^2 through `value` along `axis`
    (0: a row, 1: a column), from |E|^2 on the two lines it reads."""
    idx = float(np.interp(value, coords, np.arange(len(coords))))
    lo = int(np.clip(math.floor(idx), 0, len(coords) - 2))
    frac = idx - lo
    lines = samples[lo : lo + 2] if axis == 0 else samples[:, lo : lo + 2].T
    below, above = lines.real**2 + lines.imag**2
    return (1.0 - frac) * below + frac * above


def spot_metrics(field: ScalarField) -> SpotMetrics:
    """Centroid, second-moment and fitted mode-field diameters of |E|^2.

    mfd_moment is four times the intensity standard deviation per axis
    (equal to the 1/e^2 diameter for a Gaussian). mfd_fit is twice the
    radius of a least-squares Gaussian fit to |E|^2 on the row and the
    column through the centroid (_fit_profile: Levenberg-Marquardt with the
    analytic Jacobian, started at the moment values, stopped at a step
    below _FIT_STEP_TOL in units of (peak, moment radius, moment radius)).
    Where a fit fails (no power on the line, a zero moment width, a
    singular normal matrix, no stop within _FIT_MAX_EVALS trial points, or
    a radius that is not finite and positive) that axis reports the moment
    value and fit_failed is set.
    """
    _, cx, cy, vx, vy = _intensity_stats(field.samples, field.x, field.y)
    mfd_mx = 4.0 * math.sqrt(max(vx, 0.0))
    mfd_my = 4.0 * math.sqrt(max(vy, 0.0))

    profile_x = interp_row(field.samples, field.y, cy, axis=0)
    profile_y = interp_row(field.samples, field.x, cx, axis=1)
    wx = _fit_profile(field.x, profile_x, cx, mfd_mx / 2.0)
    wy = _fit_profile(field.y, profile_y, cy, mfd_my / 2.0)
    failed = wx is None or wy is None

    return SpotMetrics(
        centroid=(cx, cy),
        mfd_moment=(mfd_mx, mfd_my),
        mfd_fit=(2.0 * wx if wx else mfd_mx, 2.0 * wy if wy else mfd_my),
        clipped_fraction=field.clipped_fraction,
        fit_failed=failed,
    )


@dataclass(frozen=True)
class FocusResult:
    """beam_slope is dy/dz of the intensity centroid from the exit field
    (planes.field, at the last element's z) to the focus plane;
    fit_residual is the largest deviation of the sampled x variances and
    the focus plane's from the final parabola, over the smallest of them.
    planes is the exit field's FreeSpacePlanes: its spectrum and its
    guard, whose moments and covariance are each taken at most once, so
    any later plane costs one transfer build and one inverse FFT. Past an
    aperture they keep only the opening's box of the exit field, and
    planes.field embeds it in zeros when read."""

    z_focus: float
    metrics: SpotMetrics
    field_at_focus: ScalarField
    planes: FreeSpacePlanes
    beam_slope: float
    fit_residual: float


def find_focus(
    source: Union[ScalarField, FreeSpacePlanes],
    elements: Sequence[tuple[float, PhaseElement]],
    z_search: tuple[float, float, int],
    centre: Optional[float] = None,
) -> FocusResult:
    """Propagate through positioned elements and locate the x-width minimum.

    `elements` is a list of (z, element) with non-decreasing z >= 0
    (checked before any transform); the source, a field or its
    FreeSpacePlanes, sits at z = 0 and crosses them on planes
    (propagate_elements), and the window (z_min, z_max, steps) must
    start past the last element. Past it the x variance of the intensity is quadratic in z
    (free space), so a parabola through three planes finds its minimum.
    The first triple is centre +- h, with the refining step
    h = 2 (z_max - z_min) / (steps - 1) and `centre` (absolute; None: the
    window middle) clamped into [z_min + h, z_max - h]. Its vertex is the
    focus if it lies within 2 h of the centre; otherwise one more triple,
    centred on that vertex the same way, gives the focus.
    FocusNotBracketedError is raised unless every triple's parabola opens
    upward with its vertex inside the window.

    Every plane past the stack comes from the exit field's one
    FreeSpacePlanes, whose guard, with its moments and covariance each
    taken at most once, checks both window ends and every plane read.
    Past an aperture they are the stack's own box planes (_box_planes),
    with no copy of the exit field. A source that is neither a field nor
    planes raises InvalidInputError before any transform. The
    triples read x variances only (FreeSpacePlanes.x_variance); the focus
    plane is read whole for the spot metrics. The result keeps the focus
    field and the exit field's planes.
    """
    z_min, z_max, steps = check_members("z_search", z_search, 3)
    check_real("z_search[0]", z_min)
    check_real("z_search[1]", z_max)
    if check_count("z_search steps", steps) < 16:
        raise InvalidInputError("z_search needs at least 16 steps")
    if not z_min < z_max:
        raise InvalidInputError("z_search window is empty")
    if centre is not None:
        check_real("focus search centre", centre)

    z_exit = _check_positions(elements)
    if not z_min > z_exit:
        raise InvalidInputError("z_search must start past the last element")
    # the refining step h: over 2 ulp of z_max, centre +- h differs from
    # centre anywhere in the window, so a triple never collapses
    h = 2.0 * (z_max - z_min) / (int(steps) - 1)
    if not h > 2.0 * math.ulp(z_max):
        raise InvalidInputError(
            f"z_search steps {steps} give a refining step of {h:.3e} m, too fine "
            f"to move z near {z_max:.3e} m"
        )

    # the stack loop holds the source's only reference and frees it early
    sources = [source]
    del source
    # one spectrum and at most one pass of guard moments serve every plane;
    # guarding both window ends first fails a window the beam leaves before
    # any inverse FFT, and every read guards its plane on the cached moments
    planes = _planes(*_stack(sources, elements))
    planes.guard(z_min - z_exit, z_max - z_exit)

    sampled = []  # (z, x variance) of every plane read

    def variance_parabola(around):
        middle = min(max(around, z_min + h), z_max - h)
        zs = [middle - h, middle, middle + h]
        variances = [planes.x_variance(z - z_exit) for z in zs]
        sampled.extend(zip(zs, variances))
        parabola = Polynomial.fit(zs, variances, 2)
        opens_up = parabola.deriv(2)(0.0) > 0
        vertex = float(parabola.deriv().roots()[0]) if opens_up else math.nan
        if not z_min <= vertex <= z_max:
            raise FocusNotBracketedError(
                "the x variance has no minimum inside the search window "
                f"[{z_min:.3e}, {z_max:.3e}] m"
            )
        return middle, parabola, vertex

    middle, parabola, z_focus = variance_parabola(
        0.5 * (z_min + z_max) if centre is None else centre
    )
    if abs(z_focus - middle) > 2.0 * h:
        _, parabola, z_focus = variance_parabola(z_focus)

    focus_field = planes.plane(z_focus - z_exit)
    metrics = spot_metrics(focus_field)
    # mfd_moment is four standard deviations of the intensity
    sampled.append((z_focus, (0.25 * metrics.mfd_moment[0]) ** 2))
    z, variance = np.array(sampled).T
    fit_residual = float(np.max(np.abs(variance - parabola(z))) / np.min(variance))

    exit_cy = planes.moments()[1][1]
    return FocusResult(
        z_focus=z_focus,
        metrics=metrics,
        field_at_focus=focus_field,
        planes=planes,
        beam_slope=(metrics.centroid[1] - exit_cy) / (z_focus - z_exit),
        fit_residual=fit_residual,
    )


def write_field_sfld(field: ScalarField, path) -> None:
    """Binary dump: 64-byte header then float32 little-endian re/im pairs,
    row-major over [ny, nx]."""
    header = _SFLD_HEADER.pack(
        SFLD_MAGIC,
        1,
        field.nx,
        field.ny,
        field.clipped_fraction,
        field.pitch,
        field.wavelength,
        *_SFLD_FRAME,
    )
    header = header.ljust(SFLD_HEADER_SIZE, b"\0")
    data = np.empty((field.ny, field.nx, 2), dtype="<f4")
    data[..., 0] = field.samples.real
    data[..., 1] = field.samples.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def read_field_sfld(path) -> ScalarField:
    with open(path, "rb") as fh:
        raw = fh.read(SFLD_HEADER_SIZE)
        if len(raw) < SFLD_HEADER_SIZE:
            raise InvalidInputError("truncated field file")
        magic, version, nx, ny, clipped, pitch, wavelength, *frame = (
            _SFLD_HEADER.unpack(raw[: _SFLD_HEADER.size])
        )
        if magic != SFLD_MAGIC:
            raise InvalidInputError("not a field dump (bad magic)")
        if version != 1:
            raise InvalidInputError(f"unsupported field dump version {version}")
        if tuple(frame) != _SFLD_FRAME:
            raise InvalidInputError(
                f"field dump index and origin {tuple(frame)} are not {_SFLD_FRAME}"
            )
        _check_grid(nx, ny, pitch)  # before the payload is read into memory
        size = nx * ny * 8
        payload = fh.read(size + 1)  # one byte past the grid tells a longer payload
    if len(payload) != size:
        held = f"more than {size}" if len(payload) > size else len(payload)
        raise InvalidInputError(f"field payload holds {held} bytes, not {nx}*{ny}*8")
    data = np.frombuffer(payload, dtype="<f4").reshape(ny, nx, 2)
    if not np.isfinite(data).all():
        raise InvalidInputError("field payload holds non-finite samples")
    samples = data[..., 0].astype(np.float64) + 1j * data[..., 1].astype(np.float64)
    return ScalarField(samples, pitch, wavelength, clipped_fraction=float(clipped))


def write_field_csv(field: ScalarField, path) -> None:
    """CSV dump with columns x, y, re, im, intensity (one row per sample,
    y outer, each value "%.9e"), streamed one grid row at a time."""
    xs = [f"{x:.9e}" for x in field.x.tolist()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x_m,y_m,re,im,intensity\n")
        for y, row in zip(field.y.tolist(), field.samples):
            ys = f"{y:.9e}"
            values = zip(xs, row.real.tolist(), row.imag.tolist(),
                         (np.abs(row) ** 2).tolist())
            fh.writelines(f"{x},{ys},{re:.9e},{im:.9e},{i:.9e}\n" for x, re, im, i in values)
