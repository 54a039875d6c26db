"""End-to-end design of a multi-channel ion-addressing optic.

The pipeline: plan waveguide positions from the ion crystal and the
imaging magnification, synthesize a printed lens stack (tilt-correcting
wedge plus two ideal thin lenses) that realizes the requested
magnification and image distance, then verify the design with scalar
wave propagation: per-channel focus metrics, a full channel-to-ion
crosstalk matrix combining optical spillover with waveguide-leakage
background, and tolerance sweeps over assembly errors.

Conventions. The chip surface is z = 0 and the optical axis is +z.
Waveguide channels are offset along x; the out-coupled beams tilt in
the y-z plane, and the wedge (first stack element) removes that tilt.
Channel i of the physical array images onto ion N-1-i because a
two-lens relay inverts. Lengths are metres and angles degrees at this
module's boundary, but for sweep rows, which are in their parameter's
unit; wave-optics element tilts are radians internally.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .constants import MAX_ARRAY_BYTES, UM
from .crystal import IonCrystal
from .errors import (
    ConvergenceError,
    InfeasibleDesignError,
    InvalidInputError,
    IonOpticsError,
    check_real,
    is_finite_real,
)
from .gaussbeam import (
    AstigmaticGaussian,
    BeamAxis,
    FreeSpace,
    ThinLens,
    beam_from_mfd,
    chain_matrix,
    propagate_abcd,
    width_at,
)
from .picmodel import (
    TirMirrorSpec,
    WaveguideArraySpec,
    leakage_crosstalk,
    outcoupling_angle,
)
from .wavefield import (
    CircAperture,
    FreeSpacePlanes,
    ScalarField,
    SpotMetrics,
    ThinLensPhase,
    WedgePhase,
    _centroid_variance,
    _check_grid_tuple,
    _check_positions,
    _check_power,
    _fit_profile,
    _intensity_stats,
    _mirror_x,
    angular_spectrum_propagate,
    apply_element,
    find_focus,
    gaussian_planes,
    interp_row,
    make_gaussian_field,
    spot_metrics,
)

# Stack geometry bounds (metres). The wedge prints directly on the chip;
# the first lens needs clearance above it, and surfaces below ~25 um
# focal length are not printable with useful sag.
WEDGE_Z = 2.0e-6
MIN_WORKING_DISTANCE = 40.0e-6
MIN_LENS_SPACING = 20.0e-6
MIN_FOCAL_LENGTH = 25.0e-6

# Coarse search grid for the (f2, lens gap) plane.
GRID_STEP = 2.5e-6
F2_RANGE = (30.0e-6, 400.0e-6)
GAP_RANGE = (20.0e-6, 360.0e-6)

# Keep the stack telecentric: the chief ray of an off-axis channel may
# walk off the second lens centre by at most this fraction of the array
# half-span, which keeps per-channel aberrations channel-independent.
TELECENTRIC_TOL = 0.0185
MAX_CHIEF_SLOPE = 0.50

# Aperture sizing: 1.8 beam radii plus the chief-ray reach plus margin,
# clamped to half the aperture budget.
APERTURE_ENVELOPE = 1.8
APERTURE_MARGIN = 5.0e-6

MAGNIFICATION_TOL = 0.01
IMAGE_DISTANCE_TOL = 0.02
NA_TOL = 0.05
WAVE_VERIFY_TOL = 0.03

CROSSTALK_FLOOR_DB = -200.0
OFF_NORMAL_SLOPE = 0.02
# Offsets |x| within this fraction of the grid pitch tie, and a tie goes to
# the lower index: that picks the centre channel (nearest the axis) and the
# sweep channel (farthest out). crosstalk_matrix mirrors channels when every
# waveguide pair (i, n-1-i) mirrors within the same tolerance: every stack
# element type acts evenly in x (a wedge deflects in y only), and every
# source tilts in y only.
MIRROR_POSITION_TOL = 1e-9


class SweepParameter(NamedTuple):
    """An assembly error a tolerance sweep can vary. unit ("deg" or "um")
    is that of lo, hi and value in every sweep row and point. perturb(
    elements, centre, exit_deg, value) returns the perturbed element list,
    source centre (m), source tilt (deg) and the tilt the wedge leaves
    uncorrected (deg); here value and lengths are SI (_sweep_systems)."""

    unit: str
    perturb: Callable


def _rebuild_wedge(elements, centre, exit_deg, value):
    # the corrective wedge was built for an exit angle of `value` degrees
    kept = [(z, el) for z, el in elements if not isinstance(el, WedgePhase)]
    wedge = (WEDGE_Z, WedgePhase(-math.radians(value)))
    return [wedge] + kept, centre, exit_deg, exit_deg - value


def _shift_stack(elements, centre, exit_deg, value):
    shifted = [(z + value, el) for z, el in elements]
    if shifted and shifted[0][0] <= 0:
        raise InvalidInputError(
            f"z_offset {value:.3e} m pushes the stack below the chip plane"
        )
    return shifted, centre, exit_deg, 0.0


def _tilt_chip(elements, centre, exit_deg, value):
    # an unintended wedge of `value` degrees between the chip and the stack
    wedge = (WEDGE_Z / 2.0, WedgePhase(math.radians(value)))
    return [wedge] + elements, centre, exit_deg, 0.0


SWEEP_PARAMETERS = {
    "prism_design_angle": SweepParameter("deg", _rebuild_wedge),
    "source_tilt": SweepParameter("deg", lambda elements, centre, exit_deg, value: (
        elements, centre, exit_deg + value, value)),
    "lateral_offset": SweepParameter("um", lambda elements, centre, exit_deg, value: (
        elements, centre + value, exit_deg, 0.0)),
    "z_offset": SweepParameter("um", _shift_stack),
    "chip_wedge": SweepParameter("deg", _tilt_chip),
}

_SWEEP_KEYS = ("parameter", "lo", "hi", "steps")
# the most values one sweep row may take: its float64 values fill MAX_ARRAY_BYTES
MAX_SWEEP_STEPS = MAX_ARRAY_BYTES // 8

# The shipped failure-analysis preset: the wedge was designed for a 7
# degree exit tilt while the mirror actually out-couples much steeper.
SWEEP_PRESETS = {
    "prism-mismatch": ({"parameter": "prism_design_angle", "lo": 7.0, "hi": 7.0, "steps": 1},),
}


def _check_row(index: int, row) -> None:
    """InvalidInputError, naming `index`, unless `row` is a {parameter, lo,
    hi, steps} mapping with a string parameter, finite real lo and hi with
    finite hi - lo and lo + hi, and an integer steps, none of them a bool."""
    where = f"sweep row {index}"
    if not isinstance(row, dict):
        raise InvalidInputError(
            f"{where} is a {type(row).__name__}, not a mapping of " + ", ".join(_SWEEP_KEYS)
        )
    missing = [key for key in _SWEEP_KEYS if key not in row]
    if missing:
        raise InvalidInputError(f"{where} lacks " + ", ".join(missing))
    if not isinstance(row["parameter"], str):
        raise InvalidInputError(f"{where} has parameter {row['parameter']!r}, not a string")
    for key in ("lo", "hi"):
        if not is_finite_real(row[key]):
            raise InvalidInputError(f"{where} has {key} {row[key]!r}, not a finite real number")
    lo, hi = float(row["lo"]), float(row["hi"])
    if not (math.isfinite(hi - lo) and math.isfinite(lo + hi)):
        raise InvalidInputError(f"{where} has lo {lo!r} and hi {hi!r}, "
                                "whose span or midpoint overflows")
    steps = row["steps"]
    integral = isinstance(steps, float) and steps.is_integer()
    if isinstance(steps, bool) or not (integral or isinstance(steps, numbers.Integral)):
        raise InvalidInputError(f"{where} has steps {steps!r}, not an integer")


def sweep_rows(rows: Sequence[dict], preset: Optional[str] = None) -> list:
    """The {parameter, lo, hi, steps} rows of one sweep, each in its
    parameter's SWEEP_PARAMETERS unit, with copies of the named preset's
    rows appended. InvalidInputError for an unknown preset, no rows, a row
    that is not a mapping, lacks a key, or has a parameter that is not a
    string, a lo or hi that is not a finite real number, a span or
    midpoint that overflows, or a steps that is not an integer, a bool
    being neither (naming the row's index), then for an unknown parameter
    or steps outside 1 to MAX_SWEEP_STEPS."""
    presets = ", ".join(sorted(SWEEP_PRESETS))
    rows = list(rows)
    if preset is not None:
        if preset not in SWEEP_PRESETS:
            raise InvalidInputError(f"unknown preset {preset!r}; available: {presets}")
        rows += [dict(row) for row in SWEEP_PRESETS[preset]]
    if not rows:
        raise InvalidInputError(f"a sweep needs rows or a preset (available presets: {presets})")
    for index, row in enumerate(rows):
        _check_row(index, row)
        if row["parameter"] not in SWEEP_PARAMETERS:
            raise InvalidInputError(
                f"unknown sweep parameter {row['parameter']!r}; expected one of "
                + ", ".join(SWEEP_PARAMETERS)
            )
        if not 1 <= row["steps"] <= MAX_SWEEP_STEPS:
            raise InvalidInputError(
                f"sweep steps must be from 1 to {MAX_SWEEP_STEPS}, got {row['steps']}"
            )
    return rows


@dataclass(frozen=True)
class DesignTargets:
    """What the addressing optic must achieve.

    magnification is the absolute waveguide-to-ion scale factor (the
    realized system inverts, so the signed value is negative).
    numerical_aperture is the Gaussian divergence NA of the source mode
    along x and must be consistent with source_mfd. image_distance runs
    from the top of the lens stack to the ion plane.
    """

    magnification: float
    numerical_aperture: float
    image_distance: float
    source_mfd: tuple[float, float]
    wavelength: float
    max_stack_height: float
    aperture_budget: float

    def __post_init__(self):
        check_real("numerical_aperture", self.numerical_aperture, 0, 1)
        for i, mfd in enumerate(self.source_mfd):
            check_real(f"source_mfd[{i}]", mfd, 0)
        for name in ("magnification", "image_distance", "wavelength",
                     "max_stack_height", "aperture_budget"):
            check_real(name, getattr(self, name), 0)


@dataclass(frozen=True)
class LensStackPrescription:
    """A printable stack: wedge plus one or two thin lenses with apertures.

    elements is the ordered (z, element) list consumed by the wave
    propagator. focal_lengths, lens_positions and aperture_radii list
    the powered surfaces bottom to top (one entry in the degenerate
    single-lens mode). predicted_* values come from the ABCD composition
    of the final geometry.
    """

    elements: tuple
    focal_lengths: tuple
    lens_positions: tuple
    aperture_radii: tuple
    stack_height: float
    source_tilt_deg: float
    predicted_magnification: tuple[float, float]
    predicted_image_distance: float
    predicted_na: float
    targets: DesignTargets

    def __post_init__(self):
        _check_positions(self.elements)


@dataclass(frozen=True)
class ChannelFocus(SpotMetrics):
    """Focus metrics of one addressing channel: its SpotMetrics at z_focus.

    z_focus is measured from the chip plane; image_distance from the
    stack top. focus_fit_residual is find_focus's fit_residual.
    """

    channel: int
    waveguide_position: float
    z_focus: float
    image_distance: float
    beam_slope: float
    off_normal: bool
    focus_fit_residual: float


@dataclass(frozen=True)
class CrosstalkReport:
    """Channel-to-ion crosstalk, indexed by addressed ion.

    matrix_db[i][j] is the relative intensity (dB) that the beam
    addressing ion i delivers at ion j's position; the diagonal is 0 by
    definition. contributions lists the optical and waveguide-leakage
    terms and their power sum for every ordered pair. mirror_of holds, per
    channel, the partner whose fields it took mirrored in x, or None for a
    propagated channel. centre_field is the centre channel's field in the
    evaluation plane; reports omit it.
    """

    matrix_db: np.ndarray
    contributions: tuple
    ion_positions: np.ndarray
    channel_focus: tuple
    evaluation_z: float
    alignment_scale: float
    alignment_residual: float
    mirror_of: tuple
    centre_field: Optional[ScalarField] = None


@dataclass(frozen=True, kw_only=True)
class SweepPoint(ChannelFocus):
    """One perturbation grid point of a tolerance sweep: the swept
    channel's focus record at that point, the parameter value in its
    SWEEP_PARAMETERS unit, and the deltas of z_focus, mfd_fit and centroid
    (metres) against the unperturbed baseline."""

    parameter: str
    value: float
    dz_focus: float
    dmfd: tuple[float, float]
    dcentroid: tuple[float, float]
    residual_tilt_deg: float


@dataclass(frozen=True)
class SweepReport:
    """Tolerance sweep of the worst-case (outermost) channel; the
    baseline is that channel's simulate_channel record."""

    baseline: ChannelFocus
    points: tuple


def pitch_plan(crystal: IonCrystal, magnification: float) -> np.ndarray:
    """Waveguide positions that image onto the crystal's ion positions.

    position_i = ion_position_i / magnification, so the plan scales
    inversely with magnification and returns ion gaps / magnification.
    """
    check_real("magnification", magnification, 0)
    return np.asarray(crystal.positions_m, dtype=float) / magnification


def _widths_at_lenses(beam: AstigmaticGaussian, f_list, z_list) -> list:
    """Larger of the x and y 1/e^2 radii of `beam` (waist at z = 0) at each
    thin lens f_list[i] placed at z_list[i], taken just before the lens."""
    widths, z_prev = [], 0.0
    for f, z in zip(f_list, z_list):
        widths.append(max(width_at(beam, "x", z - z_prev), width_at(beam, "y", z - z_prev)))
        beam = propagate_abcd(beam, [FreeSpace(z - z_prev), ThinLens(f)])
        z_prev = z
    return widths


def _achieved_imaging(f_list, z_list):
    """(image distance past the stack top, signed magnification) via ABCD."""
    chain = []
    z_prev = 0.0
    for f, z in zip(f_list, z_list):
        chain.append(FreeSpace(z - z_prev))
        chain.append(ThinLens(f))
        z_prev = z
    mat = chain_matrix(chain)
    if abs(mat[1, 1]) < 1e-300:
        raise InfeasibleDesignError("image plane at infinity: S11 = 0")
    v = -mat[0, 1] / mat[1, 1]
    magnification = mat[0, 0] + v * mat[1, 0]
    return float(v), float(magnification)


def _row_mfd(x: np.ndarray, row: np.ndarray) -> float:
    """The fitted 1/e^2 diameter of |row|^2 along x (_fit_profile), started
    from the row's own centroid and moment radius, or the moment diameter
    if the fit fails, as spot_metrics gives mfd_fit."""
    profile = row.real**2 + row.imag**2
    total = _check_power(float(profile.sum()), "the probe's row has no power")
    c, var = _centroid_variance(profile, x, total)
    w = _fit_profile(x, profile, c, 2.0 * math.sqrt(var))
    return 2.0 * w if w else 4.0 * math.sqrt(var)


def _wave_verify(f_list, z_list, targets: DesignTargets, v: float, magnification: float):
    """Cross-check the ABCD prescription against scalar wave propagation.

    A paraxial probe Gaussian is imaged through the powered surfaces (no
    apertures), a field step and a lens phase at a time, and the waist
    measured at the wave focus must match the ABCD magnification within
    3 percent. The focus is located by a fine fitted-width scan around
    the ABCD image plane (v past the top lens), which also tolerates the
    small non-paraxial focal shift. The probe is on axis and untilted and
    its lenses have no apertures, so its spot is centred on y = 0: every
    scan plane is read as that row alone (FreeSpacePlanes.axis_rows),
    from the spectrum of the one lens-exit field, and its x width is
    fitted there (_row_mfd).
    """
    w0p = 2.5e-6
    m_abs = abs(magnification)
    beam = AstigmaticGaussian(targets.wavelength, BeamAxis(w0p), BeamAxis(w0p))

    pitch = min(w0p, m_abs * w0p) / 4.5
    window = max(8.5 * w0p, 5.0 * max(_widths_at_lenses(beam, f_list, z_list)))
    nx = 256
    while nx * pitch < window and nx < 2048:
        nx *= 2

    field = make_gaussian_field(beam, tilt=(0.0, 0.0), grid=(nx, nx, pitch))
    for f, z, z_prev in zip(f_list, z_list, [0.0, *z_list]):
        field = apply_element(angular_spectrum_propagate(field, z - z_prev), ThinLensPhase(f))
    planes = FreeSpacePlanes(field)

    z_top = z_list[-1]
    z_planes = z_top + v + np.linspace(-0.12 * v, 0.12 * v, 13)
    widths = [_row_mfd(field.x, row) for row in planes.axis_rows(*(z_planes - z_top))]
    best = int(np.argmin(widths))
    if best in (0, len(widths) - 1):
        raise ConvergenceError(
            "wave cross-check found no waist near the predicted image plane"
        )
    ratio = widths[best] / (2.0 * w0p)
    if not math.isfinite(ratio) or abs(ratio / m_abs - 1.0) > WAVE_VERIFY_TOL:
        raise ConvergenceError(
            "wave cross-check disagrees with the ABCD prescription: "
            f"waist ratio {ratio:.4f} vs magnification {m_abs:.4f}",
            residual=abs(ratio / m_abs - 1.0),
        )


def synthesize_lens_stack(
    targets: DesignTargets,
    source_tilt: float = 0.0,
    chief_reach: float = 0.0,
) -> LensStackPrescription:
    """Find a printable wedge + two-lens stack meeting the targets.

    The search is a deterministic coarse grid over (second focal length,
    lens gap); the first focal length and its height follow in closed
    form from the imaging conditions, so every grid point is exact and
    feasibility alone decides. Ties break toward the smallest stack. The
    best feasible grid point is returned as is, after a cross-check with
    a paraxial wave propagation.

    When no telecentric two-lens geometry fits the stack budget the
    degenerate single-lens conjugate (flat first surface) is used
    instead; it satisfies the same imaging equations analytically.

    source_tilt (degrees) sizes the corrective wedge; chief_reach
    (metres) is the outermost waveguide offset the apertures must admit.
    """
    check_real("source_tilt", source_tilt)
    check_real("chief_reach", chief_reach, 0, closed=True)

    wavelength = targets.wavelength
    source = beam_from_mfd(targets.source_mfd[0], targets.source_mfd[1], wavelength)
    w0x = source.x.waist_radius
    na_pred = wavelength / (math.pi * w0x)
    if abs(na_pred / targets.numerical_aperture - 1.0) > NA_TOL:
        raise InfeasibleDesignError(
            "numerical_aperture inconsistent with source_mfd: the mode "
            f"diverges at NA {na_pred:.4f} but targets ask {targets.numerical_aperture:.4f}"
        )

    ms = -targets.magnification
    dist = targets.image_distance
    budget_r = targets.aperture_budget / 2.0

    f2_values = np.arange(F2_RANGE[0], F2_RANGE[1] + GRID_STEP / 2, GRID_STEP)
    gap_values = np.arange(GAP_RANGE[0], GAP_RANGE[1] + GRID_STEP / 2, GRID_STEP)

    rejections = {
        "focal_length": 0,
        "working_distance": 0,
        "max_stack_height": 0,
        "telecentricity": 0,
        "internal_focus": 0,
        "chief_slope": 0,
        "aperture_budget": 0,
    }
    best = None
    for f2 in f2_values:
        p00 = 1.0 - dist / f2
        for g in gap_values:
            p01 = g * p00 + dist
            denom = p00 - ms
            if abs(denom) < 1e-9:
                continue
            f1 = p01 / denom
            if f1 < MIN_FOCAL_LENGTH:
                rejections["focal_length"] += 1
                continue
            d1 = -p01 / ms
            if d1 < MIN_WORKING_DISTANCE:
                rejections["working_distance"] += 1
                continue
            stack = d1 + g
            if stack > targets.max_stack_height:
                rejections["max_stack_height"] += 1
                continue
            if abs(1.0 - g / f1) > TELECENTRIC_TOL:
                rejections["telecentricity"] += 1
                continue
            if d1 > f1 and f1 * d1 / (d1 - f1) < g:
                rejections["internal_focus"] += 1
                continue
            if chief_reach / f1 > MAX_CHIEF_SLOPE:
                rejections["chief_slope"] += 1
                continue
            if max(_widths_at_lenses(source, (f1, f2), (d1, stack))) > budget_r:
                rejections["aperture_budget"] += 1
                continue
            key = (stack, f2, g)
            if best is None or key < best[0]:
                best = (key, float(f1), float(f2), float(g), float(d1))

    if best is not None:
        _, f1, f2, g, d1 = best
        f_list = (f1, f2)
        z_list = (d1, d1 + g)
        # the chief ray's reach at each lens
        reaches = (chief_reach, chief_reach * abs(1.0 - g / f1))
    else:
        # Degenerate fallback: one lens imaging source to ion directly.
        height = dist / targets.magnification
        f_single = dist / (1.0 + targets.magnification)
        f_list = (f_single,)
        z_list = (height,)
        reaches = (chief_reach,)
        failures = [k for k, v in sorted(rejections.items(), key=lambda kv: -kv[1]) if v]
        detail = ", ".join(f"{k} ({rejections[k]} candidates)" for k in failures)
        if height > targets.max_stack_height:
            raise InfeasibleDesignError(
                "no feasible lens stack: the single-lens conjugate needs "
                f"{height * 1e6:.1f} um of stack height "
                f"(max_stack_height {targets.max_stack_height * 1e6:.1f} um); "
                f"two-lens candidates rejected by: {detail}"
            )
        if height < MIN_WORKING_DISTANCE + MIN_LENS_SPACING:
            raise InfeasibleDesignError(
                "no feasible lens stack: working_distance too short for the "
                f"single-lens conjugate; two-lens candidates rejected by: {detail}"
            )
        w_lens = _widths_at_lenses(source, f_list, z_list)[0]
        if w_lens > budget_r:
            raise InfeasibleDesignError(
                "no feasible lens stack: aperture_budget admits a beam radius "
                f"of {budget_r * 1e6:.1f} um but the mode grows to "
                f"{w_lens * 1e6:.1f} um; two-lens candidates rejected by: {detail}"
            )
    radii = tuple(
        min(APERTURE_ENVELOPE * w + reach + APERTURE_MARGIN, budget_r)
        for w, reach in zip(_widths_at_lenses(source, f_list, z_list), reaches)
    )

    v_ach, m_ach = _achieved_imaging(f_list, z_list)
    if abs(abs(m_ach) / targets.magnification - 1.0) > MAGNIFICATION_TOL:
        raise InfeasibleDesignError(
            f"magnification misses target: {abs(m_ach):.4f} vs {targets.magnification:.4f}"
        )
    if abs(v_ach / dist - 1.0) > IMAGE_DISTANCE_TOL:
        raise InfeasibleDesignError(
            f"image_distance misses target: {v_ach * 1e6:.2f} um vs {dist * 1e6:.2f} um"
        )

    _wave_verify(f_list, z_list, targets, v_ach, m_ach)

    elements = []
    if abs(source_tilt) > 0:
        elements.append((WEDGE_Z, WedgePhase(-math.radians(source_tilt))))
    for f, z, r in zip(f_list, z_list, radii):
        elements.append((z, CircAperture(r)))
        elements.append((z, ThinLensPhase(f)))

    return LensStackPrescription(
        elements=tuple(elements),
        focal_lengths=tuple(f_list),
        lens_positions=tuple(z_list),
        aperture_radii=tuple(radii),
        stack_height=float(z_list[-1]),
        source_tilt_deg=float(source_tilt),
        predicted_magnification=(m_ach, m_ach),
        predicted_image_distance=v_ach,
        predicted_na=wavelength / (math.pi * abs(m_ach) * w0x),
        targets=targets,
    )


def _launch(prescription, array, mirror, channel):
    """A channel's nominal (elements, source x, tilt_deg): the stack, its
    waveguide's offset on the chip and the mirror's exit angle, the y-z
    tilt of its source. SWEEP_PARAMETERS perturbations take this triple."""
    return (list(prescription.elements), float(array.positions_m[channel]),
            outcoupling_angle(mirror).exit_angle_deg)


def _search(prescription, array, grid, z_search, channel, launch):
    """(ChannelFocus, FocusResult) of `channel` launched as `launch`, an
    (elements, source x, tilt_deg) triple: the array's Gaussian mode at the
    design wavelength, centred at x and tilted by tilt_deg in y-z, enters
    as its FreeSpacePlanes (gaussian_planes: the spectrum of a product
    field, from one 1-d transform per axis) and runs through elements to
    find_focus within z_search (None: 0.5 to 1.25 image distances past the
    stack top, 33 steps). waveguide_position is x.

    Every search, a sweep point's too, centres find_focus's first triple
    on the nominal ABCD image plane, predicted_image_distance past the
    stack top. The wave focus lies close to it (on the shipped scenarios
    within two refining steps), so one triple usually finds it, and a zero
    perturbation repeats the baseline's search exactly."""
    elements, x, tilt_deg = launch
    top = prescription.stack_height
    dist = prescription.predicted_image_distance
    if z_search is None:
        z_search = (top + 0.5 * dist, top + 1.25 * dist, 33)
    beam = beam_from_mfd(*array.mode_mfd_m, prescription.targets.wavelength)
    # no name here holds the source's planes, so the stack loop can free them
    result = find_focus(
        gaussian_planes(beam, tilt=(0.0, math.radians(tilt_deg)), grid=grid, center=(x, 0.0)),
        list(elements), z_search, top + dist,
    )
    return ChannelFocus(
        **vars(result.metrics),
        channel=channel,
        waveguide_position=x,
        z_focus=result.z_focus,
        image_distance=result.z_focus - top,
        beam_slope=result.beam_slope,
        off_normal=abs(result.beam_slope) > OFF_NORMAL_SLOPE,
        focus_fit_residual=result.fit_residual,
    ), result


def simulate_channel(
    prescription: LensStackPrescription,
    array: WaveguideArraySpec,
    channel: int,
    mirror: TirMirrorSpec,
    grid,
    z_search=None,
    with_result: bool = False,
):
    """Wave-propagate one channel through the stack and find its focus.

    The source is the array's Gaussian mode at the channel's transverse
    offset, tilted by the mirror's out-coupling exit angle (_launch); the
    returned ChannelFocus holds the metrics at the x-width minimum past the
    stack (_search). With with_result the return value is (ChannelFocus,
    FocusResult), so a caller can reuse the focus field and exit planes.
    A channel that WaveguideArraySpec.check_channel rejects raises
    InvalidInputError before any work.
    """
    array.check_channel(channel)
    focus, result = _search(
        prescription, array, grid, z_search, channel,
        _launch(prescription, array, mirror, channel),
    )
    return (focus, result) if with_result else focus


@contextlib.contextmanager
def _error_prefix(prefix: str):
    """Prefix the message of an IonOpticsError raised inside."""
    try:
        yield
    except IonOpticsError as exc:
        exc.args = (f"{prefix}{exc}",) + exc.args[1:]
        raise


def _row_and_centroid(field: ScalarField, y_row: float):
    """A channel's |E|^2 on the row at y_row of its field in the common
    crosstalk plane and its x centroid there, from the marginals as
    spot_metrics takes it."""
    row = interp_row(field.samples, field.y, y_row, axis=0)
    return row, _intensity_stats(field.samples, field.x, field.y)[1]


def crosstalk_matrix(
    prescription: LensStackPrescription,
    array: WaveguideArraySpec,
    crystal: IonCrystal,
    mirror: TirMirrorSpec,
    grid,
    z_search=None,
) -> CrosstalkReport:
    """Intensity crosstalk of every addressing beam at every ion.

    All channels are evaluated in one common plane, the x-focus of the
    centre channel (the ions sit in one plane above the chip): the lowest
    index among the channels whose |x| lies within MIRROR_POSITION_TOL of
    the grid pitch of the smallest. One pass takes the channels in turn,
    the centre channel first, and runs each propagated channel's own focus
    search (simulate_channel, within z_search), which sends its source
    through the stack once; channel_focus holds the records it returns.
    The centre channel's search fixes the plane and the row's y, and its
    focus field is its field there. Every other propagated channel reaches
    that plane in one inverse FFT from the stack-exit FreeSpacePlanes of
    its own search. In the same step |E|^2 on two rows gives its row
    through the centre spot, and the marginals of its |E|^2 its centroid.

    A chain in a harmonic trap, its pitch plan and an on-axis stack are
    mirror-symmetric in x. Every element type acts evenly in x, so the
    pass checks the array first: every pair (i, n-1-i) of waveguides must
    mirror within MIRROR_POSITION_TOL of the grid pitch. If so, every
    channel past the middle (i > n-1-i) mirrors its partner n-1-i,
    and the rest are propagated; the centre channel is always among them:
    it ties with its partner, and the tie goes to the lower index. A
    mirrored channel takes its partner's fields mirrored in place on the
    grid's periodic index map ix -> (nx - ix) % nx, as soon as the partner
    is done with them (the centre field is mirrored back): its field in
    the common plane goes through the same row and centroid steps, and its
    record keeps its channel and waveguide position, takes its partner's
    z_focus, beam_slope and focus_fit_residual, and takes its spot metrics
    from the mirrored focus field. An array that fails the check
    propagates every channel. mirror_of says which channels mirrored.

    Ion positions are mapped into the plane by a least-squares scale fit
    of the centroids, which absorbs the sub-percent magnification offset
    of the realized stack; the fit residual is reported. A single ion has
    no fit: its scale is the nominal |magnification| over the target. The
    optical term for an ordered pair (i, j) is the beam-i intensity at ion
    j relative to ion i on that row; the leakage term comes from the
    waveguide-array model with the two channels that address ions i and
    j; totals are power sums. A leakage term whose power is not finite
    fails before the first propagation.
    """
    _check_grid_tuple(grid)
    n = array.channel_count
    if len(crystal.positions_m) != n:
        raise InvalidInputError(
            f"crystal has {len(crystal.positions_m)} ions but the array "
            f"has {n} channels"
        )
    ions = np.asarray(crystal.positions_m, dtype=float)
    # leakage needs the array alone: check it before any propagation, in the sums' order
    leakage = {(a, b): max(leakage_crosstalk(array, n - 1 - a, n - 1 - b), CROSSTALK_FLOOR_DB)
               for a, b in itertools.permutations(range(n), 2)}
    for (a, b), leak in leakage.items():
        try:
            finite = math.isfinite(10.0 ** (leak / 10.0))
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidInputError(
                f"channels {n - 1 - a} and {n - 1 - b}: the crosstalk power sum of "
                f"any optical term and {leak:.4g} dB leakage is not finite"
            )
    top = prescription.stack_height
    positions = array.positions_m
    tol = MIRROR_POSITION_TOL * grid[2]
    offsets = np.abs(positions)
    centre = int(np.flatnonzero(offsets <= offsets.min() + tol)[0])
    symmetric = bool(np.all(np.abs(positions + positions[::-1]) <= tol))
    mirror_of = [n - 1 - i if symmetric and i > n - 1 - i else None for i in range(n)]

    focus_table = [None] * n
    rows = np.empty((n, int(grid[0])))
    centroids = np.empty(n)
    for i in [centre] + [j for j in range(n) if j != centre and mirror_of[j] is None]:
        # the channel that takes this one's fields mirrored, if any
        image = n - 1 - i if mirror_of[n - 1 - i] == i else None
        image_spot = None
        with _error_prefix(f"channel {i}: "):
            record, result = simulate_channel(
                prescription, array, i, mirror, grid=grid, z_search=z_search,
                with_result=True,
            )
            if i == centre:
                z_eval, y_row = record.z_focus, record.centroid[1]
                field = centre_field = result.field_at_focus
            else:
                if image is not None:
                    # the image's spot; the focus field is not read again
                    _mirror_x(result.field_at_focus.samples)
                    image_spot = spot_metrics(result.field_at_focus)
                planes = result.planes
                del result  # drop the focus field before the common plane
                field = planes.plane(z_eval - top)
            rows[i], centroids[i] = _row_and_centroid(field, y_row)
        focus_table[i] = record
        if image is not None:
            with _error_prefix(f"channel {image}: "):
                _mirror_x(field.samples)
                # without image_spot the partner is the centre, whose
                # focus field is this field
                spot = spot_metrics(field) if image_spot is None else image_spot
                focus_table[image] = replace(
                    record, **vars(spot), channel=image,
                    waveguide_position=float(positions[image]),
                )
                rows[image], centroids[image] = _row_and_centroid(field, y_row)
                if i == centre:
                    _mirror_x(field.samples)  # the centre field is kept: mirror it back
        # nothing of this channel lives into the next channel's search
        result = planes = field = None

    # Channel k images onto ion n-1-k, so the spot of channel n-1-j
    # marks ion j. One scale factor maps ion coordinates to the plane.
    if n == 1:
        # the nominal ion-to-plane scale, which the fit estimates for n > 1
        m = prescription.predicted_magnification[0]
        scale, residual = float(abs(m) / prescription.targets.magnification), 0.0
    else:
        spot_for_ion = centroids[::-1]
        scale = float(np.dot(spot_for_ion, ions) / np.dot(ions, ions))
        residual = float(np.max(np.abs(spot_for_ion - scale * ions)))
    ion_x = scale * ions

    matrix = np.zeros((n, n))
    contributions = []
    for (a, b), leak in leakage.items():
        row = rows[n - 1 - a]
        denom = float(np.interp(ion_x[a], centre_field.x, row))
        if denom <= 0:
            raise ConvergenceError(f"channel {n - 1 - a}: no power at its target ion")
        num = float(np.interp(ion_x[b], centre_field.x, row))
        optical = 10.0 * math.log10(max(num / denom, 1e-20))
        optical = max(optical, CROSSTALK_FLOOR_DB)
        try:
            total = 10.0 * math.log10(10.0 ** (optical / 10.0) + 10.0 ** (leak / 10.0))
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise InvalidInputError(
                f"channels {n - 1 - a} and {n - 1 - b}: the crosstalk power sum of "
                f"{optical:.4g} dB optical and {leak:.4g} dB leakage is not finite"
            )
        matrix[a, b] = total
        contributions.append(
            {
                "ion_i": a,
                "ion_j": b,
                "optical_db": optical,
                "leakage_db": leak,
                "total_db": total,
            }
        )

    return CrosstalkReport(
        matrix_db=matrix,
        contributions=tuple(contributions),
        ion_positions=ions,
        channel_focus=tuple(focus_table),
        evaluation_z=z_eval,
        alignment_scale=scale,
        alignment_residual=residual,
        mirror_of=tuple(mirror_of),
        centre_field=centre_field,
    )


def _sweep_systems(perturbations, nominal):
    """(failure prefix, parameter, value, (elements, source x, tilt,
    residual tilt)) of every sweep point in order, each built from the
    `nominal` launch, with value taken to SI, when it is reached; a
    failure carries its prefix."""
    for spec_row in perturbations:
        parameter = spec_row["parameter"]
        unit, perturb = SWEEP_PARAMETERS[parameter]
        lo, hi, steps = spec_row["lo"], spec_row["hi"], int(spec_row["steps"])
        for value in [0.5 * (lo + hi)] if steps == 1 else np.linspace(lo, hi, steps):
            prefix = f"sweep point {parameter}={value:g} {unit} failed: "
            with _error_prefix(prefix):
                system = perturb(*nominal, value * (UM if unit == "um" else 1.0))
            yield prefix, parameter, value, system


def tolerance_sweep(
    prescription: LensStackPrescription,
    array: WaveguideArraySpec,
    mirror: TirMirrorSpec,
    perturbations: Sequence[dict],
    grid,
    z_search=None,
    preset: Optional[str] = None,
) -> SweepReport:
    """Re-simulate the worst-case channel over assembly-error grids.

    Each perturbation is {parameter, lo, hi, steps}: steps evenly spaced
    values from lo to hi, or the one value (lo + hi) / 2 when steps is 1,
    in the parameter's SWEEP_PARAMETERS unit: angles degrees, offsets
    micrometres, as in scenario files, --param and the report.
    prism_design_angle is the absolute exit angle the corrective wedge was
    built for (nominal: the mirror's actual exit angle); the remaining
    parameters are deltas with nominal 0. The worst-case channel is the
    lowest index among the channels whose |x| lies within
    MIRROR_POSITION_TOL of the grid pitch of the largest, so of a mirror
    pair it is the one crosstalk_matrix propagates, and the baseline is
    the record design writes for it (simulate_channel). Each
    point runs _search on a perturbed _launch. sweep_rows appends the
    preset's rows and checks every row first; then every point's system
    is built, or fails, and is dropped, all before the first focus
    search, and each is built again at its own search, so no more than
    one point's system is held at a time.
    """
    perturbations = sweep_rows(perturbations, preset)
    _check_grid_tuple(grid)
    offsets = np.abs(array.positions_m)
    worst = int(np.flatnonzero(offsets >= offsets.max() - MIRROR_POSITION_TOL * grid[2])[0])
    nominal = _launch(prescription, array, mirror, worst)
    for _ in _sweep_systems(perturbations, nominal):
        pass

    baseline = simulate_channel(prescription, array, worst, mirror, grid, z_search)

    points = []
    for prefix, parameter, value, (*launch, residual) in _sweep_systems(perturbations, nominal):
        with _error_prefix(prefix):
            # [0]: the search's FocusResult and its fields are freed here
            focus = _search(prescription, array, grid, z_search, worst, launch)[0]
        points.append(
            SweepPoint(
                **vars(focus),
                parameter=parameter,
                value=float(value),
                dz_focus=focus.z_focus - baseline.z_focus,
                dmfd=tuple(f - b for f, b in zip(focus.mfd_fit, baseline.mfd_fit)),
                dcentroid=tuple(f - b for f, b in zip(focus.centroid, baseline.centroid)),
                residual_tilt_deg=residual,
            )
        )

    return SweepReport(baseline=baseline, points=tuple(points))
