"""Run reports: canonical JSON that is byte-identical across runs.

Reports are serialized with sorted keys, two-space indentation and a
trailing newline, after converting every numpy scalar or array to plain
Python. The only nondeterministic content allowed is the "run" block
(timestamp and wall time); reproducibility comparisons drop that block
and nothing else.
"""

from __future__ import annotations

import datetime
import functools
import json
import math
import sys
from importlib import resources

import jsonschema
import numpy as np

from .constants import UM
from .crystal import IonCrystal, ion_spacings
from .designer import (
    CROSSTALK_FLOOR_DB,
    SWEEP_PARAMETERS,
    ChannelFocus,
    CrosstalkReport,
    LensStackPrescription,
    SweepPoint,
    SweepReport,
)
from .errors import InvalidInputError
from .picmodel import OutcouplingResult, TirMirrorSpec, tir_critical_angle
from .wavefield import ThinLensPhase, WedgePhase

REPORT_SCHEMA_VERSION = 10


def _location(path) -> str:
    return "/".join(str(p) for p in path) or "(document root)"


def _plain(value, path):
    if isinstance(value, np.floating):
        value = float(value)
    elif isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()  # a Python scalar or nested lists
    if isinstance(value, dict):
        return {str(k): _plain(v, (*path, k)) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, (*path, i)) for i, v in enumerate(value)]
    if isinstance(value, float) and not math.isfinite(value):
        got = value
    elif isinstance(value, int) and abs(value) > sys.float_info.max:
        got = "an integer beyond the float range"
    else:
        return value
    raise InvalidInputError(f"at {_location(path)}: numbers must be finite, got {got}")


def to_plain(value):
    """Recursively convert numpy containers and scalars to JSON types; a number
    that is not finite or beyond the float range raises, naming its path."""
    return _plain(value, ())


def canonical_json(data: dict) -> str:
    return json.dumps(to_plain(data), sort_keys=True, indent=2) + "\n"


def load_schema(name: str) -> dict:
    """The packaged JSON schema of a document: "scenario" or "report"."""
    path = resources.files("ionoptics.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


@functools.cache
def _validator(name: str):
    # the test suite, not each process, checks the schema against its metaschema
    schema = load_schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


def schema_error(name: str, document):
    """jsonschema's best match among a plain document's errors, or None."""
    return jsonschema.exceptions.best_match(_validator(name).iter_errors(document))


def _check_report(plain) -> None:
    exc = schema_error("report", plain)
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "report"
        raise InvalidInputError(
            f"report violates its schema at {path}: {exc.message}"
        ) from exc


def validate_report(data: dict) -> None:
    """Raise InvalidInputError for the error jsonschema.validate would raise."""
    _check_report(to_plain(data))


def write_report(data: dict, path) -> None:
    text = canonical_json(data)
    _check_report(json.loads(text))  # the document as written
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def run_block(wall_time_s: float) -> dict:
    return {
        "generated_at_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_time_s": float(wall_time_s),
    }


def crystal_section(crystal: IonCrystal) -> dict:
    return {
        "length_scale_um": crystal.length_scale_m / UM,
        "positions_um": [p / UM for p in crystal.positions_m],
        "gaps_um": [g / UM for g in ion_spacings(crystal)],
    }


def mirror_section(mirror: TirMirrorSpec, outcoupling: OutcouplingResult) -> dict:
    return {
        "critical_angle_deg": tir_critical_angle(mirror),
        "internal_tilt_deg": outcoupling.internal_tilt_deg,
        "exit_angle_deg": outcoupling.exit_angle_deg,
        "tir_satisfied": outcoupling.tir_satisfied,
    }


def pitch_plan_section(positions_m: np.ndarray) -> dict:
    positions = np.asarray(positions_m, dtype=float)
    return {
        "positions_um": [p / UM for p in positions],
        "gaps_um": [g / UM for g in np.diff(positions)],
    }


def prescription_section(prescription: LensStackPrescription) -> dict:
    elements = []
    for z, el in prescription.elements:
        if isinstance(el, WedgePhase):
            # wedges deflect in y only; tilt_x_deg stays a fixed 0 so that
            # the elements table keeps its fields
            elements.append({"z_um": z / UM, "kind": "wedge",
                             "tilt_x_deg": 0.0,
                             "tilt_y_deg": math.degrees(el.tilt_y)})
        elif isinstance(el, ThinLensPhase):
            elements.append({"z_um": z / UM, "kind": "lens",
                             "focal_length_um": el.focal_length / UM})
        else:
            elements.append({"z_um": z / UM, "kind": "aperture", "radius_um": el.radius / UM})
    return {
        "elements": elements,
        "focal_lengths_um": [f / UM for f in prescription.focal_lengths],
        "lens_positions_um": [z / UM for z in prescription.lens_positions],
        "aperture_radii_um": [r / UM for r in prescription.aperture_radii],
        "stack_height_um": prescription.stack_height / UM,
        "source_tilt_deg": prescription.source_tilt_deg,
        "predicted": {
            "magnification": list(prescription.predicted_magnification),
            "image_distance_um": prescription.predicted_image_distance / UM,
            "numerical_aperture": prescription.predicted_na,
        },
    }


def channel_section(focus: ChannelFocus) -> dict:
    return {
        "channel": focus.channel,
        "waveguide_position_um": focus.waveguide_position / UM,
        "z_focus_um": focus.z_focus / UM,
        "image_distance_um": focus.image_distance / UM,
        "mfd_fit_um": [v / UM for v in focus.mfd_fit],
        "mfd_moment_um": [v / UM for v in focus.mfd_moment],
        "centroid_um": [v / UM for v in focus.centroid],
        "clipped_fraction": focus.clipped_fraction,
        "fit_failed": focus.fit_failed,
        "beam_slope_rad": focus.beam_slope,
        "off_normal": focus.off_normal,
        "focus_fit_residual": focus.focus_fit_residual,
    }


def crosstalk_section(report: CrosstalkReport) -> dict:
    neighbors = [
        c for c in report.contributions if abs(c["ion_i"] - c["ion_j"]) == 1
    ]
    # a single ion has no pairs: every worst value is the floor, not 0 dB
    worst_total = max((c["total_db"] for c in neighbors), default=CROSSTALK_FLOOR_DB)
    worst_optical = max((c["optical_db"] for c in neighbors), default=CROSSTALK_FLOOR_DB)
    worst_leak = max(
        (c["leakage_db"] for c in report.contributions), default=CROSSTALK_FLOOR_DB
    )
    return {
        "matrix_db": report.matrix_db,
        "contributions": list(report.contributions),
        "ion_positions_um": [p / UM for p in report.ion_positions],
        "evaluation_z_um": report.evaluation_z / UM,
        "alignment_scale": report.alignment_scale,
        "alignment_residual_um": report.alignment_residual / UM,
        "mirror_of": list(report.mirror_of),
        "worst_nearest_neighbor_total_db": worst_total,
        "worst_nearest_neighbor_optical_db": worst_optical,
        "worst_leakage_db": worst_leak,
    }


# the keys of a sweep point that carry its focus record, as in channel_section
SWEEP_POINT_FOCUS_KEYS = (
    "z_focus_um", "image_distance_um", "mfd_fit_um", "centroid_um",
    "clipped_fraction", "beam_slope_rad", "off_normal",
)


def sweep_point_section(point: SweepPoint) -> dict:
    focus = channel_section(point)
    return {
        "parameter": point.parameter,
        "value": point.value,
        "value_unit": SWEEP_PARAMETERS[point.parameter].unit,
        **{key: focus[key] for key in SWEEP_POINT_FOCUS_KEYS},
        "dz_focus_um": point.dz_focus / UM,
        "dmfd_um": [v / UM for v in point.dmfd],
        "dcentroid_um": [v / UM for v in point.dcentroid],
        "residual_tilt_deg": point.residual_tilt_deg,
    }


def sweep_section(report: SweepReport) -> dict:
    return {
        "channel": report.baseline.channel,
        "baseline": channel_section(report.baseline),
        "points": [sweep_point_section(p) for p in report.points],
    }
