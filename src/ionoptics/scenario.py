"""Scenario files: one JSON document describing a complete design problem.

A scenario bundles the trap (ion species, axial frequency, ion count),
the imaging targets, the out-coupling mirror, optional waveguide-array
overrides, the wave-simulation grid, and optional tolerance sweeps.
Lengths are micrometres, angles degrees and frequencies hertz in the
file; everything but the sweep rows, which keep their parameter's unit,
is converted to SI here. Unknown keys are rejected so that typos fail
loudly instead of silently using defaults.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

from .constants import UM
from .crystal import TrapSpec
from .designer import DesignTargets
from .errors import InvalidInputError, ScenarioError
from .picmodel import TirMirrorSpec
from .report import _location, schema_error, to_plain
from .wavefield import _check_grid


@dataclass(frozen=True)
class Scenario:
    """Validated scenario ready for the pipeline, in SI but for `sweeps`:
    copies of the file's {parameter, lo, hi, steps} rows, each in its
    parameter's unit (designer.SWEEP_PARAMETERS), as the file gives them."""

    name: str
    trap: TrapSpec
    targets: DesignTargets
    mirror: TirMirrorSpec
    mode_mfd_m: tuple[float, float]
    leakage_decay_per_m: float
    leakage_reference: tuple[float, float]
    grid: tuple[int, int, float]
    z_search: Optional[tuple[float, float, int]]
    sweeps: tuple
    raw: dict


def parse_scenario(data: dict, name_hint: str = "scenario") -> Scenario:
    """Validate a decoded scenario document and convert units as Scenario says.
    NaN, infinity and integers beyond the float range are rejected naming
    their JSON path; a document that is not an object fails on the
    schema's root type."""
    try:
        to_plain(data)
    except InvalidInputError as exc:
        raise ScenarioError(f"invalid scenario {exc}") from exc
    exc = schema_error("scenario", data)
    if exc is not None:
        raise ScenarioError(
            f"invalid scenario at {_location(exc.absolute_path)}: {exc.message}"
        ) from exc

    trap_d = data["trap"]
    trap = TrapSpec(
        ion_mass_amu=trap_d["ion_mass_amu"],
        ion_charge=trap_d.get("ion_charge", 1),
        axial_frequency_hz=trap_d["axial_frequency_hz"],
        ion_count=trap_d["ion_count"],
    )

    t = data["targets"]
    targets = DesignTargets(
        magnification=t["magnification"],
        numerical_aperture=t["numerical_aperture"],
        image_distance=t["image_distance_um"] * UM,
        source_mfd=(t["source_mfd_um"][0] * UM, t["source_mfd_um"][1] * UM),
        wavelength=t["wavelength_um"] * UM,
        max_stack_height=t["max_stack_height_um"] * UM,
        aperture_budget=t["aperture_budget_um"] * UM,
    )

    mirror = TirMirrorSpec(**data["mirror"])

    array_d = data.get("array", {})
    if "mode_mfd_um" in array_d:
        mode_mfd = (array_d["mode_mfd_um"][0] * UM, array_d["mode_mfd_um"][1] * UM)
    else:
        mode_mfd = targets.source_mfd
    decay = array_d.get("leakage_decay_per_um", 1.0) / UM
    ref = array_d.get("leakage_reference", {"pitch_um": 5.0, "db": -30.0})
    leakage_reference = (ref["pitch_um"] * UM, ref["db"])

    g = data["grid"]
    grid = (int(g["nx"]), int(g["ny"]), g["pitch_um"] * UM)
    try:
        _check_grid(*grid)
    except InvalidInputError as exc:
        raise ScenarioError(f"invalid scenario at grid: {exc}") from exc

    z_search = None
    if "z_search_um" in data:
        zs = data["z_search_um"]
        if not zs["lo"] < zs["hi"]:
            raise ScenarioError("invalid scenario at z_search_um: lo must be below hi")
        z_search = (zs["lo"] * UM, zs["hi"] * UM, int(zs["steps"]))

    return Scenario(
        name=data.get("name", name_hint),
        trap=trap,
        targets=targets,
        mirror=mirror,
        mode_mfd_m=mode_mfd,
        leakage_decay_per_m=decay,
        leakage_reference=leakage_reference,
        grid=grid,
        z_search=z_search,
        # copies: `raw` holds the file's own rows and is echoed into every report
        sweeps=tuple(dict(row) for row in data.get("sweeps", ())),
        raw=data,
    )


def load_scenario(path) -> Scenario:
    """Read a scenario file and return parse_scenario of its document, so a
    file fails as its decoded dict does: NaN, Infinity and float literals
    that overflow (1e400) are rejected naming their JSON path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario is not valid JSON: {path}: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    name_hint = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_scenario(data, name_hint=name_hint)
