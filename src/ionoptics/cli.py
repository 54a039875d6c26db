"""Command-line front end.

Subcommands:
  crystal   solve the ion chain and print positions and gaps
  design    full pipeline: pitch plan, lens-stack synthesis, per-channel
            wave simulation, crosstalk matrix; writes a JSON report
  sweep     tolerance sweeps of the worst-case channel; writes a CSV
            table (one row per grid point) and a JSON summary
  version   print the toolkit version

Exit codes: 0 success, 2 scenario parse or validation error, 3 invariant
violation (invalid field values, geometry, trapped rays), 4 infeasible
design targets, 5 convergence failure, 6 propagation-window or sampling
error (a tilt the grid cannot sample included) or memory exhausted; an
output that cannot be written exits 2, before any work if it names a
directory, its directory is missing or two outputs name one file. A
malformed sweep request exits 2 before any work, whether its rows come
from the scenario, --param or --preset. The environment variable
IONOPTICS_OUTDIR sets the default output directory; flags override it.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time

import numpy as np

from . import __version__
from .constants import UM
from .crystal import solve_crystal
from .designer import (
    SWEEP_PRESETS,
    crosstalk_matrix,
    pitch_plan,
    sweep_rows,
    synthesize_lens_stack,
    tolerance_sweep,
)
from .errors import (
    ConvergenceError,
    FocusNotBracketedError,
    InfeasibleDesignError,
    InvalidInputError,
    IonOpticsError,
    PropagationWindowError,
    SamplingError,
    ScenarioError,
)
from .picmodel import WaveguideArraySpec, outcoupling_angle
from .report import (
    REPORT_SCHEMA_VERSION,
    channel_section,
    crosstalk_section,
    crystal_section,
    mirror_section,
    pitch_plan_section,
    prescription_section,
    run_block,
    sweep_section,
    write_report,
)
from .scenario import Scenario, load_scenario
from .wavefield import _check_grid, write_field_csv, write_field_sfld

EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_INFEASIBLE = 4
EXIT_CONVERGENCE = 5
EXIT_PROPAGATION = 6

# Sweep CSV columns: (column, sweep-point report key, index into the
# key's [x, y] pair or None)
SWEEP_CSV = (
    ("parameter", "parameter", None),
    ("value", "value", None),
    ("value_unit", "value_unit", None),
    ("z_focus_um", "z_focus_um", None),
    ("dz_focus_um", "dz_focus_um", None),
    ("mfd_x_um", "mfd_fit_um", 0),
    ("mfd_y_um", "mfd_fit_um", 1),
    ("dmfd_x_um", "dmfd_um", 0),
    ("dmfd_y_um", "dmfd_um", 1),
    ("centroid_x_um", "centroid_um", 0),
    ("centroid_y_um", "centroid_um", 1),
    ("dcentroid_x_um", "dcentroid_um", 0),
    ("dcentroid_y_um", "dcentroid_um", 1),
    ("clipped_fraction", "clipped_fraction", None),
    ("beam_slope_rad", "beam_slope_rad", None),
    ("off_normal", "off_normal", None),
    ("residual_tilt_deg", "residual_tilt_deg", None),
)


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.9g}"


def _out_path(flag_value, default_name: str) -> str:
    if flag_value:
        return flag_value
    return os.path.join(os.environ.get("IONOPTICS_OUTDIR", "."), default_name)


def _check_out_dirs(*paths):
    """Raise IsADirectoryError for an output naming a directory (existing or
    ending in a separator), FileNotFoundError for one whose directory is
    missing, ScenarioError for two that resolve to one file; "" passes."""
    named = {}
    for path in filter(None, paths):
        if os.path.isdir(path) or not os.path.basename(path):
            raise IsADirectoryError(f"output {path!r} names a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"no directory for output {path!r}")
        resolved = os.path.realpath(path)
        if resolved in named:
            raise ScenarioError(f"outputs {named[resolved]!r} and {path!r} name the same file")
        named[resolved] = path


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be nx,ny,pitch_um")
    try:
        nx, ny = int(parts[0]), int(parts[1])
        pitch = float(parts[2]) * UM
        _check_grid(nx, ny, pitch)
    except (ValueError, InvalidInputError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc
    return (nx, ny, pitch)


def _parse_param(text: str):
    """One --param row name:lo:hi:steps (angles deg, offsets um), checked."""
    try:
        name, lo, hi, steps = text.split(":")
        row = {"parameter": name, "lo": float(lo), "hi": float(hi), "steps": int(steps)}
        return sweep_rows([row])[0]
    except (ValueError, InvalidInputError) as exc:
        raise ScenarioError(
            f"bad param {text!r}: {exc}; need name:lo:hi:steps (angles deg, offsets um)"
        ) from exc


def _build_pipeline(scenario: Scenario, grid_override=None):
    """Shared front half: crystal, pitch plan, array, prescription."""
    crystal = solve_crystal(scenario.trap)
    positions = pitch_plan(crystal, scenario.targets.magnification)
    array = WaveguideArraySpec(
        positions_m=positions,
        mode_mfd_m=scenario.mode_mfd_m,
        leakage_decay_per_m=scenario.leakage_decay_per_m,
        leakage_reference=scenario.leakage_reference,
    )
    out = outcoupling_angle(scenario.mirror)
    reach = float(np.max(np.abs(positions)))
    prescription = synthesize_lens_stack(
        scenario.targets,
        source_tilt=out.exit_angle_deg,
        chief_reach=reach,
    )
    grid = grid_override if grid_override is not None else scenario.grid
    return crystal, array, out, prescription, grid


def _report_skeleton(command: str, scenario: Scenario) -> dict:
    """The report envelope; each command adds "run" after its sections."""
    return {
        "report_schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "toolkit": {"name": "ionoptics", "version": __version__},
        "scenario": scenario.raw,
    }


def cmd_crystal(args) -> int:
    scenario = load_scenario(args.scenario)
    _check_out_dirs(args.report)
    t0 = time.perf_counter()
    crystal = solve_crystal(scenario.trap)
    section = crystal_section(crystal)

    print(f"ion crystal: {scenario.trap.ion_count} ions, "
          f"{scenario.trap.axial_frequency_hz / 1e3:.1f} kHz axial")
    print(f"{'ion':>4}  {'position_um':>12}")
    for i, p in enumerate(section["positions_um"]):
        print(f"{i:>4}  {p:>12.4f}")
    print(f"{'pair':>4}  {'gap_um':>12}")
    for i, g in enumerate(section["gaps_um"]):
        print(f"{i:>4}  {g:>12.4f}")

    if args.report:
        data = _report_skeleton("crystal", scenario)
        data["crystal"] = section
        data["run"] = run_block(time.perf_counter() - t0)
        write_report(data, args.report)
        print(f"report: {args.report}")
    return 0


def cmd_design(args) -> int:
    if args.dump_field and not args.dump_field.endswith((".sfld", ".csv")):
        raise ScenarioError("dump-field path must end in .sfld or .csv")
    scenario = load_scenario(args.scenario)
    path = _out_path(args.report, f"{scenario.name}_design_report.json")
    _check_out_dirs(path, args.dump_field)
    t0 = time.perf_counter()
    crystal, array, out, prescription, grid = _build_pipeline(
        scenario, args.grid
    )

    xt = crosstalk_matrix(
        prescription, array, crystal, scenario.mirror,
        grid=grid, z_search=scenario.z_search,
    )

    data = _report_skeleton("design", scenario)
    data["crystal"] = crystal_section(crystal)
    data["mirror"] = mirror_section(scenario.mirror, out)
    data["pitch_plan"] = pitch_plan_section(array.positions_m)
    data["prescription"] = prescription_section(prescription)
    data["channels"] = [channel_section(c) for c in xt.channel_focus]
    data["crosstalk"] = crosstalk_section(xt)
    data["run"] = run_block(time.perf_counter() - t0)

    write_report(data, path)

    print(f"lens stack: f = {[f'{f * 1e6:.2f}' for f in prescription.focal_lengths]} um "
          f"at z = {[f'{z * 1e6:.2f}' for z in prescription.lens_positions]} um, "
          f"stack {prescription.stack_height * 1e6:.2f} um")
    image_distance = xt.evaluation_z - prescription.stack_height
    print(f"centre channel focus: z = {xt.evaluation_z * 1e6:.3f} um "
          f"(image distance {image_distance * 1e6:.3f} um)")
    print(f"worst nearest-neighbor crosstalk: "
          f"{data['crosstalk']['worst_nearest_neighbor_total_db']:.2f} dB")
    print(f"report: {path}")

    if args.dump_field:
        if args.dump_field.endswith(".sfld"):
            write_field_sfld(xt.centre_field, args.dump_field)
        else:
            write_field_csv(xt.centre_field, args.dump_field)
        print(f"field dump: {args.dump_field}")
    return 0


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    rows = list(scenario.sweeps) + [_parse_param(p) for p in args.param or []]
    try:
        rows = sweep_rows(rows, args.preset)
    except InvalidInputError as exc:
        raise ScenarioError(str(exc)) from exc

    json_path = _out_path(args.report, f"{scenario.name}_sweep_report.json")
    csv_path = _out_path(args.csv, f"{scenario.name}_sweep.csv")
    _check_out_dirs(json_path, csv_path)
    t0 = time.perf_counter()
    crystal, array, out, prescription, grid = _build_pipeline(
        scenario, args.grid
    )
    result = tolerance_sweep(
        prescription, array, scenario.mirror, rows,
        grid=grid, z_search=scenario.z_search,
    )

    data = _report_skeleton("sweep", scenario)
    data["mirror"] = mirror_section(scenario.mirror, out)
    data["prescription"] = prescription_section(prescription)
    data["sweep"] = sweep_section(result)
    data["run"] = run_block(time.perf_counter() - t0)

    write_report(data, json_path)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(column for column, _, _ in SWEEP_CSV)
        for p in data["sweep"]["points"]:
            writer.writerow(
                _csv_cell(p[key] if index is None else p[key][index])
                for _, key, index in SWEEP_CSV
            )

    flagged = sum(1 for p in data["sweep"]["points"] if p["off_normal"])
    print(f"sweep: {len(data['sweep']['points'])} points on channel "
          f"{result.baseline.channel}, {flagged} flagged off-normal")
    print(f"report: {json_path}")
    print(f"table: {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionoptics",
        description="Design and verify multi-channel ion-addressing optics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_crystal = sub.add_parser("crystal", help="solve the ion chain")
    p_crystal.add_argument("scenario", help="scenario JSON path")
    p_crystal.add_argument("--report", help="write a JSON report here")
    p_crystal.set_defaults(func=cmd_crystal)

    p_design = sub.add_parser("design", help="run the full design pipeline")
    p_design.add_argument("scenario", help="scenario JSON path")
    p_design.add_argument("--report", help="JSON report path")
    p_design.add_argument(
        "--dump-field",
        help="write the centre-channel focus field (.sfld binary or .csv)",
    )
    p_design.add_argument(
        "--grid", type=_parse_grid, help="override grid: nx,ny,pitch_um"
    )
    p_design.set_defaults(func=cmd_design)

    p_sweep = sub.add_parser("sweep", help="tolerance sweeps")
    p_sweep.add_argument("scenario", help="scenario JSON path")
    p_sweep.add_argument("--report", help="JSON summary path")
    p_sweep.add_argument("--csv", help="CSV table path")
    p_sweep.add_argument(
        "--preset",
        help="named failure case (available: "
        + ", ".join(sorted(SWEEP_PRESETS)) + ")",
    )
    p_sweep.add_argument(
        "--param",
        action="append",
        help="extra sweep axis name:lo:hi:steps (angles deg, offsets um)",
    )
    p_sweep.add_argument(
        "--grid", type=_parse_grid, help="override grid: nx,ny,pitch_um"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_version = sub.add_parser("version", help="print the toolkit version")
    p_version.set_defaults(func=lambda args: print(f"ionoptics {__version__}") or 0)

    return parser


def _exit_code(exc: Exception) -> int:
    # an OSError comes from writing an output; scenario reads raise ScenarioError
    if isinstance(exc, (ScenarioError, OSError)):
        return EXIT_PARSE
    if isinstance(exc, InfeasibleDesignError):
        return EXIT_INFEASIBLE
    if isinstance(exc, (ConvergenceError, FocusNotBracketedError)):
        return EXIT_CONVERGENCE
    if isinstance(exc, (PropagationWindowError, SamplingError, MemoryError)):
        return EXIT_PROPAGATION
    return EXIT_INVARIANT


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IonOpticsError, OSError, MemoryError) as exc:
        grid = ", try a smaller --grid" if hasattr(args, "grid") else ""  # design, sweep
        hint = f"out of memory{grid}" if isinstance(exc, MemoryError) else ""
        print(f"error in {args.command}: " + "; ".join(filter(None, [str(exc), hint])),
              file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
