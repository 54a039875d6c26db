"""One workload in one process: set up, run timed operations, check them.

Started by run.py as

    python3 perfbench/workload.py WORKLOAD --seed N --seconds S --trace 0|1
        --out DIR --t0 MONOTONIC [--setup-only]

`--t0` is the parent's `time.monotonic()` just before it started this
process, so set-up time counts interpreter start and imports. With
`--setup-only` the process stops at the first timed operation and
writes DIR/setup.json; otherwise the result goes to DIR/result.json.
The program's own console output goes to this process's stdout, which
run.py sends to a log file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks as ck  # noqa: E402

COMPACT = ROOT / "scenarios" / "compact.json"
REFERENCE = ROOT / "scenarios" / "reference.json"
PRESET = "prism-mismatch"
# the shipped preset's one point: a wedge built for a 7 degree exit angle
PRESET_PARAMETER, PRESET_VALUE = "prism_design_angle", 7.0


def sweep_values(seed: int, exit_deg: float) -> list:
    """(parameter, value) for each sweep parameter, in scenario units.

    Magnitudes are drawn from ranges on which every point of the compact
    design succeeds and the paraxial checks hold (see README)."""
    rng = random.Random(seed)

    def signed(lo, hi):
        return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)

    z_offset = rng.uniform(0.5, 2.0) if rng.random() < 0.5 else -rng.uniform(0.5, 1.5)
    return [
        ("prism_design_angle", exit_deg + signed(0.25, 1.0)),
        ("source_tilt", signed(0.25, 1.0)),
        ("lateral_offset", signed(0.5, 2.0)),
        ("z_offset", z_offset),
        ("chip_wedge", signed(0.05, 0.5)),
    ]


class CompactDesign:
    """`ionoptics design compact.json --dump-field x.sfld` through cli.main."""

    def __init__(self, out: Path, seed: int):
        from ionoptics import cli

        self.cli = cli
        self.scenario = json.loads(COMPACT.read_text())
        self.report = out / "compact_design_report.json"
        self.dump = out / "compact_centre.sfld"
        self.argv = ["design", str(COMPACT), "--report", str(self.report),
                     "--dump-field", str(self.dump)]

    def run(self) -> int:
        """One operation; returns the command's exit code."""
        return self.cli.main(self.argv)

    def check(self, checks):
        from ionoptics import read_field_sfld

        report = ck.strict_load(self.report)
        sc = self.scenario
        m = sc["targets"]["magnification"]
        ions = report["crystal"]["positions_um"]
        ck.check_three_ions(checks, ions, sc["trap"])
        for got, ion in zip(report["pitch_plan"]["positions_um"], ions):
            checks.close(got, ion / m, 1e-9, "waveguide position (um)")
        pres = report["prescription"]
        ck.check_prescription(checks, pres["focal_lengths_um"], pres["lens_positions_um"],
                              sc["targets"])
        for ch in report["channels"]:
            ck.check_centroid(checks, ch["centroid_um"][0], ch["waveguide_position_um"], m,
                              f"channel {ch['channel']}")
        xt = report["crosstalk"]
        ck.check_crosstalk(checks, xt["matrix_db"], xt["contributions"], ions, sc)

        field = read_field_sfld(self.dump)
        grid = sc["grid"]
        checks.expect((field.nx, field.ny) == (grid["nx"], grid["ny"]),
                      f"dump grid {field.nx}x{field.ny} is not the scenario's")
        checks.close(field.pitch * 1e6, grid["pitch_um"], 1e-12, "dump pitch (um)")
        checks.close(field.wavelength * 1e6, sc["targets"]["wavelength_um"], 1e-12,
                     "dump wavelength (um)")
        ck.check_power_budget(checks, field.power, field.clipped_fraction)


class CompactSweep:
    """`ionoptics sweep --preset prism-mismatch` through cli.main on a
    scenario generated from compact.json: one point per sweep parameter."""

    def __init__(self, out: Path, seed: int):
        from ionoptics import cli

        self.cli = cli
        sc = json.loads(COMPACT.read_text())
        sc["name"] = "compact_sweep"
        self.values = sweep_values(seed, ck.exit_angle_deg(sc["mirror"]))
        sc["sweeps"] = [
            {"parameter": name, "lo": value, "hi": value, "steps": 1}
            for name, value in self.values
        ]
        self.scenario = sc
        path = out / "compact_sweep_scenario.json"
        path.write_text(json.dumps(sc, indent=2))
        self.report = out / "compact_sweep_report.json"
        self.table = out / "compact_sweep.csv"
        self.argv = ["sweep", str(path), "--preset", PRESET,
                     "--report", str(self.report), "--csv", str(self.table)]

    def run(self) -> int:
        """One operation; returns the command's exit code."""
        return self.cli.main(self.argv)

    def check(self, checks):
        sc = self.scenario
        m = sc["targets"]["magnification"]
        report = ck.strict_load(self.report)
        sweep = report["sweep"]
        baseline = sweep["baseline"]
        pres = report["prescription"]
        ck.check_prescription(checks, pres["focal_lengths_um"], pres["lens_positions_um"],
                              sc["targets"])
        # the worst-case channel is the outermost one, channel 0
        edge = ck.three_ion_positions_um(sc["trap"])[0] / m
        checks.close(baseline["waveguide_position_um"], edge, 1e-9 * abs(edge),
                     "sweep channel waveguide (um)")
        ck.check_centroid(checks, baseline["centroid_um"][0], edge, m, "sweep baseline")
        requested = self.values + [(PRESET_PARAMETER, PRESET_VALUE)]
        ck.check_sweep_points(checks, sweep["points"], requested, sc, baseline)
        rows = self.table.read_text().splitlines()
        checks.expect(len(rows) == 1 + len(requested),
                      f"sweep table has {len(rows) - 1} rows, not {len(requested)}")


class ReferenceCrosstalk:
    """crosstalk_matrix without channel foci on reference.json, the path of
    the crosstalk acceptance gate, built from public functions."""

    def __init__(self, out: Path, seed: int):
        import numpy as np
        import ionoptics as pkg

        self.pkg = pkg
        self.scenario = json.loads(REFERENCE.read_text())
        sc = pkg.load_scenario(str(REFERENCE))
        self.mirror, self.grid = sc.mirror, sc.grid
        self.crystal = pkg.solve_crystal(sc.trap)
        positions = pkg.pitch_plan(self.crystal, sc.targets.magnification)
        self.array = pkg.WaveguideArraySpec(
            positions_m=positions,
            mode_mfd_m=sc.mode_mfd_m,
            leakage_decay_per_m=sc.leakage_decay_per_m,
            leakage_reference=sc.leakage_reference,
        )
        self.prescription = pkg.synthesize_lens_stack(
            sc.targets,
            source_tilt=pkg.outcoupling_angle(sc.mirror).exit_angle_deg,
            chief_reach=float(np.max(np.abs(positions))),
        )
        self.result = None

    def run(self):
        self.result = self.pkg.crosstalk_matrix(
            self.prescription, self.array, self.crystal, self.mirror, grid=self.grid
        )
        return 0

    def check(self, checks):
        sc = self.scenario
        m = sc["targets"]["magnification"]
        ions = [p * 1e6 for p in self.crystal.positions_m]
        ck.check_force_balance(checks, ions, sc["trap"])
        checks.expect(len(ions) == sc["trap"]["ion_count"], "ion count")
        waveguides = [p * 1e6 for p in self.array.positions_m]
        for got, ion in zip(waveguides, ions):
            checks.close(got, ion / m, 1e-9, "waveguide position (um)")
        pres = self.prescription
        ck.check_prescription(checks, [f * 1e6 for f in pres.focal_lengths],
                              [z * 1e6 for z in pres.lens_positions], sc["targets"])
        xt = self.result
        for ch in xt.channel_focus:
            ck.check_centroid(checks, ch.centroid[0] * 1e6, waveguides[ch.channel], m,
                              f"channel {ch.channel}")
        ck.check_crosstalk(checks, xt.matrix_db.tolist(), list(xt.contributions), ions, sc)


CLASSES = {
    "compact-design": CompactDesign,
    "compact-sweep": CompactSweep,
    "reference-crosstalk": ReferenceCrosstalk,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=tuple(CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import ionoptics.cli  # noqa: F401  (the program's import is set-up time)
    from ionoptics import IonOpticsError

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = CLASSES[args.workload](args.out, args.seed)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}

    if not args.setup_only:
        first_operation_span = len(tracer.spans) if tracer else 0
        checks = ck.Checks()
        failed = 0
        walls, cpus = [], []
        # closed loop, one client: whole operations until the time is up
        while not walls or sum(walls) < args.seconds:
            cpu0, wall0 = os.times(), time.perf_counter()
            try:
                rc = workload.run()
            except IonOpticsError as exc:
                print(f"operation failed: {exc}", file=sys.stderr)
                rc = -1
            wall1, cpu1 = time.perf_counter(), os.times()
            walls.append(wall1 - wall0)
            cpus.append((cpu1.user + cpu1.system) - (cpu0.user + cpu0.system))
            if rc != 0:
                # a failed operation leaves nothing to check and its time
                # is that of an aborted run, so the run is not correct
                failed += 1
                checks.failures.append(f"operation {len(walls)} failed (exit code {rc})")
            else:
                workload.check(checks)
        result.update(
            run_s=statistics.median(walls),
            cpu_s=statistics.median(cpus),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=len(walls),
            operation_walls_s=walls,
            failed=failed,
            failures=checks.failures,
        )
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.out / "trace.json")
            result["layers"] = tracer.layer_metrics(first_operation_span, len(walls))

    name = "setup.json" if args.setup_only else "result.json"
    (args.out / name).write_text(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
