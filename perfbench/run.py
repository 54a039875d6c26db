"""Benchmark entry point for ionoptics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload runs in its own
process (perfbench/workload.py), one operation at a time. Set-up is
measured in SETUP_RUNS processes: SETUP_RUNS - 1 that stop at the first
timed operation, half of them before and half after the measured one,
plus the measured one, and `setup_s` is their median.
Outputs (reports, tables, field dumps, the trace) go to
perfbench/out/<workload>-seed<N>-trace<T>/.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics, the end-to-end ones with --trace 0 and the per-layer
ones with --trace 1. A traced run fails when a layer that the README's
table assigns to the workload records no calls.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
DEADLINE_S = 175.0

# layers that each workload must call; a later rename or a new entry
# point must not pass as a zero
COMMON_LAYERS = (
    "wavefield.find_focus", "wavefield.angular_spectrum_propagate",
    "wavefield.apply_element", "wavefield.spot_metrics",
    "wavefield.make_gaussian_field", "designer.synthesize_lens_stack",
    "scenario.load_scenario", "crystal.solve_crystal", "fft",
)
REQUIRED_LAYERS = {
    "compact-design": COMMON_LAYERS + ("wavefield.write_field_sfld", "designer.simulate_channel",
                                       "designer.crosstalk_matrix", "report.write_report"),
    "compact-sweep": COMMON_LAYERS + ("designer.tolerance_sweep", "report.write_report"),
    "reference-crosstalk": COMMON_LAYERS + ("designer.crosstalk_matrix",),
}


def spawn(args, out: Path, setup_only: bool, deadline: float) -> dict:
    """Run one workload process to its end and return its result record."""
    result_path = out / ("setup.json" if setup_only else "result.json")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    with open(out / "workload.log", "a", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], stdout=log, stderr=subprocess.STDOUT,
            cwd=ROOT, timeout=max(deadline - time.monotonic(), 1.0),
        )
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(
            f"workload process exited {proc.returncode}; see {out / 'workload.log'}"
        )
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(REQUIRED_LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("src/ionoptics/__init__.py", "scenarios/compact.json",
                           "scenarios/reference.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not an ionoptics checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        # set-up only processes on both sides of the measured one, so that
        # they sample the host as it was during the measured run
        extra = 0 if args.trace else SETUP_RUNS - 1
        setups = [spawn(args, out, True, deadline)["setup_s"] for _ in range(extra // 2)]
        record = spawn(args, out, False, deadline)
        setups.append(record["setup_s"])
        setups += [spawn(args, out, True, deadline)["setup_s"] for _ in range(extra - extra // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        layers = record["layers"]
        silent = [name for name in REQUIRED_LAYERS[args.workload]
                  if layers[f"{name}.calls"] == 0]
        if silent:
            print(f"{args.workload}: no calls recorded in {', '.join(silent)}",
                  file=sys.stderr)
            return 1
        values = dict(layers, **{"trace.run_s": record["run_s"]})
    else:
        values = {
            "run_s": record["run_s"],
            "setup_s": statistics.median(setups),
            "cpu_s": record["cpu_s"],
            "peak_rss_mb": record["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"attempted {record['attempted']}, failed {record['failed']}; outputs in {out}")
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
