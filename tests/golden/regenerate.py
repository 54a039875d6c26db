"""Golden outputs: the compact `design` and `sweep` outputs and the
reference design sections, with the `run` block dropped.

tests/test_golden.py compares the program's outputs with the files here.
A change that bumps report_schema_version rewrites them with

    PYTHONPATH=src python tests/golden/regenerate.py

and the diff of the files shows what moved. The files are:
- compact_design.json: the `design` report of scenarios/compact.json;
- compact_design_field.json: header and intensity moments of that run's
  .sfld dump (the dump itself is 8 MiB, its CSV form 82 MiB);
- compact_sweep.json and compact_sweep.csv: `sweep --preset prism-mismatch`
  on compact.json without its own sweep rows, with one --param per sweep
  parameter;
- reference_sections.json: the sections `design` writes for
  scenarios/reference.json, built by report.py's section builders from the
  pipeline and crosstalk pass of the tests' session fixtures.
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from ionoptics import cli, crosstalk_matrix, load_scenario, read_field_sfld
from ionoptics.constants import UM
from ionoptics.report import (
    channel_section,
    crosstalk_section,
    crystal_section,
    mirror_section,
    pitch_plan_section,
    prescription_section,
    to_plain,
)

GOLDEN_DIR = Path(__file__).resolve().parent
ROOT = GOLDEN_DIR.parents[1]
COMPACT = ROOT / "scenarios" / "compact.json"
SWEEP_PARAMS = (
    "prism_design_angle:20:20:1",
    "source_tilt:0.5:0.5:1",
    "lateral_offset:0.3:0.3:1",
    "z_offset:1:1:1",
    "chip_wedge:0.2:0.2:1",
)


def _report(path) -> dict:
    report = json.loads(Path(path).read_text())
    del report["run"]
    return report


def field_summary(path) -> dict:
    """The grid, power, centroid and second moments (xx, yy, xy) of the
    intensity of an .sfld dump, in micrometres."""
    field = read_field_sfld(path)
    intensity = np.abs(field.samples) ** 2
    total = float(intensity.sum())
    ix, iy = intensity.sum(axis=0), intensity.sum(axis=1)
    cx, cy = float(ix @ field.x) / total, float(iy @ field.y) / total
    dx, dy = field.x - cx, field.y - cy
    return {
        "nx": field.nx,
        "ny": field.ny,
        "pitch_um": field.pitch / UM,
        "wavelength_um": field.wavelength / UM,
        "clipped_fraction": field.clipped_fraction,
        "power": field.power,
        "centroid_um": [cx / UM, cy / UM],
        "second_moments_um2": [float(ix @ dx**2) / total / UM**2,
                               float(iy @ dy**2) / total / UM**2,
                               float(dy @ intensity @ dx) / total / UM**2],
    }


def compact_outputs(workdir: Path) -> dict:
    """Run compact `design --dump-field` and the golden `sweep` in this
    process, in `workdir`; file name -> JSON document or CSV rows."""
    design, dump = workdir / "design.json", workdir / "field.sfld"
    assert cli.main(["design", str(COMPACT), "--report", str(design),
                     "--dump-field", str(dump)]) == 0
    scenario = json.loads(COMPACT.read_text())
    del scenario["sweeps"]
    sweep_scenario = workdir / "compact.json"
    sweep_scenario.write_text(json.dumps(scenario))
    sweep, table = workdir / "sweep.json", workdir / "sweep.csv"
    params = [arg for param in SWEEP_PARAMS for arg in ("--param", param)]
    assert cli.main(["sweep", str(sweep_scenario), "--preset", "prism-mismatch", *params,
                     "--report", str(sweep), "--csv", str(table)]) == 0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    return {
        "compact_design.json": _report(design),
        "compact_design_field.json": field_summary(dump),
        "compact_sweep.json": _report(sweep),
        "compact_sweep.csv": rows,
    }


def reference_sections(pipe: dict, crosstalk) -> dict:
    """The sections `design` writes, as plain JSON types, from a pipeline
    dict as conftest's build_pipeline returns it and its CrosstalkReport."""
    return to_plain({
        "crystal": crystal_section(pipe["crystal"]),
        "mirror": mirror_section(pipe["scenario"].mirror, pipe["outcoupling"]),
        "pitch_plan": pitch_plan_section(pipe["array"].positions_m),
        "prescription": prescription_section(pipe["prescription"]),
        "channels": [channel_section(c) for c in crosstalk.channel_focus],
        "crosstalk": crosstalk_section(crosstalk),
    })


def main() -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import SCENARIO_DIR, build_pipeline

    with tempfile.TemporaryDirectory() as tmp:
        outputs = compact_outputs(Path(tmp))
    # the reference_pipeline and reference_crosstalk fixtures
    pipe = build_pipeline(load_scenario(str(SCENARIO_DIR / "reference.json")))
    report = crosstalk_matrix(pipe["prescription"], pipe["array"], pipe["crystal"],
                              pipe["scenario"].mirror, grid=pipe["scenario"].grid)
    outputs["reference_sections.json"] = reference_sections(pipe, report)
    for name, document in outputs.items():
        path = GOLDEN_DIR / name
        if name.endswith(".csv"):
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(document)
        else:
            path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
