"""Command-line interface: exit codes, reports, dumps, overrides."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ionoptics.report import load_schema, validate_report

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_INFEASIBLE = 4
EXIT_CONVERGENCE = 5
EXIT_PROPAGATION = 6


# README "Exit codes", per error class; OSError comes from writing an output
# and MemoryError from a grid too large for the machine
DOCUMENTED_EXIT_CODES = {
    "ScenarioError": EXIT_PARSE,
    "OSError": EXIT_PARSE,
    "InvalidInputError": EXIT_INVARIANT,
    "InvalidGeometryError": EXIT_INVARIANT,
    "NoTirError": EXIT_INVARIANT,
    "TrappedRayError": EXIT_INVARIANT,
    "SingularConfigurationError": EXIT_INVARIANT,
    "InfeasibleDesignError": EXIT_INFEASIBLE,
    "ConvergenceError": EXIT_CONVERGENCE,
    "FocusNotBracketedError": EXIT_CONVERGENCE,
    "PropagationWindowError": EXIT_PROPAGATION,
    "SamplingError": EXIT_PROPAGATION,
    "MemoryError": EXIT_PROPAGATION,
}


def run_cli(*args, outdir=None):
    import os

    env = dict(os.environ)
    if outdir is not None:
        env["IONOPTICS_OUTDIR"] = str(outdir)
    return subprocess.run(
        [sys.executable, "-m", "ionoptics", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def compact_variant(tmp_path, filename="variant.json", **changes):
    data = json.loads((SCENARIO_DIR / "compact.json").read_text())
    data["name"] = Path(filename).stem
    for key, value in changes.items():
        section = data
        parts = key.split(".")
        for part in parts[:-1]:
            section = section[part]
        if value is None:
            del section[parts[-1]]
        else:
            section[parts[-1]] = value
    path = tmp_path / filename
    path.write_text(json.dumps(data))
    return path


def error_classes(base):
    """Every subclass of `base`, at any depth."""
    for cls in base.__subclasses__():
        yield cls
        yield from error_classes(cls)


def test_every_error_class_has_its_documented_exit_code():
    from ionoptics import cli
    from ionoptics.errors import IonOpticsError

    # a new error class without a row here fails, instead of exiting 3 unnoticed
    classes = {cls.__name__: cls for cls in error_classes(IonOpticsError)}
    classes["OSError"] = OSError
    classes["MemoryError"] = MemoryError
    assert sorted(classes) == sorted(DOCUMENTED_EXIT_CODES)
    for name, code in DOCUMENTED_EXIT_CODES.items():
        assert cli._exit_code(classes[name]("x")) == code, name


def test_memory_error_exits_6_with_one_line(tmp_path, monkeypatch, capsys):
    from ionoptics import cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB")

    monkeypatch.setattr(cli, "crosstalk_matrix", out_of_memory)
    report_path = tmp_path / "r.json"
    code = cli.main(
        ["design", str(SCENARIO_DIR / "compact.json"), "--report", str(report_path)]
    )
    assert code == EXIT_PROPAGATION
    assert capsys.readouterr().err == (
        "error in design: Unable to allocate 64.0 GiB; out of memory, try a smaller --grid\n"
    )
    assert not report_path.exists()


def test_crystal_memory_error_names_no_grid(monkeypatch, capsys):
    # crystal has no --grid to suggest, and an empty message adds no segment
    from ionoptics import cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "solve_crystal", out_of_memory)
    code = cli.main(["crystal", str(SCENARIO_DIR / "compact.json")])
    assert code == EXIT_PROPAGATION
    assert capsys.readouterr().err == "error in crystal: out of memory\n"


def test_version():
    result = run_cli("version")
    assert result.returncode == 0
    assert result.stdout.strip() == "ionoptics 0.1.0"


def test_crystal_prints_positions_and_gaps(tmp_path):
    report_path = tmp_path / "crystal.json"
    result = run_cli(
        "crystal", SCENARIO_DIR / "compact.json", "--report", report_path
    )
    assert result.returncode == 0
    assert "position_um" in result.stdout
    assert "6.0791" in result.stdout
    report = json.loads(report_path.read_text())
    validate_report(report)
    assert report["command"] == "crystal"
    assert len(report["crystal"]["positions_um"]) == 3


def test_mirror_index_below_one_exits_2(tmp_path, capsys):
    from ionoptics import cli

    path = compact_variant(tmp_path, **{"mirror.n_ambient": 0.5})
    assert cli.main(["crystal", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(
        "error in crystal: invalid scenario at mirror/n_ambient: "
    )


@pytest.mark.parametrize(
    "change, stiffness",
    [({"trap.ion_mass_amu": 1e-300}, "0.000e+00"), ({"trap.axial_frequency_hz": 1e200}, "inf")],
)
def test_trap_outside_float_range_exits_3(tmp_path, capsys, change, stiffness):
    from ionoptics import cli

    path = compact_variant(tmp_path, **change)
    assert cli.main(["crystal", str(path)]) == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "error in crystal: trap gives no finite, positive Coulomb length scale: "
        f"m w^2 = {stiffness} kg/s^2, l = 0.000e+00 m\n"
    )


@pytest.mark.parametrize(
    "change",
    [
        {"array.leakage_reference.db": 5000},
        {"array.leakage_reference.pitch_um": 1e300},
        # the decay rate per metre is inf: the array is rejected when it is built
        {"array.leakage_decay_per_um": 1e303, "array.leakage_reference.pitch_um": 20.0},
    ],
)
def test_crosstalk_power_overflow_exits_3_with_one_line(tmp_path, capsys, change):
    from ionoptics import cli

    path = compact_variant(tmp_path, **change)
    report_path = tmp_path / "r.json"
    assert cli.main(["design", str(path), "--report", str(report_path)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    if "array.leakage_decay_per_um" in change:
        assert err == "error in design: leakage_decay_per_m must be positive and finite, got inf\n"
    else:
        # the first pair is ion 0 lit by channel 2, with channel 1's leakage
        assert err.startswith("error in design: channels 2 and 1: the crosstalk power sum of ")
        assert err.endswith(" dB leakage is not finite\n")
    assert err.count("\n") == 1
    assert not report_path.exists()


def test_missing_scenario_file_exits_2(tmp_path):
    result = run_cli("crystal", tmp_path / "absent.json")
    assert result.returncode == EXIT_PARSE
    assert "error in crystal" in result.stderr
    assert "not found" in result.stderr


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_scenario_exits_2(tmp_path, kind):
    path = tmp_path / "scenario.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"name": "\xff"}')
    result = run_cli("crystal", path)
    assert result.returncode == EXIT_PARSE
    assert "cannot read scenario" in result.stderr
    assert "Traceback" not in result.stderr


def test_bad_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "broken",')
    result = run_cli("crystal", path)
    assert result.returncode == EXIT_PARSE
    assert "line" in result.stderr


def test_unknown_key_exits_2(tmp_path):
    path = compact_variant(tmp_path, lens_count=4)
    result = run_cli("crystal", path)
    assert result.returncode == EXIT_PARSE
    assert "lens_count" in result.stderr


def test_infeasible_design_exits_4(tmp_path):
    path = compact_variant(tmp_path, **{"targets.max_stack_height_um": 60.0})
    result = run_cli("design", path, outdir=tmp_path)
    assert result.returncode == EXIT_INFEASIBLE
    assert "max_stack_height" in result.stderr


def test_coarse_grid_exits_6(tmp_path):
    result = run_cli(
        "design",
        SCENARIO_DIR / "compact.json",
        "--grid",
        "256,256,1.2",
        outdir=tmp_path,
    )
    assert result.returncode == EXIT_PROPAGATION
    assert "pitch" in result.stderr


def test_unbracketed_focus_exits_5(tmp_path):
    path = compact_variant(
        tmp_path, z_search_um={"lo": 380.0, "hi": 420.0, "steps": 16}
    )
    result = run_cli("design", path, outdir=tmp_path)
    assert result.returncode == EXIT_CONVERGENCE


def test_malformed_grid_exits_2(tmp_path):
    result = run_cli(
        "design", SCENARIO_DIR / "compact.json", "--grid", "512x512", outdir=tmp_path
    )
    assert result.returncode == EXIT_PARSE


@pytest.mark.parametrize("grid", ["100,100,0.2", "128,128,-0.2"])
def test_invalid_grid_exits_2_before_synthesis(tmp_path, grid):
    result = run_cli(
        "design", SCENARIO_DIR / "compact.json", "--grid", grid, outdir=tmp_path
    )
    assert result.returncode == EXIT_PARSE
    assert "--grid" in result.stderr
    assert "channel" not in result.stderr
    assert not list(tmp_path.glob("*.json"))


def test_scenario_grid_not_power_of_two_exits_2(tmp_path):
    path = compact_variant(tmp_path, **{"grid.nx": 1000})
    result = run_cli("design", path, outdir=tmp_path)
    assert result.returncode == EXIT_PARSE
    assert "invalid scenario at grid" in result.stderr
    assert not list(tmp_path.glob("*_design_report.json"))


def test_oversized_grid_rejected_by_the_grid_parser():
    from ionoptics import cli

    with pytest.raises(argparse.ArgumentTypeError, match="MiB"):
        cli._parse_grid("8192,8192,0.2")


def test_crystal_report_in_missing_directory_exits_2(tmp_path):
    report_path = tmp_path / "missing" / "crystal.json"
    result = run_cli("crystal", SCENARIO_DIR / "compact.json", "--report", report_path)
    assert result.returncode == EXIT_PARSE
    assert "error in crystal" in result.stderr
    assert "Traceback" not in result.stderr
    # the check runs before the crystal is solved and printed
    assert "position_um" not in result.stdout


def test_design_output_in_missing_directory_exits_2_before_synthesis(
    tmp_path, monkeypatch, capsys
):
    from ionoptics import cli

    def no_synthesis(*args, **kwargs):
        raise AssertionError("the pipeline ran before the output directory was checked")

    monkeypatch.setattr(cli, "synthesize_lens_stack", no_synthesis)
    report_path = tmp_path / "missing" / "r.json"
    code = cli.main(
        ["design", str(SCENARIO_DIR / "compact.json"), "--report", str(report_path)]
    )
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error in design: ")


def test_empty_z_search_window_exits_2_before_synthesis(tmp_path, monkeypatch, capsys):
    from ionoptics import cli

    def no_synthesis(*args, **kwargs):
        raise AssertionError("the pipeline ran before the z_search window was checked")

    monkeypatch.setattr(cli, "synthesize_lens_stack", no_synthesis)
    path = compact_variant(tmp_path, z_search_um={"lo": 400, "hi": 300, "steps": 33})
    report_path = tmp_path / "r.json"
    code = cli.main(["design", str(path), "--report", str(report_path)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error in design: invalid scenario at z_search_um: lo must be below hi\n"
    )
    assert not report_path.exists()


def test_z_search_steps_too_fine_to_move_z_exits_3_with_one_line(tmp_path, capsys, recwarn):
    from ionoptics import cli

    # the refining step 2 (hi - lo) / (steps - 1) is far below one ulp of z
    path = compact_variant(tmp_path, z_search_um={"lo": 250, "hi": 500, "steps": 2**62})
    report_path = tmp_path / "r.json"
    assert cli.main(["design", str(path), "--report", str(report_path)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("error in design: channel 1: z_search steps 4611686018427387904 ")
    assert err.count("\n") == 1
    assert not [w for w in recwarn if "RankWarning" in type(w.message).__name__]
    assert not report_path.exists()


def outputs_naming_one_file_exit_2(monkeypatch, capsys, argv, first, second):
    """Run argv with synthesis forbidden; it must exit 2 naming both paths."""
    from ionoptics import cli

    def no_synthesis(*args, **kwargs):
        raise AssertionError("the pipeline ran before the outputs were checked")

    monkeypatch.setattr(cli, "synthesize_lens_stack", no_synthesis)
    assert cli.main(argv) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error in {argv[0]}: outputs {first!r} and {second!r} name the same file\n"
    )


def test_design_report_and_dump_naming_one_file_exit_2(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "p.csv")
    argv = ["design", str(SCENARIO_DIR / "compact.json"), "--report", path, "--dump-field", path]
    outputs_naming_one_file_exit_2(monkeypatch, capsys, argv, path, path)
    assert not Path(path).exists()


def test_sweep_report_and_csv_naming_one_file_exit_2(tmp_path, monkeypatch, capsys):
    # two spellings of one path
    report, table = str(tmp_path / "q"), f"{tmp_path}/./q"
    argv = ["sweep", str(SCENARIO_DIR / "compact.json"), "--report", report, "--csv", table]
    outputs_naming_one_file_exit_2(monkeypatch, capsys, argv, report, table)
    assert not Path(report).exists()


def output_naming_a_directory_exits_2(monkeypatch, capsys, argv, path):
    """Run argv with the crystal solve and synthesis forbidden; it must exit
    2 naming the output path as a directory."""
    from ionoptics import cli

    def no_work(*args, **kwargs):
        raise AssertionError("the pipeline ran before the outputs were checked")

    monkeypatch.setattr(cli, "solve_crystal", no_work)
    monkeypatch.setattr(cli, "synthesize_lens_stack", no_work)
    assert cli.main(argv) == EXIT_PARSE
    assert capsys.readouterr().err == f"error in {argv[0]}: output {path!r} names a directory\n"


def test_design_report_naming_a_directory_exits_2(tmp_path, monkeypatch, capsys):
    path = str(tmp_path)
    argv = ["design", str(SCENARIO_DIR / "compact.json"), "--report", path]
    output_naming_a_directory_exits_2(monkeypatch, capsys, argv, path)


def test_design_dump_naming_a_directory_exits_2(tmp_path, monkeypatch, capsys):
    (tmp_path / "focus.sfld").mkdir()
    path = str(tmp_path / "focus.sfld")
    argv = ["design", str(SCENARIO_DIR / "compact.json"),
            "--report", str(tmp_path / "r.json"), "--dump-field", path]
    output_naming_a_directory_exits_2(monkeypatch, capsys, argv, path)
    assert not (tmp_path / "r.json").exists()


def test_sweep_csv_naming_a_directory_exits_2(tmp_path, monkeypatch, capsys):
    # a trailing separator names a directory even where none exists
    path = str(tmp_path / "tables") + os.sep
    argv = ["sweep", str(SCENARIO_DIR / "compact.json"),
            "--report", str(tmp_path / "s.json"), "--csv", path]
    output_naming_a_directory_exits_2(monkeypatch, capsys, argv, path)
    assert not (tmp_path / "s.json").exists()


def test_design_report_and_csv_dump(tmp_path):
    report_path = tmp_path / "design.json"
    dump_path = tmp_path / "focus.csv"
    result = run_cli(
        "design",
        SCENARIO_DIR / "compact.json",
        "--report",
        report_path,
        "--dump-field",
        dump_path,
        outdir=tmp_path,
    )
    assert result.returncode == 0
    assert "lens stack" in result.stdout
    report = json.loads(report_path.read_text())
    validate_report(report)
    assert report["command"] == "design"
    assert len(report["channels"]) == 3
    assert report["crosstalk"]["worst_nearest_neighbor_total_db"] < -25.0
    header = dump_path.read_text().splitlines()[0]
    assert header == "x_m,y_m,re,im,intensity"


def test_dump_field_unknown_extension_exits_2(tmp_path):
    result = run_cli(
        "design",
        SCENARIO_DIR / "compact.json",
        "--dump-field",
        tmp_path / "focus.txt",
        outdir=tmp_path,
    )
    assert result.returncode == EXIT_PARSE
    assert "dump" in result.stderr.lower() or ".txt" in result.stderr
    # the suffix is checked before any design work
    assert not list(tmp_path.glob("*_design_report.json"))
    assert result.stderr.startswith("error in design: ")


def test_sweep_needs_work_exits_2(tmp_path):
    path = compact_variant(tmp_path, sweeps=None)
    result = run_cli("sweep", path, outdir=tmp_path)
    assert result.returncode == EXIT_PARSE
    assert "prism-mismatch" in result.stderr


def test_sweep_unknown_preset_exits_2(tmp_path):
    path = compact_variant(tmp_path, sweeps=None)
    result = run_cli("sweep", path, "--preset", "bogus", outdir=tmp_path)
    assert result.returncode == EXIT_PARSE
    assert "prism-mismatch" in result.stderr


def test_sweep_unknown_preset_exits_2_before_synthesis(tmp_path, monkeypatch, capsys):
    from ionoptics import cli

    def no_synthesis(*args, **kwargs):
        raise AssertionError("the pipeline ran before the preset was checked")

    monkeypatch.setattr(cli, "synthesize_lens_stack", no_synthesis)
    path = compact_variant(tmp_path, sweeps=None)
    code = cli.main(
        ["sweep", str(path), "--preset", "bogus",
         "--report", str(tmp_path / "s.json"), "--csv", str(tmp_path / "s.csv")]
    )
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error in sweep: unknown preset 'bogus'")


@pytest.mark.parametrize(
    "changes, flags",
    [
        ({"sweeps": [{"parameter": "bogus", "lo": 0.0, "hi": 1.0, "steps": 2}]}, []),
        ({"sweeps": [{"parameter": "source_tilt", "lo": 0.0, "hi": 1.0, "steps": 0}]}, []),
        ({"sweeps": None}, ["--param", "bogus:0:1:2"]),
        ({"sweeps": None}, ["--param", "source_tilt:0:1:0"]),
        ({"sweeps": None}, ["--preset", "bogus"]),
        ({"sweeps": None}, []),
        ({"sweeps": [{"parameter": "z_offset", "lo": 0.0, "hi": 1.0, "steps": 1e300}]}, []),
        ({"sweeps": None}, ["--param", "z_offset:0:1:10000000000000000000000"]),
        ({"sweeps": None}, ["--param", "source_tilt:1e308:-1e308:3"]),
        ({"sweeps": [{"parameter": "z_offset", "lo": 1e308, "hi": 1e308, "steps": 1}]}, []),
    ],
    ids=["row-parameter", "row-steps", "param-name", "param-steps", "preset", "no-rows",
         "row-steps-over-limit", "param-steps-over-limit", "param-span-overflows",
         "row-midpoint-overflows"],
)
def test_bad_sweep_request_exits_2_before_synthesis(
    tmp_path, monkeypatch, capsys, changes, flags
):
    # every source of sweep rows is checked before the pipeline starts
    from ionoptics import cli

    def no_synthesis(*args, **kwargs):
        raise AssertionError("the pipeline ran before the sweep request was checked")

    monkeypatch.setattr(cli, "synthesize_lens_stack", no_synthesis)
    path = compact_variant(tmp_path, **changes)
    report, table = tmp_path / "s.json", tmp_path / "s.csv"
    code = cli.main(
        ["sweep", str(path), *flags, "--report", str(report), "--csv", str(table)]
    )
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.startswith("error in sweep: ") and err.count("\n") == 1
    assert not report.exists() and not table.exists()


def test_sweep_stack_below_chip_exits_3_without_output(tmp_path):
    path = compact_variant(tmp_path, sweeps=None)
    result = run_cli("sweep", path, "--param", "z_offset:-3:1:2", outdir=tmp_path)
    assert result.returncode == EXIT_INVARIANT
    assert "sweep point z_offset=-3 um failed: " in result.stderr
    assert "pushes the stack below the chip plane" in result.stderr
    assert not list(tmp_path.glob("variant_sweep*"))


def test_sweep_param_writes_single_row_csv(tmp_path):
    # angles stay degrees; offsets are micrometres on the command line and
    # in the report, which echoes the requested value exactly
    for param, value, unit in (
        ("source_tilt:0:0:1", 0.0, "deg"), ("lateral_offset:0.97:0.97:1", 0.97, "um")
    ):
        outdir = tmp_path / unit
        outdir.mkdir()
        path = compact_variant(outdir, sweeps=None)
        result = run_cli("sweep", path, "--param", param, outdir=outdir)
        assert result.returncode == 0
        with open(outdir / "variant_sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["parameter", "value", "value_unit", "z_focus_um"]
        assert len(rows[0]) == 17
        assert len(rows) == 2
        assert rows[1][0] == param.split(":")[0]
        assert float(rows[1][1]) == pytest.approx(value, abs=1e-12)
        assert rows[1][2] == unit
        report = json.loads((outdir / "variant_sweep_report.json").read_text())
        validate_report(report)
        assert len(report["sweep"]["points"]) == 1
        point = report["sweep"]["points"][0]
        assert point["value"] == value
        assert point["value_unit"] == unit


def test_sweep_unknown_param_exits_2_before_synthesis(tmp_path):
    path = compact_variant(tmp_path, sweeps=None)
    result = run_cli("sweep", path, "--param", "bogus:0:1:2", outdir=tmp_path)
    assert result.returncode == EXIT_PARSE
    assert "'bogus'" in result.stderr
    for name in (
        "prism_design_angle", "source_tilt", "lateral_offset", "z_offset", "chip_wedge"
    ):
        assert name in result.stderr
    assert not list(tmp_path.glob("variant_sweep*"))


def test_far_lateral_offset_exits_3_with_one_line(tmp_path):
    # the source's span of rows and columns overflows; no NumPy warning is printed
    path = compact_variant(tmp_path, sweeps=None)
    result = run_cli("sweep", path, "--param", "lateral_offset:1e160:1e160:1", outdir=tmp_path)
    assert result.returncode == EXIT_INVARIANT
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error in sweep: sweep point lateral_offset=1e+160 um failed: ")
    assert result.stderr.endswith("carries no power inside the sampled window\n")


def test_malformed_param_exits_2(tmp_path):
    path = compact_variant(tmp_path, sweeps=None)
    for param in (
        "source_tilt:0:1",
        "source_tilt:0:1:0",
        "source_tilt:nan:nan:1",
        "source_tilt:0:inf:2",
    ):
        result = run_cli("sweep", path, "--param", param, outdir=tmp_path)
        assert result.returncode == EXIT_PARSE, param
        assert "name:lo:hi:steps" in result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "command, change",
    [
        (
            "sweep",
            {"sweeps": [{"parameter": "source_tilt", "lo": float("nan"), "hi": 1.0, "steps": 3}]},
        ),
        ("design", {"array.leakage_reference.db": float("nan")}),
    ],
    ids=["sweep-lo", "leakage-db"],
)
def test_non_finite_scenario_number_exits_2(tmp_path, command, change):
    path = compact_variant(tmp_path, **change)
    assert "NaN" in path.read_text()
    result = run_cli(command, path, outdir=tmp_path)
    assert result.returncode == EXIT_PARSE
    assert "finite" in result.stderr
    assert "Traceback" not in result.stderr
    assert not list(tmp_path.glob("variant_*"))


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e400", "array"])
def test_a_scenario_file_fails_as_its_dict_does(tmp_path, literal):
    # one check path: the file's message is the dict's, naming the JSON path
    from ionoptics import ScenarioError, load_scenario, parse_scenario

    data = json.loads((SCENARIO_DIR / "compact.json").read_text())
    data["targets"]["image_distance_um"] = "LITERAL"
    text = "[1, 2, 3]" if literal == "array" else json.dumps(data).replace('"LITERAL"', literal)
    path = tmp_path / "variant.json"
    path.write_text(text)
    with pytest.raises(ScenarioError) as from_file:
        load_scenario(path)
    with pytest.raises(ScenarioError) as from_dict:
        parse_scenario(json.loads(text))
    message = str(from_file.value)
    assert message == str(from_dict.value)
    if literal != "array":
        assert message.startswith(
            "invalid scenario at targets/image_distance_um: numbers must be finite, got "
        )
    result = run_cli("design", path, outdir=tmp_path)
    assert result.returncode == EXIT_PARSE
    assert result.stderr == f"error in design: {message}\n"
    assert not list(tmp_path.glob("variant_*"))


def numeric_leaves(node, path=()):
    """The path of every number in a decoded JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [leaf for key, child in children for leaf in numeric_leaves(child, (*path, key))]


COMPACT_LEAVES = numeric_leaves(json.loads((SCENARIO_DIR / "compact.json").read_text()))


class FocusReached(Exception):
    """Raised in place of the first focus search."""


@pytest.mark.parametrize("leaf", COMPACT_LEAVES, ids=lambda leaf: "/".join(map(str, leaf)))
def test_an_outsized_number_fails_as_a_toolkit_error(tmp_path, monkeypatch, leaf):
    # 1e300 in any one number of compact.json: loading, the pipeline's front
    # half and the sweep's build (every point's system is built before the
    # first focus search) reach the first focus search or raise a toolkit
    # error, never a bare ValueError or OverflowError
    from ionoptics import IonOpticsError, cli, designer, load_scenario

    data = json.loads((SCENARIO_DIR / "compact.json").read_text())
    section = data
    for key in leaf[:-1]:
        section = section[key]
    section[leaf[-1]] = 1e300
    path = tmp_path / "outsized.json"
    path.write_text(json.dumps(data))

    def focus_reached(*args):
        raise FocusReached

    monkeypatch.setattr(designer, "find_focus", focus_reached)
    try:
        scenario = load_scenario(path)
        _, array, _, prescription, grid = cli._build_pipeline(scenario)
        designer.tolerance_sweep(
            prescription, array, scenario.mirror, scenario.sweeps,
            grid=grid, z_search=scenario.z_search,
        )
    except (FocusReached, IonOpticsError, MemoryError):
        pass


def test_sweep_csv_columns_match_docs():
    from ionoptics.cli import SWEEP_CSV

    docs = (SCENARIO_DIR.parent / "docs" / "REPORTS.md").read_text()
    section = docs.split("\n## Sweep CSV\n", 1)[1]
    fenced = section.split("```\n", 2)[1]
    documented = [name.strip() for name in fenced.replace("\n", " ").split(",")]
    assert documented == [column for column, _, _ in SWEEP_CSV]


def test_reports_validate_against_packaged_schema(tmp_path):
    # jsonschema must accept each packaged schema itself; the program
    # builds its validators without this check
    import jsonschema

    for name in ("report", "scenario"):
        schema = load_schema(name)
        assert jsonschema.validators.validator_for(schema) is jsonschema.Draft202012Validator
        jsonschema.Draft202012Validator.check_schema(schema)


def test_design_propagates_each_channel_once(tmp_path, monkeypatch, fft_calls):
    from ionoptics import cli, designer, wavefield

    sources, steps = [], []
    profiles = wavefield._gaussian_profiles
    propagate = wavefield.angular_spectrum_propagate

    def counted_source(*args, **kwargs):
        sources.append(1)
        return profiles(*args, **kwargs)

    def counted_step(field, distance):
        steps.append(distance)
        return propagate(field, distance)

    # every column scan, and whether the synthesis probe made it
    scans, probing = [], []
    nonzero_columns, wave_verify = wavefield._nonzero_columns, designer._wave_verify

    def counted_scan(samples):
        scans.append(bool(probing))
        return nonzero_columns(samples)

    def marked_probe(*args):
        probing.append(1)
        try:
            return wave_verify(*args)
        finally:
            probing.pop()

    monkeypatch.setattr(wavefield, "_gaussian_profiles", counted_source)
    monkeypatch.setattr(wavefield, "angular_spectrum_propagate", counted_step)
    monkeypatch.setattr(designer, "angular_spectrum_propagate", counted_step)
    monkeypatch.setattr(wavefield, "_nonzero_columns", counted_scan)
    monkeypatch.setattr(designer, "_wave_verify", marked_probe)
    dump = tmp_path / "centre.sfld"
    code = cli.main(
        ["design", str(SCENARIO_DIR / "compact.json"),
         "--report", str(tmp_path / "design.json"), "--dump-field", str(dump)]
    )
    assert code == 0
    assert dump.stat().st_size > 0
    # the synthesis probe, the centre channel and one source per mirror pair
    assert len(sources) == 3
    # only the probe's steps end at a lens
    assert steps and 0.0 not in steps
    # the probe's two steps, its two lenses and its scan planes scan the
    # probe's whole fields; past each search's apertures the box names the
    # columns, so no channel search scans
    assert scans == [True] * 5
    assert fft_calls.forms == {
        # the probe's three spectra, and in each of the two channel searches
        # the spectra past its two lenses (on the aperture's box columns):
        # none of a source or past a wedge
        ("fft", "2-d", False): 7,
        # each channel source enters as one pass of a row and one of a column
        ("fft", "axis 1", True): 2,
        ("fft", "axis 0", True): 2,
        # a wedge acts between axis-0 passes on the band's column blocks
        ("ifft", "axis 0", False): 2,
        ("fft", "axis 0", False): 2,
        # the x marginal past each wedge, and each search's three planes
        # read for their x variance only: the axis-1 pass on the band's rows
        ("ifft", "axis 1", False): 8,
        # each aperture plane: its axis-1 pass on the opening's rows
        ("ifft", "some rows", False): 4,
        # the probe's 2 steps, each search's focus plane and the off-centre
        # channel's shared plane, reached from the spectrum of its own search
        ("ifft", "2-d", False): 5,
        # the probe's 13 scan planes, each read as its row y = 0 alone
        ("ifft", "axis 1", True): 13,
        # the two covariances of the guard
        ("ifft", "whole", False): 2,
    }
    # every inverse but the two covariances runs on part of the grid
    assert [pruned for inverse, pruned in fft_calls if inverse].count(False) == 2
    # and every forward one but the probe's two past its lenses, whose
    # fields span the grid: the four past the searches' lenses run on the
    # field's nonzero columns
    assert [pruned for inverse, pruned in fft_calls if not inverse].count(False) == 2


def peak_grids(argv):
    """(exit code, tracemalloc peak in complex grids of compact.json) of
    cli.main(argv)."""
    import tracemalloc

    from ionoptics import cli, load_scenario

    nx, ny, _ = load_scenario(str(SCENARIO_DIR / "compact.json")).grid
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak / (nx * ny * 16)


def test_compact_design_peaks_under_four_grids(tmp_path):
    # live complex grids at the peak, inside _transfer during an
    # off-centre channel's search: the centre channel's field, the exit
    # planes' spectrum and their copy of the aperture's box (about 0.2 of
    # a grid), and the plane being built. Keeping the whole exit field
    # beside its spectrum, or one more grid held across a search, such as
    # find_focus keeping its source or crosstalk_matrix keeping a
    # channel's planes into the next search, crosses the bound
    code, peak = peak_grids(
        ["design", str(SCENARIO_DIR / "compact.json"), "--report", str(tmp_path / "design.json"),
         "--dump-field", str(tmp_path / "centre.sfld")]
    )
    assert code == 0
    assert peak <= 4.0


def test_compact_sweep_peaks_under_two_and_three_quarter_grids(tmp_path):
    # a sweep holds no centre field: the exit planes' spectrum and box
    # copy, and the plane being built. Keeping the whole exit field beside
    # its spectrum crosses the bound
    code, peak = peak_grids(
        ["sweep", str(SCENARIO_DIR / "compact.json"), "--preset", "prism-mismatch",
         "--report", str(tmp_path / "sweep.json"), "--csv", str(tmp_path / "sweep.csv")]
    )
    assert code == 0
    assert peak <= 2.75


def test_design_without_mirror_symmetry_propagates_every_channel(tmp_path, monkeypatch):
    from ionoptics import cli, load_scenario, simulate_channel, wavefield

    sources, reports = [], []
    profiles = wavefield._gaussian_profiles
    plan = cli.pitch_plan
    crosstalk = cli.crosstalk_matrix

    def counted_source(*args, **kwargs):
        sources.append(1)
        return profiles(*args, **kwargs)

    def kept_crosstalk(*args, **kwargs):
        reports.append(crosstalk(*args, **kwargs))
        return reports[-1]

    # the synthesis probe's field and every channel's planes take the profiles
    monkeypatch.setattr(wavefield, "_gaussian_profiles", counted_source)
    # every waveguide 0.3 um off its mirror-symmetric place
    monkeypatch.setattr(cli, "pitch_plan", lambda *args: plan(*args) + 0.3e-6)
    monkeypatch.setattr(cli, "crosstalk_matrix", kept_crosstalk)
    scenario = SCENARIO_DIR / "compact.json"
    code = cli.main(["design", str(scenario), "--report", str(tmp_path / "design.json")])
    assert code == 0
    # the synthesis probe plus one source per channel
    assert len(sources) == 4
    report = reports[0]
    assert report.mirror_of == (None, None, None)
    loaded = load_scenario(str(scenario))
    _, array, _, prescription, grid = cli._build_pipeline(loaded)
    for channel, record in enumerate(report.channel_focus):
        assert record == simulate_channel(
            prescription, array, channel, loaded.mirror, grid=grid, z_search=loaded.z_search
        )
