"""Scenario files: schema validation, units, defaults."""

import copy
import json

import pytest

from ionoptics import ScenarioError, load_scenario, parse_scenario

MINIMAL = {
    "name": "minimal",
    "trap": {
        "ion_mass_amu": 39.9626,
        "axial_frequency_hz": 700e3,
        "ion_count": 3,
    },
    "targets": {
        "magnification": 0.6,
        "numerical_aperture": 0.19,
        "image_distance_um": 180.0,
        "source_mfd_um": [2.45, 5.2],
        "wavelength_um": 0.729,
        "max_stack_height_um": 400.0,
        "aperture_budget_um": 130.0,
    },
    "mirror": {"facet_angle_deg": 52.0, "n_effective": 1.466},
    "grid": {"nx": 256, "ny": 256, "pitch_um": 0.25},
}


def variant(**overrides):
    data = copy.deepcopy(MINIMAL)
    data.update(overrides)
    return data


def test_minimal_scenario_defaults():
    s = parse_scenario(copy.deepcopy(MINIMAL))
    assert s.name == "minimal"
    assert s.trap.ion_charge == 1
    assert s.mirror.n_ambient == 1.0
    assert s.mirror.n_exit == 1.0
    # the waveguide mode defaults to the design source mode
    assert s.mode_mfd_m == pytest.approx((2.45e-6, 5.2e-6))
    assert s.leakage_decay_per_m == pytest.approx(1.0e6)
    assert s.leakage_reference == pytest.approx((5e-6, -30.0))
    assert s.sweeps == ()
    assert s.z_search is None


def test_units_converted_to_metres():
    s = parse_scenario(copy.deepcopy(MINIMAL))
    assert s.targets.image_distance == pytest.approx(180e-6)
    assert s.targets.wavelength == pytest.approx(0.729e-6)
    assert s.targets.source_mfd == pytest.approx((2.45e-6, 5.2e-6))
    assert s.targets.max_stack_height == pytest.approx(400e-6)
    assert s.grid == (256, 256, pytest.approx(0.25e-6))


def test_unknown_key_rejected_with_name():
    bad = variant(prism_count=3)
    with pytest.raises(ScenarioError, match="prism_count"):
        parse_scenario(bad)


def test_nested_unknown_key_names_path():
    bad = copy.deepcopy(MINIMAL)
    bad["targets"]["focal_length_um"] = 120.0
    with pytest.raises(ScenarioError, match="targets"):
        parse_scenario(bad)


def test_missing_required_section():
    bad = copy.deepcopy(MINIMAL)
    del bad["mirror"]
    with pytest.raises(ScenarioError, match="mirror"):
        parse_scenario(bad)


def test_out_of_range_value():
    bad = copy.deepcopy(MINIMAL)
    bad["targets"]["numerical_aperture"] = 1.4
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


def test_sweep_rows_keep_the_file_units():
    # offsets stay micrometres and angles degrees, as every sweep row is
    rows = [
        {"parameter": "lateral_offset", "lo": -0.5, "hi": 0.5, "steps": 3},
        {"parameter": "source_tilt", "lo": -1.0, "hi": 1.0, "steps": 3},
    ]
    data = variant(sweeps=rows)
    s = parse_scenario(data)
    assert list(s.sweeps) == rows
    # copies: the file's rows are echoed into every report through `raw`
    s.sweeps[0]["lo"] = 7.0
    assert s.raw["sweeps"] == rows


def test_unknown_sweep_parameter_rejected():
    data = variant(
        sweeps=[{"parameter": "coffee_intake", "lo": 0.0, "hi": 1.0, "steps": 2}]
    )
    with pytest.raises(ScenarioError):
        parse_scenario(data)


@pytest.mark.parametrize(
    "grid", [{"nx": 1000, "ny": 256, "pitch_um": 0.25}, {"nx": 256, "ny": 96, "pitch_um": 0.25}]
)
def test_grid_must_be_powers_of_two(grid):
    with pytest.raises(ScenarioError, match="grid.*powers of two"):
        parse_scenario(variant(grid=grid))


def test_sweep_parameter_enum_matches_designer_table():
    from ionoptics.designer import SWEEP_PARAMETERS
    from ionoptics.report import load_schema

    sweep_row = load_schema("scenario")["properties"]["sweeps"]["items"]
    assert sweep_row["properties"]["parameter"]["enum"] == list(SWEEP_PARAMETERS)


def test_report_value_units_match_designer_table():
    # a sweep point's value_unit is its parameter's unit, and _sweep_systems
    # scales exactly two units: um to metres, deg as it is
    from ionoptics.designer import SWEEP_PARAMETERS
    from ionoptics.report import load_schema

    units = {parameter.unit for parameter in SWEEP_PARAMETERS.values()}
    point = load_schema("report")["properties"]["sweep"]["properties"]["points"]["items"]
    assert set(point["properties"]["value_unit"]["enum"]) == units
    assert units <= {"um", "deg"}


def test_z_search_parsed():
    data = variant(z_search_um={"lo": 400.0, "hi": 650.0, "steps": 33})
    s = parse_scenario(data)
    assert s.z_search == (
        pytest.approx(400e-6),
        pytest.approx(650e-6),
        33,
    )


@pytest.mark.parametrize("lo, hi", [(400.0, 400.0), (400.0, 300.0)])
def test_empty_z_search_window_rejected(lo, hi):
    data = variant(z_search_um={"lo": lo, "hi": hi, "steps": 33})
    with pytest.raises(
        ScenarioError, match="^invalid scenario at z_search_um: lo must be below hi$"
    ):
        parse_scenario(data)


def test_array_block_overrides_defaults():
    data = variant(
        array={
            "mode_mfd_um": [2.0, 4.0],
            "leakage_decay_per_um": 1.2,
            "leakage_reference": {"pitch_um": 5.0, "db": -30.0},
        }
    )
    s = parse_scenario(data)
    assert s.mode_mfd_m == pytest.approx((2.0e-6, 4.0e-6))
    assert s.leakage_decay_per_m == pytest.approx(1.2e6)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(str(tmp_path / "absent.json"))


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "broken",')
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(str(path))


def test_load_scenario_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e400"])
def test_load_scenario_rejects_non_finite_numbers(tmp_path, literal):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(MINIMAL).replace("180.0", literal))
    assert literal in path.read_text()
    with pytest.raises(ScenarioError, match="finite") as info:
        load_scenario(str(path))
    assert "invalid scenario at targets/image_distance_um: " in str(info.value)


def compact_data():
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scenarios" / "compact.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "section, key, value, where",
    [
        ("array", "leakage_reference", {"pitch_um": 5.0, "db": float("nan")},
         "array/leakage_reference/db"),
        ("targets", "aperture_budget_um", float("inf"), "targets/aperture_budget_um"),
        ("targets", "image_distance_um", 10**400, "targets/image_distance_um"),
    ],
)
def test_parse_scenario_rejects_non_finite_numbers(section, key, value, where):
    data = compact_data()
    data[section][key] = value
    with pytest.raises(ScenarioError, match=f"at {where}: numbers must be finite"):
        parse_scenario(data)


def test_ion_count_maximum_is_the_crystal_limit():
    # the schema bound lets a file exit 2 naming the key, before the solver
    from ionoptics.crystal import MAX_ION_COUNT
    from ionoptics.report import load_schema

    trap = load_schema("scenario")["properties"]["trap"]["properties"]
    assert trap["ion_count"]["maximum"] == MAX_ION_COUNT
    data = compact_data()
    for count in (MAX_ION_COUNT + 1, 1e300):
        data["trap"]["ion_count"] = count
        with pytest.raises(ScenarioError, match="^invalid scenario at trap/ion_count: "):
            parse_scenario(data)
    data["trap"]["ion_count"] = MAX_ION_COUNT
    assert parse_scenario(data).trap.ion_count == MAX_ION_COUNT


def test_parse_scenario_rejects_oversized_grid():
    data = compact_data()
    data["grid"].update(nx=8192, ny=8192)
    with pytest.raises(ScenarioError, match="invalid scenario at grid: .*MiB"):
        parse_scenario(data)


@pytest.mark.parametrize("key", ["n_ambient", "n_exit"])
def test_mirror_index_below_one_rejected(key):
    # the mirror model needs every index >= 1, so the schema does too
    data = compact_data()
    data["mirror"][key] = 0.5
    with pytest.raises(ScenarioError, match=f"^invalid scenario at mirror/{key}: "):
        parse_scenario(data)
    data["mirror"][key] = 1.0
    parse_scenario(data)


def test_name_defaults_to_file_stem(tmp_path):
    data = copy.deepcopy(MINIMAL)
    del data["name"]
    path = tmp_path / "bench_setup.json"
    path.write_text(json.dumps(data))
    s = load_scenario(str(path))
    assert s.name == "bench_setup"


def test_shipped_scenarios_parse():
    from pathlib import Path

    scenario_dir = Path(__file__).resolve().parents[1] / "scenarios"
    for name in ("reference.json", "compact.json"):
        s = load_scenario(str(scenario_dir / name))
        assert s.trap.ion_count >= 1
        assert s.grid[0] >= 64
