"""Report serialization: canonical JSON, schema validation, sections."""

import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from ionoptics import ChannelFocus, CrosstalkReport, InvalidInputError, SweepPoint, SweepReport
from ionoptics.constants import UM
from ionoptics.designer import CROSSTALK_FLOOR_DB
from ionoptics.report import (
    REPORT_SCHEMA_VERSION,
    SWEEP_POINT_FOCUS_KEYS,
    canonical_json,
    channel_section,
    crosstalk_section,
    load_schema,
    run_block,
    sweep_point_section,
    sweep_section,
    to_plain,
    validate_report,
    write_report,
)

# one focus record with a distinct value in every field
FOCUS = dict(
    channel=1, waveguide_position=2e-6, z_focus=3e-6, image_distance=4e-6,
    mfd_fit=(5e-6, 6e-6), mfd_moment=(7e-6, 8e-6), centroid=(9e-6, 1e-5),
    clipped_fraction=0.11, fit_failed=True, beam_slope=0.12, off_normal=True,
    focus_fit_residual=0.13,
)
POINT = SweepPoint(
    **FOCUS, parameter="lateral_offset", value=0.5, dz_focus=1e-7,
    dmfd=(2e-8, 3e-8), dcentroid=(4e-8, 5e-8), residual_tilt_deg=0.25,
)


def minimal_report():
    return {
        "report_schema_version": REPORT_SCHEMA_VERSION,
        "command": "crystal",
        "toolkit": {"name": "ionoptics", "version": "0.1.0"},
        "run": run_block(0.25),
        "scenario": {"name": "unit"},
    }


def test_schema_version_is_nine():
    assert REPORT_SCHEMA_VERSION == 9


def test_canonical_json_is_sorted_and_terminated():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def test_canonical_json_order_independent():
    first = canonical_json({"x": 1, "y": {"k": 2, "j": 3}})
    second = canonical_json({"y": {"j": 3, "k": 2}, "x": 1})
    assert first == second


def test_to_plain_converts_numpy():
    plain = to_plain(
        {
            "array": np.array([1.0, 2.0]),
            "scalar": np.float64(3.5),
            "integer": np.int64(7),
            "flag": np.bool_(True),
            "nested": (np.array([0.5]), "text"),
        }
    )
    assert plain == {
        "array": [1.0, 2.0],
        "scalar": 3.5,
        "integer": 7,
        "flag": True,
        "nested": [[0.5], "text"],
    }
    json.dumps(plain)


def test_to_plain_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        to_plain({"bad": float("nan")})
    with pytest.raises(InvalidInputError):
        to_plain({"bad": np.inf})


@pytest.mark.parametrize("value", [np.float64("nan"), np.float32("inf")])
def test_to_plain_rejects_non_finite_numpy_scalars(value):
    with pytest.raises(InvalidInputError):
        to_plain({"bad": value})
    with pytest.raises(InvalidInputError):
        canonical_json({"bad": [value]})


@pytest.mark.parametrize("value, where, got", [
    ({"a": [1.0, np.float32("nan")]}, "a/1", "got nan"),
    ({"a": {"b": (0, -np.inf)}}, "a/b/1", "got -inf"),
    ({"n": 10**400}, "n", "got an integer beyond the float range"),
    (float("inf"), "(document root)", "got inf"),
    ({"z": np.array(np.inf)}, "z", "got inf"),
])
def test_to_plain_names_the_path_of_a_non_finite_number(value, where, got):
    message = f"at {where}: numbers must be finite, {got}"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        to_plain(value)


def test_to_plain_converts_zero_dimensional_and_long_double_arrays():
    plain = to_plain({"zero_d": np.array(1.5), "long": np.array([np.longdouble(2.5)])})
    assert plain == {"zero_d": 1.5, "long": [2.5]}
    assert type(plain["zero_d"]) is float and type(plain["long"][0]) is float
    json.dumps(plain)


def test_parsing_and_validating_never_check_the_schemas(monkeypatch):
    # the metaschema check runs once in the test suite, not in every process
    import jsonschema

    from ionoptics import report
    from ionoptics.scenario import parse_scenario

    def refuse(cls, schema, *args, **kwargs):
        raise AssertionError("check_schema was called")

    report._validator.cache_clear()
    monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema", classmethod(refuse))
    try:
        compact = Path(__file__).resolve().parents[1] / "scenarios" / "compact.json"
        parse_scenario(json.loads(compact.read_text()))
        validate_report(minimal_report())
    finally:
        report._validator.cache_clear()


def test_minimal_report_validates():
    validate_report(minimal_report())


def test_validate_rejects_wrong_version():
    report = minimal_report()
    report["report_schema_version"] = 99
    with pytest.raises(InvalidInputError):
        validate_report(report)


def test_validate_rejects_unknown_top_key():
    report = minimal_report()
    report["debug_notes"] = "scratch"
    with pytest.raises(InvalidInputError):
        validate_report(report)


def test_validate_rejects_missing_section():
    report = minimal_report()
    del report["toolkit"]
    with pytest.raises(InvalidInputError):
        validate_report(report)


def test_run_block_shape():
    block = run_block(1.5)
    assert set(block) == {"generated_at_utc", "wall_time_s"}
    assert block["wall_time_s"] == 1.5
    assert block["generated_at_utc"].endswith("+00:00")


def test_write_report_validates_and_is_canonical(tmp_path):
    path = tmp_path / "out.json"
    report = minimal_report()
    write_report(report, path)
    text = path.read_text()
    assert text == canonical_json(to_plain(report))
    assert text.endswith("\n")
    bad = minimal_report()
    bad["command"] = "paint"
    with pytest.raises(InvalidInputError):
        write_report(bad, tmp_path / "bad.json")


def test_every_channel_focus_field_reaches_the_report():
    # a record field that no report key carries is computed for nothing
    focus = ChannelFocus(**FOCUS)
    section = channel_section(focus)
    fields = dataclasses.fields(ChannelFocus)
    assert len(section) == len(fields)
    for field in fields:
        value = getattr(focus, field.name)
        if field.name + "_um" in section:
            expected = [v / UM for v in value] if isinstance(value, tuple) else value / UM
            assert section[field.name + "_um"] == expected
        elif field.name + "_rad" in section:
            assert section[field.name + "_rad"] == value
        else:
            assert section[field.name] == value


def property_names(schema):
    """Every key that a `properties` block of the schema names, at any depth."""
    if isinstance(schema, dict):
        for key, value in schema.items():
            if key == "properties":
                yield from value
            yield from property_names(value)
    elif isinstance(schema, list):
        for value in schema:
            yield from property_names(value)


def test_every_report_key_is_documented():
    docs = (Path(__file__).resolve().parents[1] / "docs" / "REPORTS.md").read_text()
    missing = sorted(
        name for name in set(property_names(load_schema("report")))
        if not re.search(rf"\b{re.escape(name)}\b", docs)
    )
    assert missing == []


WORST_KEYS = (
    "worst_nearest_neighbor_total_db",
    "worst_nearest_neighbor_optical_db",
    "worst_leakage_db",
)


def crosstalk_report(contributions, n):
    return CrosstalkReport(
        matrix_db=np.zeros((n, n)), contributions=tuple(contributions),
        ion_positions=np.arange(n) * 5e-6, channel_focus=(), evaluation_z=1e-4,
        alignment_scale=1.0, alignment_residual=0.0, mirror_of=(None,) * n,
    )


def test_crosstalk_section_worst_values():
    pairs = []
    for a, b in itertools.permutations(range(3), 2):
        # the far pair (0, 2) is the loudest, but only neighbours count
        optical = -10.0 if abs(a - b) == 2 else -30.0 - a - b
        pairs.append({"ion_i": a, "ion_j": b, "optical_db": optical,
                      "leakage_db": -40.0 - a - b, "total_db": optical + 1.0})
    section = crosstalk_section(crosstalk_report(pairs, 3))
    assert [section[key] for key in WORST_KEYS] == [-30.0, -31.0, -41.0]
    # one ion has no pairs: its worst crosstalk is the floor, not 0 dB
    section = crosstalk_section(crosstalk_report([], 1))
    assert [section[key] for key in WORST_KEYS] == [CROSSTALK_FLOOR_DB] * 3


def test_sweep_point_focus_keys_are_the_channel_record_keys():
    # a sweep point reports its focus fields in the units a channel record uses
    section = sweep_point_section(POINT)
    channel = channel_section(ChannelFocus(**FOCUS))
    assert set(section) & set(channel) == set(SWEEP_POINT_FOCUS_KEYS)
    for key in SWEEP_POINT_FOCUS_KEYS:
        assert section[key] == channel[key], key
    assert section["value"] == 0.5
    assert section["value_unit"] == "um"


def sweep_report(points):
    report = minimal_report()
    report["command"] = "sweep"
    report["sweep"] = {
        "channel": 1, "baseline": channel_section(ChannelFocus(**FOCUS)), "points": points,
    }
    return report


def test_sweep_point_with_an_extra_key_fails_validation():
    point = sweep_point_section(POINT)
    validate_report(sweep_report([point]))
    with pytest.raises(InvalidInputError, match="sweep/points/0"):
        validate_report(sweep_report([dict(point, debug=1.0)]))
    del point["dmfd_um"]
    with pytest.raises(InvalidInputError, match="sweep/points/0"):
        validate_report(sweep_report([point]))


def test_sweep_section_reads_the_channel_from_its_baseline():
    baseline = ChannelFocus(**FOCUS)
    section = sweep_section(SweepReport(baseline=baseline, points=(POINT,)))
    assert section["channel"] == baseline.channel
    assert section["baseline"] == channel_section(baseline)


def object_schemas(schema, path=""):
    """(path, subschema) of every subschema of type object."""
    if isinstance(schema, dict):
        if schema.get("type") == "object":
            yield path, schema
        for key, value in schema.items():
            yield from object_schemas(value, f"{path}/{key}")
    elif isinstance(schema, list):
        for i, value in enumerate(schema):
            yield from object_schemas(value, f"{path}/{i}")


def test_every_report_object_but_the_scenario_is_closed():
    # an object schema without its keys lets any record through unchecked
    open_objects = [
        path for path, schema in object_schemas(load_schema("report"))
        if path != "/properties/scenario"
        and not (schema.get("additionalProperties") is False and schema.get("properties"))
    ]
    assert open_objects == []


@pytest.mark.parametrize("element", [
    {"z_um": 2.0, "kind": "wedge", "tilt_x_deg": 0.0, "tilt_y_deg": -14.0},
    {"z_um": 30.0, "kind": "lens", "focal_length_um": 80.0},
    {"z_um": 30.0, "kind": "aperture", "radius_um": 40.0},
])
def test_prescription_elements_have_one_shape_per_kind(element):
    report = minimal_report()
    report["prescription"] = {
        "elements": [element], "focal_lengths_um": [], "lens_positions_um": [],
        "aperture_radii_um": [], "stack_height_um": 1.0, "source_tilt_deg": 7.0,
        "predicted": {"magnification": [1.0, 1.0], "image_distance_um": 1.0,
                      "numerical_aperture": 0.1},
    }
    validate_report(report)
    # a field of another kind breaks the shape
    extra = "radius_um" if element["kind"] == "lens" else "focal_length_um"
    report["prescription"]["elements"] = [dict(element, **{extra: 1.0})]
    with pytest.raises(InvalidInputError, match="prescription/elements/0"):
        validate_report(report)
