"""The program's outputs against the golden files in tests/golden/.

Every number is compared at relative REL_TOL with an absolute floor
ABS_FLOOR, in the outputs' own units (micrometres, degrees, dB, rad), and
every string, bool, integer and key exactly. The tolerance lets another
CPU's SIMD paths in NumPy or pocketfft move the last bits; the floor only
absorbs rounding noise around zero, such as a centre ion's position of
4e-18 um, and lies far below every other value in the files (the smallest
is about 2e-6). A change that bumps report_schema_version regenerates the
files with tests/golden/regenerate.py.
"""

import csv
import json
import math

from golden.regenerate import GOLDEN_DIR, compact_outputs, reference_sections

REL_TOL = 1e-12
ABS_FLOOR = 1e-12


def mismatches(got, want, path="") -> list:
    """Where `got` differs from `want`: a path and both values per leaf."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [(path, sorted(got), sorted(want))]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}/{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [(path, len(got), len(want))]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}/{i}")]
    if isinstance(want, float) and type(got) in (int, float):
        close = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_FLOOR)
    else:
        close = type(got) is type(want) and got == want
    return [] if close else [(path, got, want)]


def csv_cell(text):
    """A CSV cell as a float if it reads as a finite number, else the text."""
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def golden(name):
    """A golden file: a JSON document, or CSV rows of csv_cell values."""
    with open(GOLDEN_DIR / name, newline="") as fh:
        if name.endswith(".csv"):
            return [[csv_cell(cell) for cell in row] for row in csv.reader(fh)]
        return json.load(fh)


def test_mismatches_compares_numbers_at_the_tolerance_and_the_rest_exactly():
    want = {"a": [1.0, 0.0, "x", True, 3], "b": {"c": 2.5}}
    assert mismatches(json.loads(json.dumps(want)), want) == []
    assert mismatches({"a": [1.0 + 1e-13, 1e-13, "x", True, 3], "b": {"c": 2.5}}, want) == []
    moved = {"a": [1.0 + 1e-11, 2e-12, "y", False, 4], "b": {"c": 2.5, "d": 0}}
    assert [path for path, *_ in mismatches(moved, want)] == ["/a/0", "/a/1", "/a/2", "/a/3",
                                                              "/a/4", "/b"]


def test_compact_outputs_match_the_golden_files(tmp_path):
    for name, document in compact_outputs(tmp_path).items():
        if name.endswith(".csv"):
            document = [[csv_cell(cell) for cell in row] for row in document]
        assert mismatches(document, golden(name)) == [], name


def test_reference_sections_match_the_golden_file(reference_pipeline, reference_crosstalk):
    sections = reference_sections(reference_pipeline, reference_crosstalk["report"])
    assert mismatches(sections, golden("reference_sections.json")) == []
