"""The number contract: every numeric field of the library's input classes,
and every numeric argument of its entry points, rejects a value that is not
finite, a bool, an integer beyond the float range and, where a count is
expected, a fraction, with an InvalidInputError that names it. A grid count
must be an int (64.0 fails), and a focal length may be infinite.

The fields are walked with dataclasses.fields, tuple and array members one
at a time. No case reaches synthesis or a propagation, so the whole walk
takes well under a second.
"""

import dataclasses
import math
import numbers

import numpy as np
import pytest
import scipy.fft as sfft

from ionoptics import (
    AstigmaticGaussian,
    BeamAxis,
    CircAperture,
    DesignTargets,
    FreeSpace,
    InvalidInputError,
    ThinLensPhase,
    TirMirrorSpec,
    TrapSpec,
    WaveguideArraySpec,
    WedgePhase,
    equilibrium_positions,
    find_focus,
    make_gaussian_field,
    pitch_plan,
    solve_crystal,
    synthesize_lens_stack,
    width_at,
    wavefield,
)
from ionoptics.errors import check_count, check_real

WL = 0.729e-6
BEAM = AstigmaticGaussian(WL, BeamAxis(1e-6), BeamAxis(1e-6))
GRID = (64, 64, 0.25e-6)
FIELD = make_gaussian_field(BEAM, (0.0, 0.0), GRID)
TARGETS = DesignTargets(0.6, 0.19, 120e-6, (2.45e-6, 5.2e-6), WL, 300e-6, 100e-6)
CRYSTAL = solve_crystal(TrapSpec(39.9626, 1, 700e3, 3))

INSTANCES = [
    TrapSpec(39.9626, 1, 700e3, 3),
    TARGETS,
    TirMirrorSpec(52.0, 1.466, 1.0, 1.0),
    WaveguideArraySpec(np.array([-6e-6, 0.0, 6e-6]), (2.45e-6, 5.2e-6), 1.2e6, (5e-6, -30.0)),
    BeamAxis(1e-6, -2e-6),
    BEAM,
    FreeSpace(10e-6),
    FIELD,
    CircAperture(5e-6),
    ThinLensPhase(40e-6),
]


def field_cases():
    """(id, build(value), name, count) for every numeric field and every
    member of a tuple or array field of INSTANCES."""
    for obj in INSTANCES:
        cls = type(obj)
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            count = field.type == "int"
            if isinstance(value, numbers.Real):
                def build(bad, obj=obj, key=field.name):
                    return dataclasses.replace(obj, **{key: bad})
                yield f"{cls.__name__}.{field.name}", build, field.name, count
            elif isinstance(value, (tuple, np.ndarray)) and np.ndim(value) == 1:
                for i in range(len(value)):
                    def build(bad, obj=obj, key=field.name, i=i):
                        return dataclasses.replace(obj, **{key: swap(getattr(obj, key), i, bad)})
                    name = f"{field.name}[{i}]"
                    yield f"{cls.__name__}.{name}", build, name, count


def swap(values, i, bad):
    """`values` as a tuple, with member i replaced by `bad`."""
    values = list(values)
    values[i] = bad
    return tuple(values)


def focus_window(i):
    lens = [(50e-6, ThinLensPhase(40e-6))]
    return lambda bad: find_focus(FIELD, lens, swap((100e-6, 200e-6, 33), i, bad))


ARGUMENT_CASES = [
    ("equilibrium_positions.n", equilibrium_positions, "ion count", True),
    ("pitch_plan.magnification", lambda bad: pitch_plan(CRYSTAL, bad), "magnification", False),
    ("synthesize_lens_stack.source_tilt",
     lambda bad: synthesize_lens_stack(TARGETS, source_tilt=bad), "source_tilt", False),
    ("synthesize_lens_stack.chief_reach",
     lambda bad: synthesize_lens_stack(TARGETS, chief_reach=bad), "chief_reach", False),
    ("width_at.z", lambda bad: width_at(BEAM, "x", bad), "z", False),
    *[(f"make_gaussian_field.tilt[{i}]",
       lambda bad, i=i: make_gaussian_field(BEAM, swap((0.0, 0.0), i, bad), GRID),
       "tilt", False) for i in (0, 1)],
    *[(f"make_gaussian_field.grid[{i}]",
       lambda bad, i=i: make_gaussian_field(BEAM, (0.0, 0.0), swap(GRID, i, bad)),
       "grid dimensions", True) for i in (0, 1)],
    *[(f"make_gaussian_field.center[{i}]",
       lambda bad, i=i: make_gaussian_field(BEAM, (0.0, 0.0), GRID, swap((0.0, 0.0), i, bad)),
       "center", False) for i in (0, 1)],
    ("find_focus.z_search[0]", focus_window(0), "z_search[0]", False),
    ("find_focus.z_search[1]", focus_window(1), "z_search[1]", False),
    ("find_focus.z_search[2]", focus_window(2), "z_search steps", True),
    ("find_focus.centre",
     lambda bad: find_focus(FIELD, [], (100e-6, 200e-6, 33), bad), "focus search centre", False),
    ("_window_guard.distance",
     lambda bad: wavefield._window_guard(FIELD, sfft.fft2(FIELD.samples), bad),
     "propagation distance", False),
    # the message names the magnitude, as a failed sweep point reports it
    ("WedgePhase.tilt_y", WedgePhase, "wedge tilt magnitude", False),
]

CASES = list(field_cases()) + ARGUMENT_CASES
BAD = [("inf", math.inf), ("-inf", -math.inf), ("nan", math.nan), ("True", True),
       ("10**400", 10**400)]
COUNT_BAD = BAD + [("2.5", 2.5)]
# inputs with a rule of their own: a grid count must be an int, an infinite
# focal length is a flat plate, and the lens and the wedge check the type
CASE_BAD = {
    **{f"make_gaussian_field.grid[{i}]": COUNT_BAD + [("64.0", 64.0)] for i in (0, 1)},
    "ThinLensPhase.focal_length": [b for b in BAD if "inf" not in b[0]] + [("'a'", "a")],
    "WedgePhase.tilt_y": BAD + [("'a'", "a"), ("False", False)],
}


@pytest.mark.parametrize(
    "build, name, bad",
    [
        pytest.param(build, name, value, id=f"{case}-{label}")
        for case, build, name, count in CASES
        for label, value in CASE_BAD.get(case, COUNT_BAD if count else BAD)
    ],
)
def test_every_numeric_input_rejects_a_bad_number_naming_it(build, name, bad, fft_calls):
    with pytest.raises(InvalidInputError) as info:
        build(bad)
    assert str(info.value).startswith(f"{name} must ")
    assert fft_calls == []


def test_the_walk_covers_every_class_and_entry_point():
    covered = {case.split(".")[0] for case, *_ in CASES}
    assert covered == {
        "TrapSpec", "DesignTargets", "TirMirrorSpec", "WaveguideArraySpec", "BeamAxis",
        "AstigmaticGaussian", "FreeSpace", "ScalarField", "CircAperture", "ThinLensPhase",
        "equilibrium_positions", "pitch_plan", "synthesize_lens_stack", "width_at",
        "make_gaussian_field", "find_focus", "_window_guard", "WedgePhase",
    }
    assert len(CASES) == 50


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: make_gaussian_field(BEAM, (0.0, 0.0), GRID[:2]), "grid"),
        (lambda: make_gaussian_field(BEAM, (0.0, 0.0), 64), "grid"),
        (lambda: wavefield.gaussian_planes(BEAM, (0.0, 0.0), GRID[:2]), "grid"),
        (lambda: make_gaussian_field(BEAM, (0.0,), GRID), "tilt"),
        (lambda: make_gaussian_field(BEAM, (0.0, 0.0, 0.1), GRID), "tilt"),
        (lambda: make_gaussian_field(BEAM, (0.0, 0.0), GRID, (0.0, 0.0, 1e-6)), "center"),
        (lambda: find_focus(FIELD, [], (100e-6, 200e-6)), "z_search"),
    ],
    ids=["grid-pair", "grid-int", "planes-grid-pair", "tilt-single", "tilt-triple",
         "center-triple", "z-search-pair"],
)
def test_a_tuple_of_the_wrong_length_fails_naming_it(build, name, fft_calls):
    with pytest.raises(InvalidInputError, match=f"^{name} must have [23] members, got "):
        build()
    assert fft_calls == []


@pytest.mark.parametrize(
    "low, high, closed, message",
    [
        (-math.inf, math.inf, False, "x must be finite, got nan"),
        (0, math.inf, False, "x must be positive and finite, got nan"),
        (1, math.inf, True, "x must be finite and >= 1, got nan"),
        (0, 1, True, "x must lie in [0, 1], got nan"),
        (0, 90, False, "x must lie in (0, 90), got nan"),
    ],
)
def test_check_real_words_its_domain(low, high, closed, message):
    with pytest.raises(InvalidInputError) as info:
        check_real("x", math.nan, low, high, closed)
    assert str(info.value) == message


def test_checks_return_the_value_unchanged_and_keep_its_type():
    assert check_real("x", 0.0, 0, 1, closed=True) == 0.0
    assert type(check_real("x", np.float64(2.0))) is np.float64
    assert check_count("n", 3) == 3 and check_count("n", 3.0) == 3.0
    with pytest.raises(InvalidInputError, match="^x must lie in \\(0, 1\\), got 1$"):
        check_real("x", 1, 0, 1)
