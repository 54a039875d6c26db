"""Photonic chip out-coupling geometry and evanescent leakage."""

import math
import re

import numpy as np
import pytest

from ionoptics import (
    InvalidInputError,
    NoTirError,
    TirMirrorSpec,
    TrappedRayError,
    WaveguideArraySpec,
    leakage_crosstalk,
    outcoupling_angle,
    simulate_channel,
    tir_critical_angle,
)

MIRROR = TirMirrorSpec(facet_angle_deg=52.0, n_effective=1.466)


def test_critical_angle_value():
    critical = tir_critical_angle(MIRROR)
    assert critical == pytest.approx(math.degrees(math.asin(1.0 / 1.466)))
    assert critical == pytest.approx(43.0, abs=0.2)


def test_exit_angle_for_52_degree_facet():
    result = outcoupling_angle(MIRROR)
    assert result.internal_tilt_deg == pytest.approx(14.0)
    assert 20.0 <= result.exit_angle_deg <= 21.5
    assert result.exit_angle_deg == pytest.approx(20.7725, abs=1e-3)
    assert result.tir_satisfied


def test_facet_below_critical_flags_lost_reflection():
    result = outcoupling_angle(TirMirrorSpec(facet_angle_deg=42.0, n_effective=1.466))
    assert not result.tir_satisfied


def test_45_degree_facet_exits_normal():
    result = outcoupling_angle(TirMirrorSpec(facet_angle_deg=45.0, n_effective=1.466))
    assert result.exit_angle_deg == pytest.approx(0.0, abs=1e-12)


def test_no_tir_when_ambient_too_dense():
    with pytest.raises(NoTirError):
        tir_critical_angle(
            TirMirrorSpec(facet_angle_deg=52.0, n_effective=1.466, n_ambient=1.5)
        )


def test_steep_facet_traps_ray():
    with pytest.raises(TrappedRayError):
        outcoupling_angle(TirMirrorSpec(facet_angle_deg=80.0, n_effective=1.466))


def test_exit_into_denser_medium_bends_toward_normal():
    glass = outcoupling_angle(
        TirMirrorSpec(facet_angle_deg=52.0, n_effective=1.466, n_exit=1.45)
    )
    air = outcoupling_angle(MIRROR)
    assert glass.exit_angle_deg < air.exit_angle_deg
    expected = math.degrees(
        math.asin(1.466 * math.sin(math.radians(14.0)) / 1.45)
    )
    assert glass.exit_angle_deg == pytest.approx(expected, rel=1e-12)


def array(positions_um, decay_per_um=1.2, reference=(5.0e-6, -30.0)):
    return WaveguideArraySpec(
        positions_m=np.asarray(positions_um) * 1e-6,
        mode_mfd_m=(2.45e-6, 5.2e-6),
        leakage_decay_per_m=decay_per_um * 1e6,
        leakage_reference=reference,
    )


def test_leakage_calibrated_at_reference_pitch():
    arr = array([0.0, 5.0])
    assert leakage_crosstalk(arr, 0, 1) == pytest.approx(-30.0, abs=1e-12)
    assert leakage_crosstalk(arr, 1, 0) == pytest.approx(-30.0, abs=1e-12)


def test_leakage_slope_in_db():
    # amplitude decay k maps to 20 k / ln(10) dB of isolation per metre
    arr = array([0.0, 6.0])
    db_per_um = 20.0 / math.log(10.0) * 1.2
    assert leakage_crosstalk(arr, 0, 1) == pytest.approx(-30.0 - db_per_um, rel=1e-9)


def test_leakage_monotonic_with_gap():
    arr = array([0.0, 5.0, 11.0, 18.0])
    vals = [leakage_crosstalk(arr, 0, j) for j in (1, 2, 3)]
    assert vals[0] > vals[1] > vals[2]


def test_leakage_input_validation():
    arr = array([0.0, 5.0])
    with pytest.raises(InvalidInputError):
        leakage_crosstalk(arr, 0, 0)
    with pytest.raises(InvalidInputError):
        leakage_crosstalk(arr, 0, 2)


def test_array_spec_validation():
    with pytest.raises(InvalidInputError):
        array([0.0, 0.0])
    with pytest.raises(InvalidInputError):
        array([5.0, 0.0])
    with pytest.raises(InvalidInputError):
        WaveguideArraySpec(
            positions_m=np.array([0.0, 5e-6]),
            mode_mfd_m=(0.0, 5.2e-6),
        )


def test_channel_count():
    assert array([0.0, 5.0, 10.0]).channel_count == 3


def test_facet_angle_range_enforced():
    with pytest.raises(InvalidInputError):
        TirMirrorSpec(facet_angle_deg=0.0, n_effective=1.466)
    with pytest.raises(InvalidInputError):
        TirMirrorSpec(facet_angle_deg=95.0, n_effective=1.466)


@pytest.mark.parametrize("name", ["n_effective", "n_ambient", "n_exit"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_indices_must_be_finite(name, value):
    # an infinite n_exit gave an exit angle of 0, an infinite n_effective NaN
    indices = {"n_effective": 1.466, "n_ambient": 1.0, "n_exit": 1.0, name: value}
    with pytest.raises(InvalidInputError, match=f"{name} must be finite and >= 1"):
        TirMirrorSpec(facet_angle_deg=45.0, **indices)


@pytest.mark.parametrize("index", [1.5, True, "1", -1, 3], ids=repr)
def test_channel_index_must_be_an_integer_in_range(index):
    # these escaped as IndexError and TypeError, or went unnamed
    arr = array([0.0, 5.0, 10.0])
    message = re.escape(f"channel {index!r} is not an integer from 0 to 2 for 3 waveguides")
    with pytest.raises(InvalidInputError, match=message):
        leakage_crosstalk(arr, index, 0)
    with pytest.raises(InvalidInputError, match=message):
        leakage_crosstalk(arr, 0, index)
    # the index is checked before the prescription, mirror or grid is read
    with pytest.raises(InvalidInputError, match=message):
        simulate_channel(None, arr, index, MIRROR, None)
