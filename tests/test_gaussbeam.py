"""Astigmatic Gaussian beams and ABCD propagation."""

import math

import numpy as np
import pytest

from ionoptics import (
    FreeSpace,
    InvalidInputError,
    ThinLens,
    beam_from_mfd,
    chain_matrix,
    propagate_abcd,
    rayleigh_length,
    width_at,
)

WL = 0.729e-6


def test_beam_from_mfd_sets_waists():
    beam = beam_from_mfd(2.45e-6, 5.2e-6, WL)
    assert beam.x.waist_radius == pytest.approx(1.225e-6)
    assert beam.y.waist_radius == pytest.approx(2.6e-6)


def test_rayleigh_length_value():
    # MFD 3.42 um at 729 nm gives a 12.60 um Rayleigh range
    beam = beam_from_mfd(3.42e-6, 3.42e-6, WL)
    z_r = rayleigh_length(beam, "y")
    assert z_r == pytest.approx(math.pi * (1.71e-6) ** 2 / WL, rel=1e-12)
    assert z_r * 1e6 == pytest.approx(12.6, abs=0.1)


def test_width_follows_hyperbola():
    beam = beam_from_mfd(5.0e-6, 5.0e-6, WL)
    w0 = beam.x.waist_radius
    z_r = rayleigh_length(beam, "x")
    for z in np.linspace(-3.0, 3.0, 13) * z_r:
        assert width_at(beam, "x", z) == pytest.approx(
            w0 * math.sqrt(1.0 + (z / z_r) ** 2), rel=1e-12
        )


def test_two_f_relay_images_at_unit_magnification():
    f = 500e-6
    beam = beam_from_mfd(4.0e-6, 6.0e-6, WL)
    out = propagate_abcd(
        beam, [FreeSpace(2.0 * f), ThinLens(f), FreeSpace(2.0 * f)]
    )
    # the conjugate plane carries the object waist size; the new waist sits
    # a focal shift z_R^2/f / (1 + (z_R/f)^2) before it
    for axis, w_in in (("x", beam.x.waist_radius), ("y", beam.y.waist_radius)):
        assert width_at(out, axis, 0.0) == pytest.approx(w_in, rel=1e-9)
        z_r = rayleigh_length(beam, axis)
        shift = -(z_r**2 / f) / (1.0 + (z_r / f) ** 2)
        axis_state = getattr(out, axis)
        assert axis_state.waist_position == pytest.approx(shift, rel=1e-9)


def test_chain_matrix_two_f_relay():
    f = 500e-6
    m = chain_matrix([FreeSpace(2.0 * f), ThinLens(f), FreeSpace(2.0 * f)])
    assert m == pytest.approx(np.array([[-1.0, 0.0], [-1.0 / f, -1.0]]))


def test_telecentric_pair_magnification():
    # confocal doublet: transverse magnification -f2/f1, image-side telecentric
    f1, f2 = 300e-6, 120e-6
    chain = [
        FreeSpace(f1),
        ThinLens(f1),
        FreeSpace(f1 + f2),
        ThinLens(f2),
        FreeSpace(f2),
    ]
    m = chain_matrix(chain)
    assert m[0][0] == pytest.approx(-f2 / f1, rel=1e-12)
    assert m[0][1] == pytest.approx(0.0, abs=1e-18)
    assert m[1][0] == pytest.approx(0.0, abs=1e-12)


def test_rayleigh_range_beyond_the_float_range_rejected():
    # a 1e300 um mode overflowed w0**2 with a bare OverflowError
    wide = beam_from_mfd(2.45e-6, 1e294, WL)
    for call in (
        lambda: rayleigh_length(wide, "y"),
        lambda: width_at(wide, "y", 1e-4),
        lambda: propagate_abcd(wide, [FreeSpace(1e-4)]),
    ):
        with pytest.raises(InvalidInputError, match="no positive, finite Rayleigh range"):
            call()


def test_invalid_elements_rejected():
    with pytest.raises(InvalidInputError):
        ThinLens(0.0)
    with pytest.raises(InvalidInputError):
        beam_from_mfd(-1.0e-6, 5.0e-6, WL)
