"""Equilibrium positions of a harmonically confined ion chain."""

import math
import re
import time

import numpy as np
import pytest

from ionoptics import (
    InvalidInputError,
    TrapSpec,
    ion_spacings,
    length_scale,
    solve_crystal,
)
from ionoptics.constants import MAX_ARRAY_BYTES
from ionoptics.crystal import MAX_ION_COUNT, equilibrium_positions, force_residual

CA40 = dict(ion_mass_amu=39.9626, ion_charge=1, axial_frequency_hz=700e3)


def trap(n, **overrides):
    params = dict(CA40, ion_count=n)
    params.update(overrides)
    return TrapSpec(**params)


def test_two_ions_analytic():
    crystal = solve_crystal(trap(2))
    u = crystal.dimensionless_positions
    expected = (1.0 / 4.0) ** (1.0 / 3.0)
    assert u == pytest.approx([-expected, expected], abs=1e-10)


def test_three_ions_analytic():
    crystal = solve_crystal(trap(3))
    u = crystal.dimensionless_positions
    expected = (5.0 / 4.0) ** (1.0 / 3.0)
    assert u == pytest.approx([-expected, 0.0, expected], abs=1e-10)


def test_residual_small_through_fifty_ions():
    for n in (2, 3, 5, 10, 23, 50):
        u = equilibrium_positions(n)
        assert np.max(np.abs(force_residual(u))) < 1e-10


def test_positions_sorted_and_antisymmetric():
    u = equilibrium_positions(12)
    assert np.all(np.diff(u) > 0)
    assert u == pytest.approx(-u[::-1], abs=1e-10)


def test_length_scale_matches_closed_form():
    t = trap(2)
    e = 1.602176634e-19
    eps0 = 8.8541878128e-12
    amu = 1.66053906660e-27
    omega = 2.0 * np.pi * t.axial_frequency_hz
    expected = (
        e**2 / (4.0 * np.pi * eps0 * t.ion_mass_amu * amu * omega**2)
    ) ** (1.0 / 3.0)
    assert length_scale(t) == pytest.approx(expected, rel=1e-9)


def test_length_scale_keeps_the_closed_form_bits():
    from ionoptics.constants import ATOMIC_MASS, COULOMB_CONSTANT, ELEMENTARY_CHARGE

    for t in (trap(3), trap(10, axial_frequency_hz=2.5e6), trap(2, ion_charge=2)):
        q = t.ion_charge * ELEMENTARY_CHARGE
        m = t.ion_mass_amu * ATOMIC_MASS
        w = 2.0 * np.pi * t.axial_frequency_hz
        assert length_scale(t) == (COULOMB_CONSTANT * q * q / (m * w * w)) ** (1.0 / 3.0)


@pytest.mark.parametrize(
    "overrides, message",
    [
        # m underflows to 0: the scale would divide by zero
        ({"ion_mass_amu": 1e-300}, "m w^2 = 0.000e+00 kg/s^2, l = 0.000e+00 m"),
        # w^2 overflows: every ion would sit at 0
        ({"axial_frequency_hz": 1e200}, "m w^2 = inf kg/s^2, l = 0.000e+00 m"),
        # q^2 overflows: the scale would be infinite
        ({"ion_charge": 10**170}, "kg/s^2, l = inf m"),
    ],
)
def test_length_scale_outside_float_range_rejected(overrides, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        length_scale(trap(2, **overrides))


def test_reference_chain_gaps_frozen():
    # Ca-40 at 700 kHz, ten ions: center gap 3.1840 um, edge gap 4.3498 um
    crystal = solve_crystal(trap(10))
    gaps_um = ion_spacings(crystal) * 1e6
    assert gaps_um[4] == pytest.approx(3.1840, abs=2e-4)
    assert gaps_um[0] == pytest.approx(4.3498, abs=2e-4)
    assert gaps_um == pytest.approx(gaps_um[::-1], rel=1e-9)


def test_three_ion_gap_frozen():
    crystal = solve_crystal(trap(3))
    gaps_um = ion_spacings(crystal) * 1e6
    assert gaps_um == pytest.approx([6.0791, 6.0791], abs=2e-4)


def test_stiffer_trap_compresses_chain():
    loose = solve_crystal(trap(10))
    stiff = solve_crystal(trap(10, axial_frequency_hz=800e3))
    assert np.max(stiff.positions_m) < np.max(loose.positions_m)


def test_single_ion_sits_at_origin():
    crystal = solve_crystal(trap(1))
    assert crystal.positions_m == pytest.approx([0.0], abs=1e-15)


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidInputError):
        solve_crystal(trap(0))
    with pytest.raises(InvalidInputError):
        solve_crystal(trap(2, axial_frequency_hz=-1.0))
    with pytest.raises(InvalidInputError):
        solve_crystal(trap(2, ion_mass_amu=0.0))
    with pytest.raises(InvalidInputError):
        solve_crystal(trap(2, ion_charge=0))


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("key", ["ion_count", "ion_charge"])
def test_non_finite_counts_rejected(key, bad):
    # int() of them escaped as a bare OverflowError or ValueError
    with pytest.raises(InvalidInputError, match=f"{key} must be a positive integer"):
        trap(2, **{key: bad})


@pytest.mark.parametrize("n", [MAX_ION_COUNT + 1, 1e300])
def test_ion_count_over_the_jacobian_budget_rejected(n):
    # 1e300 reached np.linspace and failed with a bare ValueError
    assert MAX_ION_COUNT**2 * 8 <= MAX_ARRAY_BYTES < (MAX_ION_COUNT + 1) ** 2 * 8
    with pytest.raises(InvalidInputError, match=f"at most {MAX_ION_COUNT} ions$"):
        equilibrium_positions(n)


def test_fifty_ions_under_one_second():
    start = time.perf_counter()
    solve_crystal(trap(50))
    assert time.perf_counter() - start < 1.0
