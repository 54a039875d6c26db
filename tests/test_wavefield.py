"""Scalar wave propagation: conservation laws, metrics, focus search, I/O."""

import dataclasses
import gc
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ionoptics import (
    ThinLens,
    beam_from_mfd,
    propagate_abcd,
    rayleigh_length,
    simulate_channel,
    width_at,
)
from ionoptics import wavefield
from ionoptics.errors import (
    FocusNotBracketedError,
    InvalidInputError,
    PropagationWindowError,
    SamplingError,
)
from ionoptics.wavefield import (
    CircAperture,
    FreeSpacePlanes,
    ScalarField,
    ThinLensPhase,
    WedgePhase,
    angular_spectrum_propagate,
    apply_element,
    find_focus,
    gaussian_planes,
    make_gaussian_field,
    propagate_elements,
    read_field_sfld,
    spot_metrics,
    write_field_csv,
    write_field_sfld,
)

WL = 0.729e-6


def field_power(field):
    return float(np.sum(np.abs(field.samples) ** 2) * field.pitch**2)


def round_beam(mfd=5.0e-6):
    return beam_from_mfd(mfd, mfd, WL)


def test_source_is_unit_power():
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (256, 256, 0.25e-6))
    assert field_power(field) == pytest.approx(1.0, abs=1e-12)


def test_free_space_conserves_power():
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (512, 512, 0.25e-6))
    moved = angular_spectrum_propagate(field, 150e-6)
    assert abs(field_power(moved) - field_power(field)) < 1e-6


def test_roundtrip_returns_original_field():
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (512, 512, 0.25e-6))
    back = angular_spectrum_propagate(
        angular_spectrum_propagate(field, 150e-6), -150e-6
    )
    scale = np.max(np.abs(field.samples))
    assert np.max(np.abs(back.samples - field.samples)) / scale < 1e-9


def test_width_matches_analytic_hyperbola():
    beam = round_beam()
    z_r = rayleigh_length(beam, "x")
    field = make_gaussian_field(beam, (0.0, 0.0), (512, 512, 0.25e-6))
    for z in np.linspace(0.3, 3.0, 8) * z_r:
        metrics = spot_metrics(angular_spectrum_propagate(field, z))
        expected = 2.0 * width_at(beam, "x", z)
        assert metrics.mfd_fit[0] == pytest.approx(expected, rel=0.01)
        assert metrics.mfd_fit[1] == pytest.approx(expected, rel=0.01)


def test_tilt_translates_centroid():
    tilt = 0.02
    field = make_gaussian_field(round_beam(), (0.0, tilt), (512, 512, 0.25e-6))
    z = 200e-6
    metrics = spot_metrics(angular_spectrum_propagate(field, z))
    assert metrics.centroid[1] == pytest.approx(z * math.tan(tilt), rel=0.02)
    assert abs(metrics.centroid[0]) < 5e-9


def test_wedge_cancels_source_tilt():
    tilt = 0.05
    field = make_gaussian_field(round_beam(), (0.0, tilt), (512, 512, 0.25e-6))
    flat = apply_element(field, WedgePhase(-tilt))
    metrics = spot_metrics(angular_spectrum_propagate(flat, 200e-6))
    assert abs(metrics.centroid[1]) < 2e-8


def test_lens_focuses_collimated_beam_near_f():
    beam = round_beam(40e-6)
    field = make_gaussian_field(beam, (0.0, 0.0), (512, 512, 0.35e-6))
    focal = 300e-6
    result = find_focus(
        field, [(0.0, ThinLensPhase(focal))], z_search=(150e-6, 450e-6, 33)
    )
    # waist of a focused Gaussian sits at f / (1 + (f/z_R)^2), not at f
    z_r = rayleigh_length(beam, "x")
    expected_z = focal / (1.0 + (focal / z_r) ** 2)
    expected_mfd = 2.0 * 20e-6 / math.sqrt(1.0 + (z_r / focal) ** 2)
    assert result.z_focus == pytest.approx(expected_z, rel=0.01)
    assert result.metrics.mfd_fit[0] == pytest.approx(expected_mfd, rel=0.02)


def test_circular_aperture_clipping_fraction():
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (512, 512, 0.25e-6))
    w0 = 2.5e-6
    clipped = apply_element(field, CircAperture(w0))
    # Gaussian power outside radius w0 is exp(-2); the pixelized aperture
    # edge shifts the discrete sum by about a percent at 10 samples per w0
    assert clipped.clipped_fraction == pytest.approx(math.exp(-2.0), rel=0.02)
    assert field_power(clipped) == pytest.approx(1.0 - math.exp(-2.0), rel=0.005)


def test_clipping_accumulates_across_elements():
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (512, 512, 0.25e-6))
    once = apply_element(field, CircAperture(2.5e-6))
    twice = apply_element(once, CircAperture(3.5e-6))
    assert twice.clipped_fraction >= once.clipped_fraction
    assert twice.clipped_fraction == pytest.approx(
        1.0 - field_power(twice) / field_power(field), abs=1e-12
    )


def test_grid_halving_keeps_fitted_width():
    # same physical window sampled at 0.30 um and 0.15 um
    beam = round_beam()
    coarse = make_gaussian_field(beam, (0.0, 0.0), (256, 256, 0.30e-6))
    fine = make_gaussian_field(beam, (0.0, 0.0), (512, 512, 0.15e-6))
    z = 60e-6
    m_coarse = spot_metrics(angular_spectrum_propagate(coarse, z))
    m_fine = spot_metrics(angular_spectrum_propagate(fine, z))
    assert m_coarse.mfd_fit[0] == pytest.approx(m_fine.mfd_fit[0], rel=0.005)
    assert m_coarse.mfd_fit[1] == pytest.approx(m_fine.mfd_fit[1], rel=0.005)


def test_source_far_off_the_window_fails_without_overflow_warning():
    # the offset squared overflows to inf, which lies beyond the envelope's span
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="carries no power"):
            make_gaussian_field(
                round_beam(), (0.0, 0.0), (128, 128, 0.25e-6), center=(1e154, -1e160)
            )


def test_centered_source_honours_offset():
    field = make_gaussian_field(
        round_beam(), (0.0, 0.0), (512, 512, 0.25e-6), center=(10e-6, -4e-6)
    )
    metrics = spot_metrics(field)
    assert metrics.centroid[0] == pytest.approx(10e-6, abs=5e-9)
    assert metrics.centroid[1] == pytest.approx(-4e-6, abs=5e-9)


def gaussian_profile(x, amplitude, centre, radius):
    return amplitude * np.exp(-2.0 * ((x - centre) / radius) ** 2)


@pytest.fixture(scope="module")
def compact_centre_profile(compact_pipeline):
    """(x, |E|^2 on the row through the centroid, centroid x, moment
    radius x) of the compact centre channel at its focus: what
    spot_metrics hands _fit_profile."""
    pipe = compact_pipeline
    centre = int(np.argmin(np.abs(pipe["positions"])))
    _, result = simulate_channel(
        pipe["prescription"], pipe["array"], centre, pipe["scenario"].mirror,
        grid=pipe["scenario"].grid, with_result=True,
    )
    field, metrics = result.field_at_focus, result.metrics
    profile = wavefield.interp_row(field.samples, field.y, metrics.centroid[1], axis=0)
    return field.x, profile, metrics.centroid[0], metrics.mfd_moment[0] / 2.0


def test_fit_recovers_an_exact_gaussian():
    x = (np.arange(512) - 256) * 0.1e-6
    profile = gaussian_profile(x, 2.5, 0.37e-6, 3.1e-6)
    radius = wavefield._fit_profile(x, profile, 0.0, 4.0e-6)
    assert radius == pytest.approx(3.1e-6, rel=1e-12)


def test_fit_holds_still_under_rounding_noise(compact_centre_profile):
    x, profile, c0, w0 = compact_centre_profile
    rng = np.random.default_rng(5)
    radii = [
        wavefield._fit_profile(x, profile * (1.0 + 1e-15 * rng.standard_normal(len(x))), c0, w0)
        for _ in range(6)
    ]
    assert max(radii) / min(radii) - 1.0 <= 1e-9


def test_fit_agrees_with_a_tight_minpack_fit(compact_centre_profile):
    from scipy.optimize import curve_fit

    x, profile, c0, w0 = compact_centre_profile

    def jacobian(x, amplitude, centre, radius):
        u = (x - centre) / radius
        e = np.exp(-2.0 * u * u)
        return np.stack([e, amplitude * e * 4.0 * u / radius,
                         amplitude * e * 4.0 * u * u / radius], axis=1)

    params, _ = curve_fit(
        gaussian_profile, x, profile, p0=[profile.max(), c0, w0], jac=jacobian,
        xtol=1e-15, ftol=1e-15, gtol=1e-15, maxfev=5000,
    )
    radius = wavefield._fit_profile(x, profile, c0, w0)
    assert radius == pytest.approx(abs(params[2]), rel=1e-9)


def test_fit_returns_none_on_degenerate_input():
    x = (np.arange(256) - 128) * 0.1e-6
    gaussian = gaussian_profile(x, 1.0, 0.0, 1e-6)
    spike = np.zeros_like(x)
    spike[128] = 1.0
    cases = [
        (np.zeros_like(x), 0.0, 1e-6),  # no power
        (gaussian, 0.0, 0.0),  # w0 <= 0
        (gaussian, 0.0, -1e-6),
        (spike, 0.0, 0.1e-6),  # one sample: the fit narrows onto it
        # the model underflows on every sample: a zero, singular normal matrix
        (gaussian, 1e-3, 1e-6),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for profile, c0, w0 in cases:
            assert wavefield._fit_profile(x, profile, c0, w0) is None


def test_fit_returns_none_when_it_does_not_stop(monkeypatch):
    x = (np.arange(512) - 256) * 0.1e-6
    profile = gaussian_profile(x, 2.5, 0.37e-6, 3.1e-6)
    assert wavefield._fit_profile(x, profile, 0.0, 4.0e-6) is not None
    # from 30 % off, two trial points cannot bring the step down to _FIT_STEP_TOL
    monkeypatch.setattr(wavefield, "_FIT_MAX_EVALS", 2)
    assert wavefield._fit_profile(x, profile, 0.0, 4.0e-6) is None


def test_spot_metrics_reports_the_moments_when_the_fit_fails():
    # two spots on opposite corners: the centroid's row and column are dark
    samples = np.zeros((64, 64), dtype=complex)
    samples[10:13, 10:13] = samples[51:54, 51:54] = 1.0
    metrics = spot_metrics(ScalarField(samples, 0.1e-6, WL))
    assert metrics.fit_failed
    assert metrics.mfd_moment[0] > 0 and metrics.mfd_moment[1] > 0
    assert metrics.mfd_fit == metrics.mfd_moment


def test_pitch_too_coarse_raises():
    with pytest.raises(SamplingError):
        make_gaussian_field(
            beam_from_mfd(2.0e-6, 5.0e-6, WL), (0.0, 0.0), (256, 256, 0.30e-6)
        )


def test_window_too_small_raises():
    with pytest.raises(SamplingError):
        make_gaussian_field(
            beam_from_mfd(2.0e-6, 6.0e-6, WL), (0.0, 0.0), (64, 64, 0.25e-6)
        )


# a 20 um MFD source on a 2 um pitch: the pitch samples a phase ramp only
# up to |sin(tilt)| = WL / (2 * 2 um) = 0.182
COARSE_GRID = (64, 64, 2e-6)
SAMPLED_SIN = WL / (2.0 * COARSE_GRID[2])


@pytest.mark.parametrize("tilt", [(0.0, math.radians(20.8)), (math.radians(-20.8), 0.0)])
def test_tilt_the_pitch_aliases_raises(tilt):
    # compact.json's 20.8 degree exit angle, sin = 0.355, would alias
    with pytest.raises(SamplingError, match="aliases on pitch"):
        make_gaussian_field(round_beam(20e-6), tilt, COARSE_GRID)


def test_tilt_just_inside_the_sampling_limit_is_sampled():
    tilt = math.asin(SAMPLED_SIN * (1.0 - 1e-9))
    field = make_gaussian_field(round_beam(20e-6), (0.0, tilt), COARSE_GRID)
    assert field_power(field) == pytest.approx(1.0, rel=1e-12)


def test_wedge_the_pitch_aliases_raises():
    field = make_gaussian_field(round_beam(20e-6), (0.0, 0.0), COARSE_GRID)
    with pytest.raises(SamplingError, match="aliases on pitch"):
        apply_element(field, WedgePhase(-math.asin(1.01 * SAMPLED_SIN)))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_source_tilt_rejected(bad):
    # checked before math.sin: inf raised a bare ValueError, nan gave a NaN field
    with pytest.raises(InvalidInputError, match="tilt must be finite"):
        make_gaussian_field(round_beam(20e-6), (bad, 0.0), COARSE_GRID)


def test_nan_wedge_rejected():
    with pytest.raises(InvalidInputError, match="below 30 degrees, got nan rad"):
        WedgePhase(math.nan)


def test_nan_lens_rejected_and_an_infinite_one_is_a_flat_plate():
    with pytest.raises(InvalidInputError, match="not NaN, got nan"):
        ThinLensPhase(math.nan)
    field = make_gaussian_field(round_beam(20e-6), (0.0, 0.0), COARSE_GRID)
    assert np.array_equal(apply_element(field, ThinLensPhase(math.inf)).samples, field.samples)


def test_propagation_window_guard():
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (128, 128, 0.25e-6))
    with pytest.raises(PropagationWindowError):
        angular_spectrum_propagate(field, 2e-3)


@pytest.mark.parametrize("distance", [math.nan, math.inf, -math.inf], ids=repr)
def test_non_finite_distance_rejected(distance):
    # every guard comparison is false for NaN and inf makes the predicted
    # variance NaN, so both reached _transfer and gave an all-NaN field;
    # -inf failed as a PropagationWindowError
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (128, 128, 0.25e-6))
    planes = FreeSpacePlanes(field)
    message = f"^propagation distance must be finite, got {distance}$"
    for read in (lambda d: angular_spectrum_propagate(field, d), planes.plane,
                 planes.x_variance, lambda d: wavefield._window_guard(field, planes.spectrum, d)):
        with pytest.raises(InvalidInputError, match=message):
            read(distance)


def test_find_focus_validation(fft_calls):
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (256, 256, 0.25e-6))
    with pytest.raises(InvalidInputError):
        find_focus(field, [], z_search=(10e-6, 100e-6, 8))
    # 2**62 steps over 250 um make the refining step about 1e-22 m, below
    # one ulp of z near 500 um: centre +- h would collapse to one float
    with pytest.raises(InvalidInputError, match="z_search steps 4611686018427387904 "):
        find_focus(field, [], z_search=(250e-6, 500e-6, 2**62))
    with pytest.raises(InvalidInputError):
        find_focus(
            field,
            [(50e-6, ThinLensPhase(100e-6))],
            z_search=(10e-6, 100e-6, 33),
        )
    assert fft_calls == []  # every check runs before the first transform


def test_find_focus_needs_bracketing_minimum():
    # a diverging beam has no width minimum past the source
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (512, 512, 0.25e-6))
    with pytest.raises(FocusNotBracketedError):
        find_focus(field, [], z_search=(40e-6, 120e-6, 33))


def lens_focus(mfd, focal, tilt=0.0):
    """A round Gaussian through a thin lens at z = 0 on a 256^2 grid, and
    its ABCD waist position."""
    beam = round_beam(mfd)
    field = make_gaussian_field(beam, (0.0, tilt), (256, 256, 0.25e-6))
    z_waist = propagate_abcd(beam, [ThinLens(focal)]).x.waist_position
    return field, [(0.0, ThinLensPhase(focal))], z_waist


# waists and focal lengths keep the focused beam's divergence below
# 0.07 rad, where the paraxial ABCD waist applies; the wave focus moves
# toward the lens by about half the squared divergence
@settings(max_examples=15, deadline=None)
@given(
    mfd=st.floats(min_value=6e-6, max_value=10e-6),
    focal=st.floats(min_value=80e-6, max_value=200e-6),
)
def test_find_focus_matches_abcd_waist(mfd, focal):
    field, elements, z_waist = lens_focus(mfd, focal)
    result = find_focus(field, elements, z_search=(0.5 * z_waist, 1.5 * z_waist, 33))
    assert result.z_focus == pytest.approx(z_waist, rel=0.005)
    # in free space the variance is exactly quadratic in z
    assert 0.0 <= result.fit_residual < 1e-6


def test_find_focus_beam_slope_follows_tilt():
    tilt = 0.03
    field, elements, z_waist = lens_focus(8e-6, 100e-6, tilt=tilt)
    result = find_focus(field, elements, z_search=(0.5 * z_waist, 1.5 * z_waist, 33))
    assert result.beam_slope == pytest.approx(math.tan(tilt), rel=0.01)


@pytest.mark.parametrize("window", [(1.5, 3.0), (0.2, 0.7)])
def test_find_focus_window_missing_the_waist(window):
    field, elements, z_waist = lens_focus(8e-6, 100e-6)
    with pytest.raises(FocusNotBracketedError):
        find_focus(
            field, elements, z_search=(window[0] * z_waist, window[1] * z_waist, 33)
        )


def pruned(fft_calls):
    """Per 2-d transform so far: True where it ran pruned."""
    return [ran_pruned for _, ran_pruned in fft_calls]


def test_find_focus_transform_count(fft_calls):
    field, elements, z_waist = lens_focus(8e-6, 100e-6)
    find_focus(field, elements, z_search=(0.5 * z_waist, 1.5 * z_waist, 33))
    calls = pruned(fft_calls)
    assert 0 < len(calls) <= 14
    # the lens leaves the source's nonzero columns, the whole grid, so only
    # the forward transform runs whole; every inverse runs on the band
    assert calls == [False] + [True] * (len(calls) - 1)


def test_find_focus_guards_from_one_moment_pass(fft_calls):
    # the wider source's window ends need the guard's covariance: one
    # forward FFT, one for the covariance (both window ends and the focus
    # plane share one pass of the moments), three fit planes and the focus
    # plane (the 8 um source clears its window without the covariance)
    field, elements, z_waist = lens_focus(16e-6, 100e-6)
    result = find_focus(field, elements, z_search=(0.5 * z_waist, 1.5 * z_waist, 33))
    assert "_covs" in vars(result.planes)
    assert len(fft_calls) == 6


def test_find_focus_guards_far_window_end():
    field, elements, z_waist = lens_focus(8e-6, 100e-6)
    message = (
        "propagating 3.867e-04 m would move the beam (x-extent 5.039e-05 m) "
        "outside the safe half-window 3.200e-05 m; enlarge the grid or split "
        "the propagation"
    )
    with pytest.raises(PropagationWindowError, match=re.escape(message)):
        find_focus(field, elements, z_search=(0.5 * z_waist, 12.0 * z_waist, 33))


def test_covariance_reads_the_power_of_the_moment_pass(monkeypatch):
    # the cheap pass keeps the field's power sum, so the covariance takes
    # no second read of the grid for it; the Cauchy-Schwarz limit cannot
    # clear this converging beam at the lens's focal length
    field, elements, _ = lens_focus(16e-6, 100e-6)
    planes = FreeSpacePlanes(propagate_elements(field, elements))
    reads = []
    power_sum = wavefield._power_sum
    monkeypatch.setattr(wavefield, "_power_sum", lambda s: reads.append(s.shape) or power_sum(s))
    planes.guard(100e-6)
    assert "_covs" in vars(planes)
    assert reads == []


def test_zero_distance_is_the_identity_without_an_inverse_transform(fft_calls):
    field = make_gaussian_field(round_beam(), (0.0, 0.02), (128, 128, 0.25e-6))
    assert np.array_equal(angular_spectrum_propagate(field, 0.0).samples, field.samples)
    assert fft_calls == []
    planes = FreeSpacePlanes(field)
    assert np.array_equal(planes.plane(0.0).samples, field.samples)
    vx = wavefield._intensity_stats(field.samples, field.x, field.y)[3]
    assert planes.x_variance(0.0) == vx
    assert [inverse for inverse, _ in fft_calls] == [False]  # the spectrum alone


def test_short_unclipped_step_needs_no_covariance(fft_calls):
    # the bound clears the step: one forward and one inverse FFT
    field = make_gaussian_field(round_beam(), (0.0, 0.02), (128, 128, 0.25e-6))
    angular_spectrum_propagate(field, 20e-6)
    calls = pruned(fft_calls)
    assert len(calls) == 2
    # the source reaches every column; the inverse runs on the band's
    assert calls == [False, True]


def test_find_focus_takes_the_covariance_in_one_transform(fft_calls):
    # one forward FFT, one whole inverse for the covariance the window ends
    # need, then three fit planes and the focus plane on the band
    field, elements, z_waist = lens_focus(16e-6, 100e-6)
    result = find_focus(field, elements, z_search=(0.5 * z_waist, 1.5 * z_waist, 33))
    assert "_covs" in vars(result.planes)
    assert fft_calls == [(False, False), (True, False)] + [(True, True)] * 4


def test_find_focus_guards_every_plane_it_reads(compact_pipeline, monkeypatch):
    # every transfer build, in the stack and past it, is of a guarded distance
    guarded, built = [], []
    real_guard, real_transfer = wavefield.FreeSpacePlanes.guard, wavefield._transfer

    def guard(self, *distances, **kwargs):
        guarded.extend(distances)
        return real_guard(self, *distances, **kwargs)

    def transfer(field, distance, *args, **kwargs):
        built.append(distance)
        return real_transfer(field, distance, *args, **kwargs)

    monkeypatch.setattr(wavefield.FreeSpacePlanes, "guard", guard)
    monkeypatch.setattr(wavefield, "_transfer", transfer)
    pipe = compact_pipeline
    simulate_channel(
        pipe["prescription"], pipe["array"], 1, pipe["scenario"].mirror,
        grid=pipe["scenario"].grid,
    )
    # the stack's steps, three x-variance planes and the focus plane
    assert len(built) == 7
    assert [d for d in built if d not in guarded] == []


def compact_exit_planes(pipe, channel):
    """(FreeSpacePlanes of the channel's field at the stack top, ABCD image
    distance past it) of compact.json."""
    from ionoptics import designer

    prescription, array = pipe["prescription"], pipe["array"]
    elements, x, tilt_deg = designer._launch(
        prescription, array, pipe["scenario"].mirror, channel
    )
    beam = beam_from_mfd(*array.mode_mfd_m, prescription.targets.wavelength)
    source = make_gaussian_field(
        beam, (0.0, math.radians(tilt_deg)), pipe["scenario"].grid, center=(x, 0.0)
    )
    exit_field = propagate_elements(source, elements)
    return FreeSpacePlanes(exit_field), prescription.predicted_image_distance


def full_plane_variance(planes, distance):
    field = planes.plane(distance)
    return wavefield._intensity_stats(field.samples, field.x, field.y)[3]


def test_x_variance_equals_the_full_planes(compact_pipeline):
    planes, dist = compact_exit_planes(compact_pipeline, 0)
    unclipped = FreeSpacePlanes(
        make_gaussian_field(round_beam(), (0.0, 0.02), (256, 256, 0.25e-6))
    )
    cases = [(planes, d) for d in (0.5 * dist, dist, 1.25 * dist)]
    cases += [(unclipped, d) for d in (-20e-6, 35e-6, 80e-6)]
    for reader, distance in cases:
        assert reader.x_variance(distance) == pytest.approx(
            full_plane_variance(reader, distance), rel=1e-13, abs=0.0
        )


def test_x_variance_runs_no_axis_0_pass(compact_pipeline, monkeypatch):
    # one axis-1 inverse pass over the band's rows alone
    planes, dist = compact_exit_planes(compact_pipeline, 0)
    passes = []
    transform = scipy.fft.ifft

    def counted(samples, *args, axis=-1, **kwargs):
        passes.append((samples.shape, axis))
        return transform(samples, *args, axis=axis, **kwargs)

    monkeypatch.setattr(scipy.fft, "ifft", counted)
    planes.x_variance(dist)
    nx, ny = planes.field.nx, planes.field.ny
    [(shape, axis)] = passes
    assert axis == 1 and shape[1] == nx and 0 < shape[0] < ny


def plane_reads(monkeypatch):
    """Lists of (FreeSpacePlanes, distance) of every x_variance and every
    plane() call from now on."""
    x_only, whole = [], []
    x_variance, plane = FreeSpacePlanes.x_variance, FreeSpacePlanes.plane

    def counted_x_variance(self, distance):
        x_only.append((self, distance))
        return x_variance(self, distance)

    def counted_plane(self, distance):
        whole.append((self, distance))
        return plane(self, distance)

    monkeypatch.setattr(FreeSpacePlanes, "x_variance", counted_x_variance)
    monkeypatch.setattr(FreeSpacePlanes, "plane", counted_plane)
    return x_only, whole


def test_compact_search_reads_three_variance_planes(compact_pipeline, monkeypatch):
    # the search's first triple is centred on the ABCD image plane, within
    # two refining steps of the wave focus
    pipe = compact_pipeline
    x_only, whole = plane_reads(monkeypatch)
    _, result = simulate_channel(
        pipe["prescription"], pipe["array"], 1, pipe["scenario"].mirror,
        grid=pipe["scenario"].grid, with_result=True,
    )
    assert len(x_only) == 3 and all(planes is result.planes for planes, _ in x_only)
    assert [d for planes, d in whole if planes is result.planes] == [
        result.z_focus - pipe["prescription"].stack_height
    ]


def test_prism_mismatch_search_takes_a_second_triple(compact_pipeline, monkeypatch):
    from ionoptics import designer

    pipe = compact_pipeline
    prescription, array = pipe["prescription"], pipe["array"]
    launch = designer._launch(prescription, array, pipe["scenario"].mirror, 0)
    launch = designer.SWEEP_PARAMETERS["prism_design_angle"].perturb(*launch, 7.0)[:3]
    x_only, whole = plane_reads(monkeypatch)
    _, result = designer._search(
        prescription, array, pipe["scenario"].grid, None, 0, launch
    )
    assert len(x_only) == 6 and all(planes is result.planes for planes, _ in x_only)
    assert len([d for planes, d in whole if planes is result.planes]) == 1


def test_find_focus_clamps_its_centre_into_the_window(monkeypatch):
    field, elements, z_waist = lens_focus(8e-6, 100e-6)
    z_search = (0.5 * z_waist, 1.5 * z_waist, 33)
    h = 2.0 * z_waist / 32
    default = find_focus(field, elements, z_search)
    x_only, _ = plane_reads(monkeypatch)
    result = find_focus(field, elements, z_search, 10.0 * z_waist)
    # the first triple ends at z_max; its vertex, at the waist, lies far
    # beyond 2 h of it, so a second triple is centred there
    distances = [d for _, d in x_only]
    assert distances[:3] == pytest.approx([1.5 * z_waist - 2 * h, 1.5 * z_waist - h,
                                           1.5 * z_waist], rel=1e-15)
    assert len(distances) == 6
    assert result.z_focus == pytest.approx(default.z_focus, rel=1e-9)


def test_find_focus_recentres_at_most_once(monkeypatch):
    # a quartic x variance moves each vertex a third of the way to its
    # minimum, so the second vertex also lies beyond 2 h of its triple's
    # centre; the search still stops there
    field, elements, z_waist = lens_focus(8e-6, 100e-6)
    z_min, z_max = 0.5 * z_waist, 1.5 * z_waist
    h = 2.0 * (z_max - z_min) / 32
    bottom = z_min + 2.0 * h
    reads = []

    def variance(z):
        return ((z - bottom) / h) ** 4 + 1.0

    def quartic(self, distance):
        reads.append(distance)
        return variance(distance)

    monkeypatch.setattr(FreeSpacePlanes, "x_variance", quartic)
    result = find_focus(field, elements, (z_min, z_max, 33), z_min + 12.0 * h)
    assert len(reads) == 6

    def vertex(zs):
        a, b, _ = np.polyfit(zs, [variance(z) for z in zs], 2)
        return -b / (2.0 * a)

    first, second = vertex(reads[0:3]), vertex(reads[3:6])
    assert abs(first - reads[1]) > 2.0 * h and reads[4] == pytest.approx(first, rel=1e-12)
    assert abs(second - reads[4]) > 2.0 * h
    assert result.z_focus == pytest.approx(second, rel=1e-9)


def test_find_focus_rejects_a_bad_centre_and_a_window_at_the_exit(fft_calls):
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (256, 256, 0.25e-6))
    for centre in (math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="centre must be finite"):
            find_focus(field, [(5e-6, ThinLensPhase(100e-6))], (10e-6, 100e-6, 33), centre)
    # a window starting at the last element would put the exit field on a
    # focus with no distance to take a centroid slope over
    with pytest.raises(InvalidInputError, match="start past the last element"):
        find_focus(field, [(10e-6, ThinLensPhase(100e-6))], (10e-6, 100e-6, 33))
    assert fft_calls == []


def test_compact_design_transform_count(tmp_path, fft_calls):
    from pathlib import Path

    from ionoptics import cli

    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "compact.json"
    code = cli.main(
        ["design", str(scenario), "--report", str(tmp_path / "design.json"),
         "--dump-field", str(tmp_path / "centre.sfld")]
    )
    assert code == 0
    assert 0 < len(fft_calls) <= 65


def two_transform_moments(field, spectrum):
    """The guard's exact moments per axis, (label, centroid, mean
    sin(theta), variance, x-theta covariance, variance of sin(theta),
    samples), with one inverse FFT per axis for the covariance."""
    intensity = np.abs(field.samples) ** 2
    spec_int = np.abs(spectrum) ** 2
    itot, stot = float(intensity.sum()), float(spec_int.sum())
    lam = field.wavelength
    re, im = field.samples.real, field.samples.imag
    moments = []
    for label, axis, coords in (("x", 0, field.x), ("y", 1, field.y)):
        n = len(coords)
        freq = scipy.fft.fftfreq(n, field.pitch)
        profile = intensity.sum(axis=axis)
        c = float(profile @ coords) / itot
        var = float(profile @ (coords - c) ** 2) / itot
        s_profile = spec_int.sum(axis=axis)
        mean_s = lam * float(s_profile @ freq) / stot
        var_s = lam**2 * float(s_profile @ freq**2) / stot - mean_s**2
        shape = (1, n) if axis == 0 else (n, 1)
        d_field = scipy.fft.ifft2(spectrum * (2j * math.pi * freq.reshape(shape)))
        density = re * d_field.imag - im * d_field.real
        moment = float(density.sum(axis=axis) @ coords)
        cov = moment / (field.wavenumber * itot) - c * mean_s
        moments.append((label, c, mean_s, var, cov, var_s, n))
    return moments


@pytest.mark.parametrize("ny, nx", [(64, 64), (128, 128), (128, 64), (256, 256)])
def test_one_transform_covariance_matches_two(ny, nx):
    rng = np.random.default_rng(nx + ny)
    for _ in range(3):
        field = ScalarField(
            rng.standard_normal((ny, nx)) + 1j * rng.standard_normal((ny, nx)),
            0.25e-6, WL,
        )
        spectrum = scipy.fft.fft2(field.samples)
        axes = wavefield.FreeSpacePlanes(field, spectrum).axes
        covs = wavefield._window_covariance(
            field, spectrum, axes, wavefield._power_sum(field.samples)
        )
        for cov, exact in zip(covs, two_transform_moments(field, spectrum)):
            _, _, _, var, cov_exact, var_s, _ = exact
            assert abs(cov - cov_exact) <= 1e-12 * math.sqrt(var * var_s)


def window_error(check, *args):
    """The PropagationWindowError message `check(*args)` raises, or None."""
    try:
        check(*args)
    except PropagationWindowError as exc:
        return str(exc)
    return None


# Gaussians of any width the window takes, with any tilt and centre,
# converging or diverging behind an optional lens, optionally clipped to
# a fraction of the waist: the bound may clear a distance only
# where the exact check passes, and a raise carries the exact message
@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([64, 128]),
    fill=st.floats(min_value=0.55, max_value=0.95),
    tilt=st.tuples(*[st.floats(min_value=-0.15, max_value=0.15)] * 2),
    centre=st.tuples(*[st.floats(min_value=-2e-6, max_value=2e-6)] * 2),
    focal=st.one_of(
        st.none(),
        st.floats(min_value=20e-6, max_value=150e-6),
        st.floats(min_value=-150e-6, max_value=-20e-6),
    ),
    clip=st.one_of(st.none(), st.floats(min_value=0.5, max_value=1.5)),
    steps=st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=4),
)
def test_guard_decides_as_the_exact_check(n, fill, tilt, centre, focal, clip, steps):
    # a `fill` of 1 would be the widest beam the window takes (8 waists),
    # one of 0.5 the narrowest the pitch resolves (4 samples per waist)
    waist = fill * n * 0.25e-6 / 8.0
    field = make_gaussian_field(
        round_beam(2.0 * waist), tilt, (n, n, 0.25e-6), center=centre
    )
    if clip is not None:
        field = apply_element(field, CircAperture(clip * waist))
    if focal is not None:
        field = apply_element(field, ThinLensPhase(focal))
    planes = FreeSpacePlanes(field)
    exact = two_transform_moments(field, planes.spectrum)
    # _check_window takes the cheap pass's axes and the covariances apart
    axes = [(label, c, mean_s, var, var_s, n)
            for label, c, mean_s, var, _, var_s, n in exact]
    covs = [cov for _, _, _, _, cov, _, _ in exact]
    # distances in units of the focal length reach past the focus, where
    # only the covariance tells a converging beam from a diverging one
    for d in np.multiply(steps, 100e-6 if focal is None else abs(focal)):
        expected = window_error(wavefield._check_window, field, axes, covs, d)
        assert window_error(planes.guard, d) == expected
        assert window_error(wavefield._window_guard, field, planes.spectrum, d) == expected


def band_projection(field):
    """The field's samples without their evanescent plane waves
    (kx^2 + ky^2 >= k^2), which free-space propagation discards."""
    kx = 2.0 * math.pi * scipy.fft.fftfreq(field.nx, field.pitch)
    ky = 2.0 * math.pi * scipy.fft.fftfreq(field.ny, field.pitch)
    k = field.wavenumber
    band = k * k - kx[None, :] ** 2 - ky[:, None] ** 2 > 0.0
    return scipy.fft.ifft2(np.where(band, scipy.fft.fft2(field.samples), 0.0))


# elliptical Gaussians of any size the window takes, with any tilt, centre
# and distance the guard accepts: propagation keeps the power of the
# source's propagating band and a z / -z round trip returns that band;
# the plain identities miss by the discarded evanescent part
@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from([64, 128]),
    fill=st.tuples(*[st.floats(min_value=0.55, max_value=0.95)] * 2),
    tilt=st.tuples(*[st.floats(min_value=-0.15, max_value=0.15)] * 2),
    centre=st.tuples(*[st.floats(min_value=-2e-6, max_value=2e-6)] * 2),
    distance=st.floats(min_value=-150e-6, max_value=150e-6),
)
def test_free_space_keeps_the_band_and_reverses(n, fill, tilt, centre, distance):
    pitch = 0.25e-6
    # a `fill` of 1 gives the widest waist the window takes (8 waists)
    beam = beam_from_mfd(fill[0] * n * pitch / 4.0, fill[1] * n * pitch / 4.0, WL)
    field = make_gaussian_field(beam, tilt, (n, n, pitch), center=centre)
    try:
        moved = angular_spectrum_propagate(field, distance)
        back = angular_spectrum_propagate(moved, -distance)
    except PropagationWindowError:
        reject()
    expected = field.samples if distance == 0.0 else band_projection(field)
    expected_power = float(np.sum(np.abs(expected) ** 2)) * pitch**2
    assert field_power(moved) == pytest.approx(expected_power, rel=1e-12)
    error = np.max(np.abs(back.samples - expected))
    assert error <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("distance", [37.3e-6, -12.9e-6])
def test_transfer_matches_direct_formula(distance):
    field = ScalarField(np.ones((64, 64)), 0.25e-6, WL)
    fx = scipy.fft.fftfreq(64, field.pitch)
    kx = (2.0 * math.pi * fx)[None, :]
    ky = (2.0 * math.pi * fx)[:, None]
    kz_sq = field.wavenumber**2 - kx * kx - ky * ky
    mask = kz_sq > 0.0
    kz = np.sqrt(np.where(mask, kz_sq, 0.0))
    expected = np.where(mask, np.exp(1j * kz * distance), 0.0)
    assert np.array_equal(wavefield._transfer(field, distance), expected)


def direct_transfer(field, distance):
    """exp(i kz d) on the whole FFT grid, zero outside the propagating band."""
    kx = (2.0 * math.pi * scipy.fft.fftfreq(field.nx, field.pitch))[None, :]
    ky = (2.0 * math.pi * scipy.fft.fftfreq(field.ny, field.pitch))[:, None]
    kz_sq = field.wavenumber**2 - kx * kx - ky * ky
    mask = kz_sq > 0.0
    kz = np.sqrt(np.where(mask, kz_sq, 0.0))
    return np.where(mask, np.exp(1j * kz * distance), 0.0)


# square, non-square, a pitch above lambda/2, where the band reaches the
# Nyquist index, which is its own mirror image, and the compact scenario's
# grid, whose quadrant holds 96,100 entries but 39,330 distinct kz
@pytest.mark.parametrize(
    "nx, ny, pitch",
    [(128, 128, 0.25e-6), (256, 128, 0.22e-6), (64, 128, 0.4e-6), (1024, 1024, 0.22e-6)],
)
@pytest.mark.parametrize("distance", [37.3e-6, -12.9e-6])
def test_quadrant_transfer_times_spectrum_is_exact(nx, ny, pitch, distance):
    rng = np.random.default_rng(3)
    field = ScalarField(
        rng.standard_normal((ny, nx)) + 1j * rng.standard_normal((ny, nx)), pitch, WL
    )
    spectrum = FreeSpacePlanes(field).spectrum
    index = wavefield._kz_quadrant(nx, ny, pitch, field.wavenumber)[1]
    reaches_nyquist = index.shape == (ny // 2 + 1, nx // 2 + 1)
    assert reaches_nyquist == (pitch > WL / 2)
    product = wavefield._transfer(field, distance, spectrum)
    assert np.array_equal(wavefield._transfer(field, distance), direct_transfer(field, distance))
    assert np.array_equal(product, wavefield._transfer(field, distance) * spectrum)
    assert np.array_equal(product, direct_transfer(field, distance) * spectrum)


def zero_outside(columns, ny, nx):
    """A random complex ny x nx grid, zero outside the column slices `columns`."""
    rng = np.random.default_rng(11)
    grid = np.zeros((ny, nx), dtype=np.complex128)
    for c in columns:
        block = grid[:, c]
        block[...] = rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape)
    return grid


def band_columns(nx, q):
    """The band's two column blocks on nx columns, q of them in its quadrant."""
    return [c for c, _ in wavefield._band_blocks(nx, q)]


# the band's blocks on square and non-square grids, one block reaching the
# Nyquist column (the blocks then cover every column), a support span, a
# single column, and a grid with no nonzero column
@pytest.mark.parametrize(
    "ny, nx, columns",
    [
        (128, 128, band_columns(128, 44)),
        (64, 256, band_columns(256, 61)),
        (256, 64, band_columns(64, 20)),
        (128, 64, band_columns(64, 33)),
        (128, 256, [slice(37, 169)]),
        (64, 128, [slice(77, 78)]),
        (64, 64, [slice(0, 0)]),
    ],
)
@pytest.mark.parametrize("inverse", [False, True])
def test_pruned_transform_is_bit_identical(ny, nx, columns, inverse):
    grid = zero_outside(columns, ny, nx)
    expected = (scipy.fft.ifft2 if inverse else scipy.fft.fft2)(grid)
    result = wavefield._fft2(grid.copy(), inverse, columns)
    assert np.array_equal(result.view(np.float64), expected.view(np.float64))


@pytest.mark.parametrize("distance", [37.3e-6, -12.9e-6])
def test_planes_behind_an_aperture_are_bit_identical(distance):
    # the forward transform runs on the opening's columns and the inverse
    # on the band's; both equal full 2-d transforms
    field = make_gaussian_field(round_beam(), (0.0, 0.02), (256, 128, 0.22e-6))
    field = apply_element(field, CircAperture(6e-6))
    planes = FreeSpacePlanes(field)
    spectrum = scipy.fft.fft2(field.samples)
    assert np.array_equal(planes.spectrum.view(np.float64), spectrum.view(np.float64))
    expected = scipy.fft.ifft2(wavefield._transfer(field, distance, spectrum))
    samples = planes.plane(distance).samples
    assert np.array_equal(samples.view(np.float64), expected.view(np.float64))


@pytest.mark.parametrize("tilt", [(0.0, 0.12), (0.0, -0.2), (0.07, 0.0)])
def test_tilt_ramps_equal_the_2d_phase(tilt):
    # a window wide enough that the envelope underflows to 0 at its edges
    nx, ny, pitch = 512, 1024, 0.3e-6
    beam, center = beam_from_mfd(2.45e-6, 5.2e-6, WL), (1.5e-6, -0.5e-6)
    k = 2.0 * math.pi / WL
    x = (np.arange(nx) - nx // 2) * pitch - center[0]
    y = (np.arange(ny) - ny // 2) * pitch - center[1]
    xg, yg = x[None, :], y[:, None]
    expected = np.exp(
        -(xg / beam.x.waist_radius) ** 2 - (yg / beam.y.waist_radius) ** 2
    ) * np.exp(1j * k * (math.sin(tilt[0]) * xg + math.sin(tilt[1]) * yg))
    expected /= math.sqrt(np.sum(np.abs(expected) ** 2) * pitch**2)
    assert not expected[0].any() and not expected[:, 0].any()
    field = make_gaussian_field(beam, tilt, (nx, ny, pitch), center=center)
    # the outer product of the two profiles is the 2-d exp to rounding
    profile_x, profile_y = wavefield._gaussian_profiles(beam, tilt, (nx, ny, pitch), center)
    assert np.array_equal(field.samples, np.multiply.outer(profile_y, profile_x))
    peak = np.abs(expected).max()
    assert np.abs(field.samples - expected).max() <= 1e-15 * peak
    assert not field.samples[0].any() and not field.samples[:, 0].any()

    ramp = np.exp(1j * k * (math.sin(tilt[1]) * field.y[:, None]))
    wedged = apply_element(field, WedgePhase(tilt[1]))
    assert np.array_equal(wedged.samples, field.samples * ramp)


def test_general_tilt_agrees_to_rounding():
    beam, tilt, pitch = round_beam(), (0.05, 0.11), 0.25e-6
    field = make_gaussian_field(beam, tilt, (128, 128, pitch))
    k, w0 = field.wavenumber, beam.x.waist_radius
    xg, yg = field.x[None, :], field.y[:, None]
    expected = np.exp(-(xg / w0) ** 2 - (yg / w0) ** 2) * np.exp(
        1j * k * (math.sin(tilt[0]) * xg + math.sin(tilt[1]) * yg)
    )
    expected /= math.sqrt(np.sum(np.abs(expected) ** 2) * pitch**2)
    np.testing.assert_allclose(field.samples, expected, rtol=1e-13)


# random fields, some zero outside a support box and some holding -0.0:
# the einsum column sums, power total and row moments agree with sums of
# the |E|^2 grid
@settings(max_examples=60, deadline=None)
@given(
    ny=st.sampled_from([64, 128, 256]),
    nx=st.sampled_from([64, 128, 256]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    box=st.one_of(st.none(), st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 4)),
    negative_zeros=st.booleans(),
)
def test_marginals_match_the_intensity_grid(ny, nx, seed, box, negative_zeros):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((ny, nx)) + 1j * rng.standard_normal((ny, nx))
    outside = np.zeros((ny, nx), dtype=bool)
    if box is not None:
        r0, r1 = sorted(int(b * ny) for b in box[:2])
        c0, c1 = sorted(int(b * nx) for b in box[2:])
        outside[:] = True
        outside[r0 : r1 + 1, c0 : c1 + 1] = False
        samples[outside] = 0.0
    if negative_zeros:
        samples.real[outside | (rng.random((ny, nx)) < 0.1)] = -0.0
        samples.imag[rng.random((ny, nx)) < 0.1] = -0.0
    intensity = np.abs(samples) ** 2
    ix = wavefield._column_sums(samples)
    np.testing.assert_allclose(ix, intensity.sum(axis=0), rtol=1e-14, atol=0)
    total = float(intensity.sum())
    assert abs(wavefield._power_sum(samples) - total) <= 1e-14 * total
    # the row sums, through the total and y moments _intensity_stats takes of them
    x, y = np.arange(nx) - nx / 2, np.arange(ny) - ny / 2
    if total == 0.0:
        with pytest.raises(InvalidInputError, match="^field has no power$"):
            wavefield._intensity_stats(samples, x, y)
        return
    stats_total, _, cy, _, vy = wavefield._intensity_stats(samples, x, y)
    assert stats_total == wavefield._power_sum(samples)
    iy = intensity.sum(axis=1)
    cy_grid = float(iy @ y) / total
    assert abs(cy - cy_grid) <= 1e-13 * ny
    assert abs(vy - float(iy @ (y - cy_grid) ** 2) / total) <= 1e-13 * ny**2


def test_window_moments_build_no_intensity_grid():
    field = make_gaussian_field(round_beam(), (0.0, 0.05), (512, 512, 0.25e-6))
    spectrum = scipy.fft.fft2(field.samples)
    tracemalloc.start()
    try:
        wavefield.FreeSpacePlanes(field, spectrum).axes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * field.samples.real.nbytes


def test_wedge_allocates_one_grid():
    field = make_gaussian_field(round_beam(), (0.0, 0.05), (512, 512, 0.25e-6))
    tracemalloc.start()
    try:
        apply_element(field, WedgePhase(-0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * field.samples.nbytes


@pytest.mark.parametrize("aperture", [CircAperture(6e-6), None])
def test_lens_phase_on_the_support_is_exact(aperture):
    # an off-axis source: the field on its support is not symmetric
    # about the lens axis
    field = make_gaussian_field(
        round_beam(8e-6), (0.0, 0.02), (128, 128, 0.25e-6), center=(2e-6, -1e-6)
    )
    if aperture is not None:
        field = apply_element(field, aperture)
    lens = ThinLensPhase(90e-6)
    x, y = field.x, field.y
    ik_2f = -1j * field.wavenumber / (2.0 * lens.focal_length)
    # a named phase: NumPy may evaluate `samples * <temporary>` in place
    # on the temporary, which swaps the operands and the rounding
    phase = np.exp(ik_2f * (y * y))[:, None] * np.exp(ik_2f * (x * x))[None, :]
    lensed = apply_element(field, lens).samples
    assert np.array_equal(lensed, field.samples * phase)
    # the product of the per-axis exps is the 2-d exp to rounding
    xg, yg = x[None, :], y[:, None]
    phase_2d = np.exp(ik_2f * (xg * xg + yg * yg))
    np.testing.assert_allclose(lensed, field.samples * phase_2d, rtol=1e-13, atol=0)


def test_free_space_planes_match_single_propagations():
    field = make_gaussian_field(round_beam(), (0.0, 0.02), (256, 256, 0.25e-6))
    planes = FreeSpacePlanes(field)
    for distance in (-20e-6, 0.0, 35e-6, 80e-6):
        one = angular_spectrum_propagate(field, distance).samples
        assert np.array_equal(planes.plane(distance).samples, one)


def test_propagate_elements_skips_zero_steps(monkeypatch):
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (128, 128, 0.25e-6))
    elements = [(0.0, CircAperture(8e-6)), (20e-6, CircAperture(6e-6)),
                (20e-6, ThinLensPhase(100e-6))]
    built = []
    transfer = wavefield._transfer

    def recorded(f, distance, *args, **kwargs):
        built.append(distance)
        return transfer(f, distance, *args, **kwargs)

    monkeypatch.setattr(wavefield, "_transfer", recorded)
    out = propagate_elements(field, elements)
    # one step, which ends at an aperture: only the opening's rows are built
    assert built == [20e-6]
    by_hand = apply_element(field, CircAperture(8e-6))
    by_hand = apply_element(FreeSpacePlanes(by_hand).plane(20e-6), CircAperture(6e-6))
    by_hand = apply_element(by_hand, ThinLensPhase(100e-6))
    assert np.array_equal(out.samples, by_hand.samples)
    # the power before the cut comes by Parseval from the spectrum
    assert out.clipped_fraction == pytest.approx(by_hand.clipped_fraction, rel=0, abs=1e-15)


@pytest.mark.parametrize(
    "elements, message",
    [([(20e-6, CircAperture(10e-6)), (5e-6, ThinLensPhase(50e-6))], "non-decreasing"),
     ([(-10e-6, CircAperture(10e-6))], "non-decreasing"),
     ([(math.nan, CircAperture(5e-6))], "non-decreasing"),
     ([CircAperture(5e-6)], "pairs"),
     ([(5e-6, CircAperture(5e-6), 0)], "pairs"),
     ([("5e-6", CircAperture(5e-6))], "pairs"),
     ([(10e-6, "lens")], "unknown")],
    ids=["decreasing", "below-the-source", "nan", "bare-element", "triple", "text-z",
         "unknown-element"],
)
def test_propagate_elements_rejects_a_backward_step(elements, message, fft_calls):
    # find_focus checks the positions before it reads the last one
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (128, 128, 0.25e-6))
    match = {
        "non-decreasing": "^element positions must be non-decreasing and >= 0$",
        "pairs": r"^elements must be \(z, element\) pairs with a real z, got ",
        "unknown": "^unknown element type str$",
    }[message]
    for propagate in (lambda: propagate_elements(field, elements),
                      lambda: find_focus(field, elements, (10e-6, 20e-6, 33))):
        with pytest.raises(InvalidInputError, match=match):
            propagate()
    assert fft_calls == []  # the order is checked before the first transform


def test_the_stack_steps_on_planes_only(monkeypatch):
    # propagate_elements and find_focus take every step from FreeSpacePlanes,
    # through wedges, apertures and lenses alike; only the field API, which
    # the synthesis probe calls, runs angular_spectrum_propagate
    field = make_gaussian_field(round_beam(8e-6), (0.0, 0.02), (256, 256, 0.25e-6))
    lenses = [(10e-6, ThinLensPhase(150e-6)), (30e-6, ThinLensPhase(300e-6))]
    stack = [(5e-6, WedgePhase(-0.02)), (10e-6, CircAperture(12e-6)),
             (10e-6, ThinLensPhase(150e-6)), (30e-6, CircAperture(14e-6)),
             (30e-6, ThinLensPhase(300e-6))]
    probe = field
    for (z, lens), z_prev in zip(lenses, [0.0, 10e-6]):
        probe = apply_element(angular_spectrum_propagate(probe, z - z_prev), lens)

    def field_step(*args):
        raise AssertionError("the stack loop took a field step")

    monkeypatch.setattr(wavefield, "angular_spectrum_propagate", field_step)
    assert np.array_equal(propagate_elements(field, lenses).samples, probe.samples)
    assert propagate_elements(field, stack).clipped_fraction > 0.0
    for elements in (lenses, stack):
        result = find_focus(field, elements, (35e-6, 55e-6, 33))
        assert result.z_focus == pytest.approx(43.45e-6, abs=0.1e-6)


def real_space_path(source, elements):
    """The field just past `elements` the long way: the source field, a
    whole plane for every step and apply_element at every element."""
    field, z_now = source, 0.0
    for z, element in elements:
        if z != z_now:
            field = FreeSpacePlanes(field).plane(z - z_now)
        field, z_now = apply_element(field, element), z
    return field


def compact_launch(pipe, channel, chip_wedge_deg=None):
    """((beam, tilt, grid, center) of a compact.json channel's source, its
    elements up to the first aperture), with a chip wedge if given."""
    from ionoptics import designer

    elements, x, tilt_deg = designer._launch(
        pipe["prescription"], pipe["array"], pipe["scenario"].mirror, channel
    )
    if chip_wedge_deg is not None:
        elements, x, tilt_deg, _ = designer.SWEEP_PARAMETERS["chip_wedge"].perturb(
            elements, x, tilt_deg, chip_wedge_deg
        )
    first = next(i for i, (_, el) in enumerate(elements) if isinstance(el, CircAperture))
    beam = beam_from_mfd(*pipe["array"].mode_mfd_m, pipe["prescription"].targets.wavelength)
    source = (beam, (0.0, math.radians(tilt_deg)), pipe["scenario"].grid, (x, 0.0))
    return source, elements[: first + 1]


@pytest.mark.parametrize("wedges", [1, 2], ids=["one-wedge", "chip-wedge"])
def test_launch_equals_the_real_space_path(compact_pipeline, wedges):
    # an off-axis channel to its first aperture: the source's spectrum from
    # its profiles, each wedge between axis-0 passes and the opening's rows
    source, elements = compact_launch(compact_pipeline, 0, 0.2 if wedges == 2 else None)
    assert source[3][0] != 0.0
    assert sum(isinstance(el, WedgePhase) for _, el in elements) == wedges
    launched = propagate_elements(gaussian_planes(*source), elements)
    by_hand = real_space_path(make_gaussian_field(*source), elements)
    peak = np.abs(by_hand.samples).max()
    assert np.abs(launched.samples - by_hand.samples).max() <= 1e-14 * peak
    assert launched.clipped_fraction == pytest.approx(by_hand.clipped_fraction, rel=0, abs=1e-15)


def test_planes_past_a_wedge_hold_the_moments_of_their_field(compact_pipeline):
    source, elements = compact_launch(compact_pipeline, 0, 0.2)
    planes, z_now = gaussian_planes(*source), 0.0
    for z, wedge in [(z, el) for z, el in elements if isinstance(el, WedgePhase)]:
        planes = planes._wedge(z - z_now, wedge)
        z_now = z
        (_, cx, _, vx, _, _), (_, cy, _, vy, _, _) = planes.axes
        assert "field" not in vars(planes)  # the moments build no field
        field = planes.field
        total, *stats = wavefield._intensity_stats(field.samples, field.x, field.y)
        assert planes._total == pytest.approx(total, rel=1e-12)
        width = math.sqrt(min(vx, vy))
        for got, want in zip((cx, cy), stats[:2]):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * width)
        for got, want in zip((vx, vy), stats[2:]):
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("distance", [28e-6, 32e-6], ids=["passes", "leaves-the-window"])
def test_step_past_a_wedge_takes_the_covariance(distance):
    # the Cauchy-Schwarz limit clears neither step; the covariance clears
    # the first, and both paths give the second step's message
    beam = round_beam(2e-6)
    source = (beam, (0.0, 0.15), (128, 128, 0.25e-6), (1e-6, 0.0))
    wedge = WedgePhase(-0.15)
    planes = gaussian_planes(*source)._wedge(2e-6, wedge)
    by_hand = FreeSpacePlanes(
        apply_element(FreeSpacePlanes(make_gaussian_field(*source)).plane(2e-6), wedge)
    )
    axes = planes.axes
    limits = [math.copysign(math.sqrt(v) * math.sqrt(v_s), distance) for *_, v, v_s, _ in axes]
    assert any(extent > half for _, extent, half in
               wavefield._extents(planes.frame, axes, limits, distance))
    outcomes = []
    for reader in (planes, by_hand):
        try:
            reader.guard(distance)
            outcomes.append(None)
        except PropagationWindowError as exc:
            outcomes.append(str(exc))
        assert "_covs" in vars(reader)
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is None) == (distance == 28e-6)


def test_aperture_plane_keeps_the_rows_of_the_whole_plane():
    field = make_gaussian_field(
        round_beam(), (0.0, 0.02), (256, 128, 0.22e-6), center=(1e-6, 0.5e-6)
    )
    planes, aperture = FreeSpacePlanes(field), CircAperture(6e-6)
    clipped, (rows, cols) = planes._aperture(30e-6, aperture)
    whole = planes.plane(30e-6)
    assert np.array_equal(clipped.samples[rows].view(np.float64),
                          apply_element(whole, aperture).samples[rows].view(np.float64))
    inside = clipped.samples[rows, cols] != 0
    assert inside.any()
    assert np.array_equal(clipped.samples[rows, cols][inside].view(np.float64),
                          whole.samples[rows, cols][inside].view(np.float64))
    assert not clipped.samples[: rows.start].any() and not clipped.samples[rows.stop :].any()
    assert clipped.clipped_fraction == pytest.approx(
        apply_element(whole, aperture).clipped_fraction, rel=0, abs=1e-15
    )


@pytest.mark.parametrize("inverse", [False, True])
def test_transform_passes_are_those_of_the_2d_transform(inverse):
    # the axis-0 pass alone, and the axis-1 pass on some rows: bit for bit
    # the rows of the 2-d transform
    ny, nx = 128, 64
    columns = band_columns(nx, 20)
    grid = zero_outside(columns, ny, nx)
    whole = (scipy.fft.ifft2 if inverse else scipy.fft.fft2)(grid)
    axis_0 = (scipy.fft.ifft if inverse else scipy.fft.fft)(grid, axis=0)
    assert np.array_equal(wavefield._fft2(grid.copy(), inverse, columns, ()).view(np.float64),
                          axis_0.view(np.float64))
    rows = [slice(3, 40), slice(90, 91)]
    result = wavefield._fft2(grid.copy(), inverse, columns, rows)
    for r in rows:
        assert np.array_equal(result[r].view(np.float64), whole[r].view(np.float64))
    assert np.array_equal(result[40:90].view(np.float64), axis_0[40:90].view(np.float64))


def test_gaussian_planes_are_the_planes_of_the_field():
    source = (beam_from_mfd(2.45e-6, 5.2e-6, WL), (0.0, 0.1), (256, 128, 0.22e-6),
              (1.5e-6, -0.5e-6))
    planes, field = gaussian_planes(*source), make_gaussian_field(*source)
    built = FreeSpacePlanes(field)
    peak = np.abs(built.spectrum).max()
    assert np.abs(planes.spectrum - built.spectrum).max() <= 1e-14 * peak
    for got, want in zip(planes.axes, built.axes):
        label, c, mean_s, var, var_s, n = want
        assert got[0] == label and got[5] == n
        assert got[1] == pytest.approx(c, rel=1e-12, abs=1e-12 * math.sqrt(var))
        assert got[2] == pytest.approx(mean_s, rel=1e-12, abs=1e-12 * math.sqrt(var_s))
        assert got[3:5] == pytest.approx((var, var_s), rel=1e-12)
    # a short step clears the Cauchy-Schwarz limit: no field is built
    planes.plane(5e-6)
    assert "field" not in vars(planes)
    assert np.array_equal(planes.field.samples, field.samples)


def test_aliasing_wedge_fails_before_any_pass(fft_calls):
    # a pitch of 1 um aliases a ramp with |sin| >= 0.3645
    source = (round_beam(10e-6), (0.0, 0.0), (128, 128, 1e-6))
    planes = gaussian_planes(*source)
    del fft_calls[:]
    with pytest.raises(SamplingError, match="aliases on pitch") as launched:
        propagate_elements(planes, [(5e-6, WedgePhase(0.4))])
    assert fft_calls == []
    with pytest.raises(SamplingError) as by_hand:
        apply_element(make_gaussian_field(*source), WedgePhase(0.4))
    assert str(launched.value) == str(by_hand.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_non_finite_power_fails_as_invalid_input(bad):
    # NaN comparisons are false, so a NaN field passed every guard; its
    # spot metrics raised a bare ValueError
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (128, 128, 0.25e-6))
    samples = field.samples.copy()
    samples[64, 64] = bad
    broken = ScalarField(samples, field.pitch, field.wavelength)
    message = r"^field power (nan|inf) is not finite$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=message):
            spot_metrics(broken)
        with pytest.raises(InvalidInputError, match=message):
            angular_spectrum_propagate(broken, 10e-6)
    planes = FreeSpacePlanes(field)
    planes.guard(10e-6)
    planes.spectrum[1, 1] = bad
    with pytest.raises(InvalidInputError, match=message):
        planes.x_variance(10e-6)


@pytest.mark.parametrize("samples", [np.full((64, 64), "x", dtype=object),
                                     np.full((64, 64), {}, dtype=object),
                                     np.full((64, 64), None, dtype=object)],
                         ids=["text", "mapping", "none"])
def test_samples_that_are_not_numbers_fail_as_invalid_input(samples):
    with pytest.raises(InvalidInputError, match="^samples must be complex numbers: "):
        ScalarField(samples, 0.25e-6, WL)


def test_grid_above_the_sample_limit_rejected():
    with pytest.raises(InvalidInputError, match="1024 MiB per complex grid"):
        wavefield._check_grid(8192, 8192, 1e-7)


def test_sfld_roundtrip(tmp_path):
    field = make_gaussian_field(
        round_beam(), (0.0, 0.01), (128, 128, 0.25e-6), center=(2e-6, 0.0)
    )
    field = apply_element(field, CircAperture(6e-6))
    path = tmp_path / "dump.sfld"
    write_field_sfld(field, path)
    back = read_field_sfld(path)
    assert back.pitch == field.pitch
    assert back.wavelength == field.wavelength
    assert back.clipped_fraction == pytest.approx(
        field.clipped_fraction, rel=1e-6
    )
    # samples are stored as float32 pairs
    expected = field.samples.real.astype("<f4").astype(
        np.float64
    ) + 1j * field.samples.imag.astype("<f4").astype(np.float64)
    np.testing.assert_array_equal(back.samples, expected)
    # the payload is the interleaved float32 array, byte for byte
    interleaved = np.stack([field.samples.real, field.samples.imag], axis=-1)
    assert path.read_bytes()[wavefield.SFLD_HEADER_SIZE:] == interleaved.astype("<f4").tobytes()


def test_csv_dump_matches_savetxt(tmp_path):
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    samples[5] = 0.0
    samples[6, :7] = -0.0
    field = ScalarField(samples, 0.4e-6, WL)
    path = tmp_path / "dump.csv"
    write_field_csv(field, path)
    # the writer's reference: the whole table at once through np.savetxt
    xg, yg = np.meshgrid(field.x, field.y)
    table = np.column_stack(
        [xg.ravel(), yg.ravel(), samples.real.ravel(), samples.imag.ravel(),
         (np.abs(samples) ** 2).ravel()]
    )
    reference = tmp_path / "reference.csv"
    np.savetxt(reference, table, delimiter=",", header="x_m,y_m,re,im,intensity",
               comments="", fmt="%.9e")
    assert path.read_bytes() == reference.read_bytes()


def test_csv_dump_format(tmp_path):
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (64, 128, 0.4e-6))
    path = tmp_path / "dump.csv"
    write_field_csv(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_m,y_m,re,im,intensity"
    assert len(lines) == 1 + 64 * 128
    first = [float(v) for v in lines[1].split(",")]
    assert len(first) == 5


def test_sfld_rejects_garbage(tmp_path):
    path = tmp_path / "bad.sfld"
    path.write_bytes(b"not a field dump at all")
    with pytest.raises(InvalidInputError):
        read_field_sfld(path)


def test_sfld_rejects_truncated_payload(tmp_path):
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (64, 64, 0.4e-6))
    path = tmp_path / "dump.sfld"
    write_field_sfld(field, path)
    path.write_bytes(path.read_bytes()[: 64 + 100])
    with pytest.raises(InvalidInputError, match="payload"):
        read_field_sfld(path)


def sfld_header(field, index=1.0, origin=(0.0, 0.0)):
    """A format-1 header of `field` with the given index and origin slots."""
    return wavefield._SFLD_HEADER.pack(
        wavefield.SFLD_MAGIC, 1, field.nx, field.ny, field.clipped_fraction,
        field.pitch, field.wavelength, index, *origin,
    ).ljust(wavefield.SFLD_HEADER_SIZE, b"\0")


def test_sfld_header_carries_vacuum_and_a_centred_window(tmp_path):
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (64, 64, 0.4e-6))
    field = apply_element(field, CircAperture(4e-6))
    path = tmp_path / "dump.sfld"
    write_field_sfld(field, path)
    assert path.read_bytes()[: wavefield.SFLD_HEADER_SIZE] == sfld_header(field)


@pytest.mark.parametrize(
    "index, origin", [(1.5, (0.0, 0.0)), (1.0, (1e-6, 0.0)), (1.0, (0.0, -2e-6))]
)
def test_sfld_rejects_another_medium_or_frame(tmp_path, index, origin):
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (64, 64, 0.4e-6))
    path = tmp_path / "dump.sfld"
    path.write_bytes(sfld_header(field, index, origin) + bytes(64 * 64 * 8))
    with pytest.raises(InvalidInputError, match="index and origin"):
        read_field_sfld(path)


@pytest.mark.parametrize(
    "clipped, pitch, wavelength, match",
    [
        (math.nan, 0.4e-6, WL, "clipped_fraction must lie in"),
        (2.5, 0.4e-6, WL, "clipped_fraction must lie in"),
        (-1.0, 0.4e-6, WL, "clipped_fraction must lie in"),
        (0.0, math.inf, WL, "pitch must be positive and finite"),
        (0.0, 0.4e-6, math.inf, "wavelength must be positive and finite"),
    ],
)
def test_sfld_rejects_a_header_the_writer_never_writes(
    tmp_path, clipped, pitch, wavelength, match
):
    path = tmp_path / "dump.sfld"
    header = wavefield._SFLD_HEADER.pack(
        wavefield.SFLD_MAGIC, 1, 64, 64, clipped, pitch, wavelength, 1.0, 0.0, 0.0,
    ).ljust(wavefield.SFLD_HEADER_SIZE, b"\0")
    path.write_bytes(header + bytes(64 * 64 * 8))
    with pytest.raises(InvalidInputError, match=match):
        read_field_sfld(path)


def test_sfld_checks_the_grid_before_reading_the_payload(tmp_path):
    # a header alone that declares 8192 x 8192 fails on the grid limit,
    # before a gigabyte of payload could be read
    path = tmp_path / "huge.sfld"
    path.write_bytes(wavefield._SFLD_HEADER.pack(
        wavefield.SFLD_MAGIC, 1, 8192, 8192, 0.0, 0.4e-6, WL, 1.0, 0.0, 0.0,
    ).ljust(wavefield.SFLD_HEADER_SIZE, b"\0"))
    with pytest.raises(InvalidInputError, match="over the 256 MiB limit"):
        read_field_sfld(path)


def test_sfld_reads_at_most_one_byte_past_the_payload(tmp_path):
    # 8 MiB of trailing bytes after a valid 64 x 64 dump are never read
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (64, 64, 0.4e-6))
    path = tmp_path / "long.sfld"
    write_field_sfld(field, path)
    with open(path, "ab") as fh:
        fh.write(bytes(8 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError) as info:
            read_field_sfld(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "field payload holds more than 32768 bytes, not 64*64*8"
    assert peak < 1 << 20


def test_sfld_rejects_non_finite_samples(tmp_path):
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (64, 64, 0.4e-6))
    path = tmp_path / "dump.sfld"
    write_field_sfld(field, path)
    raw = bytearray(path.read_bytes())
    offset = wavefield.SFLD_HEADER_SIZE + 8 * (64 * 32 + 32) + 4  # im of the centre sample
    raw[offset:offset + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(InvalidInputError, match="non-finite samples"):
        read_field_sfld(path)


@pytest.mark.parametrize("run", [
    lambda: propagate_elements(np.zeros((64, 64), complex), [(1e-6, ThinLensPhase(1e-4))]),
    lambda: find_focus(np.zeros((64, 64), complex), [], (1e-6, 2e-6, 33)),
    lambda: propagate_elements(np.zeros((64, 64)), []),
], ids=["propagate", "find-focus", "no-elements"])
def test_a_source_of_another_type_fails_before_any_transform(run, fft_calls):
    # the stack takes ownership of the grids it makes, so it checks what it is handed
    with pytest.raises(InvalidInputError,
                       match="^source must be a ScalarField, FreeSpacePlanes or a source of an "
                             "OffsetLaunch, got ndarray$"):
        run()
    assert fft_calls == []


def test_source_spectral_moments_come_from_its_profiles(monkeypatch):
    source = (beam_from_mfd(2.45e-6, 5.2e-6, WL), (0.03, 0.1), (128, 256, 0.22e-6),
              (1.5e-6, -0.5e-6))
    want = FreeSpacePlanes(make_gaussian_field(*source)).axes
    reads = []
    stats = wavefield._intensity_stats
    monkeypatch.setattr(wavefield, "_intensity_stats",
                        lambda samples, *args: reads.append(samples.shape) or stats(samples, *args))
    got = gaussian_planes(*source).axes
    assert reads == []  # no read of a whole grid, the spectrum's included
    for axis, axis_want in zip(got, want):
        assert axis[0] == axis_want[0] and axis[5] == axis_want[5]
        np.testing.assert_allclose(axis[1:5], axis_want[1:5], rtol=1e-12, atol=0)


def lensed_box_field():
    """(field just past an aperture and the lens at its z, a grid the
    caller owns; the opening's box), as the stack loop makes them."""
    field = make_gaussian_field(
        round_beam(), (0.0, 0.02), (256, 128, 0.22e-6), center=(1e-6, 0.5e-6)
    )
    clipped, box = FreeSpacePlanes(field)._aperture(30e-6, CircAperture(6e-6))
    return wavefield._lens(clipped, ThinLensPhase(90e-6), *box, clipped.samples), box


def test_box_planes_are_the_planes_of_their_field():
    field, (rows, cols) = lensed_box_field()
    assert cols.stop - cols.start < field.nx and rows.stop - rows.start < field.ny
    caller = wavefield.ScalarField(field.samples.copy(), field.pitch, field.wavelength,
                                   field.clipped_fraction)
    kept = caller.samples.copy()
    whole = FreeSpacePlanes(caller)
    boxed = wavefield._box_planes(field, rows, cols)
    # the box planes took the field's grid as their spectrum, and keep its box alone
    assert np.shares_memory(boxed.spectrum, field.samples)
    assert boxed._support[2].shape == (rows.stop - rows.start, cols.stop - cols.start)
    assert np.array_equal(boxed.spectrum.view(np.float64), whole.spectrum.view(np.float64))
    assert boxed.axes == whole.axes
    assert boxed._total == whole._total
    covs = [wavefield._window_covariance(planes.frame, planes.spectrum, planes.axes,
                                         planes._total, planes._support)
            for planes in (boxed, whole)]
    np.testing.assert_allclose(covs[0], covs[1], rtol=1e-14, atol=0)
    assert boxed.field.clipped_fraction == caller.clipped_fraction
    assert np.array_equal(boxed.field.samples.view(np.float64), kept.view(np.float64))
    # the caller's field keeps its samples through its planes' reads; the
    # Cauchy-Schwarz limit cannot clear this step, which takes the covariance
    whole.guard(40e-6)
    whole.plane(40e-6)
    assert "_covs" in vars(whole)
    assert np.array_equal(caller.samples.view(np.float64), kept.view(np.float64))


def test_the_stack_writes_no_sample_of_its_source():
    field = make_gaussian_field(
        round_beam(), (0.0, 0.0), (256, 256, 0.22e-6), center=(1e-6, 0.5e-6)
    )
    kept = field.samples.copy()
    elements = [(30e-6, CircAperture(8e-6)), (30e-6, ThinLensPhase(60e-6)),
                (50e-6, CircAperture(8e-6)), (50e-6, ThinLensPhase(60e-6))]
    exit_field = propagate_elements(field, elements)
    assert np.array_equal(field.samples.view(np.float64), kept.view(np.float64))
    result = find_focus(field, elements, (60e-6, 120e-6, 33))
    assert np.array_equal(field.samples.view(np.float64), kept.view(np.float64))
    # the exit planes keep the last aperture's box; their field is rebuilt from it
    assert "field" not in vars(result.planes)
    assert np.array_equal(result.planes.field.samples, exit_field.samples)


def test_mirrored_spot_metrics_match_the_mirrored_grid():
    # an off-axis, asymmetric spot: the mirrored metrics read the field's
    # own marginals and lines, and match those of the mirrored grid
    field = make_gaussian_field(
        beam_from_mfd(2.4e-6, 3.1e-6, 0.729e-6), (0.02, 0.05), (256, 128, 0.22e-6),
        center=(7.3e-6, -2.1e-6),
    )
    field = dataclasses.replace(field, samples=field.samples * (1.0 + 0.3j * np.sin(field.x)))
    mirrored = dataclasses.replace(field,
                                   samples=field.samples[:, -np.arange(field.nx) % field.nx])
    got, want = spot_metrics(field, mirrored=True), spot_metrics(mirrored)
    assert got.fit_failed == want.fit_failed and got.clipped_fraction == want.clipped_fraction
    for name in ("centroid", "mfd_moment", "mfd_fit"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-13, abs=0), name
    for axis, coords, value in ((0, field.y, -1.9e-6), (1, field.x, -7.1e-6)):
        got = wavefield.interp_row(field.samples, coords, value, axis, mirrored=True)
        assert np.array_equal(got, wavefield.interp_row(mirrored.samples, coords, value, axis))


def padded_copy(samples):
    """A copy of `samples` in a grid whose rows lie 16 samples apart past their width."""
    out = np.zeros((samples.shape[0], samples.shape[1] + 16), dtype=np.complex128)
    out = out[:, : samples.shape[1]]
    out[...] = samples
    return out


@pytest.mark.parametrize("inverse", [False, True], ids=["fft", "ifft"])
@pytest.mark.parametrize("columns, rows", [
    (None, None),
    ([slice(0, 40), slice(100, 128)], None),
    ([slice(0, 40), slice(100, 128)], ()),
    ((), None),
    ([slice(10, 90)], [slice(5, 20), slice(60, 61)]),
], ids=["whole", "column-blocks", "axis-0", "axis-1", "row-subset"])
def test_fft2_of_a_padded_grid_keeps_the_contiguous_bits(inverse, columns, rows):
    rng = np.random.default_rng(7)
    samples = rng.standard_normal((64, 128)) + 1j * rng.standard_normal((64, 128))
    padded = padded_copy(samples)
    assert padded.strides[0] == 144 * 16
    want = wavefield._fft2(samples.copy(), inverse, columns, rows)
    got = wavefield._fft2(padded, inverse, columns, rows)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))
    # every pass of a padded grid runs in place
    assert np.shares_memory(got, padded)


def test_grid_rows_stride_off_a_power_of_two():
    for n in (64, 1024, 2048):
        grid = wavefield._grid(n, n)
        step = grid.strides[0]
        assert grid.shape == (n, n) and not grid.any()
        assert step & (step - 1) != 0 and grid.strides[1] == 16


def test_scalar_field_keeps_padded_rows_and_copies_other_layouts():
    field = make_gaussian_field(round_beam(), (0.0, 0.0), (128, 128, 0.25e-6))
    padded = padded_copy(field.samples)
    kept = ScalarField(padded, field.pitch, field.wavelength)
    assert kept.samples is padded
    assert wavefield._power_sum(kept.samples) == wavefield._power_sum(field.samples)
    wide = np.zeros((128, 256), dtype=np.complex128)
    wide[:, ::2] = field.samples
    for layout in (wide[:, ::2], np.asfortranarray(field.samples), field.samples[::-1]):
        copied = ScalarField(layout, field.pitch, field.wavelength).samples
        assert not np.shares_memory(copied, layout)
        assert copied.flags.c_contiguous and np.array_equal(copied, layout)


def test_kz_tables_of_two_grids_stay_cached():
    # a design propagates on the synthesis probe's grid and the channels'
    wavefield._kz_quadrant.cache_clear()
    grids = [(512, 512, 0.5e-6, 2.0 * math.pi / WL), (1024, 1024, 0.22e-6, 2.0 * math.pi / WL)]
    for _ in range(3):
        for grid in grids:
            wavefield._kz_quadrant(*grid)
    assert wavefield._kz_quadrant.cache_info().misses == 2


def test_offset_launch_gives_the_direct_launch_spectrum(compact_pipeline):
    # an off-axis channel: the transfer product at its first aperture from
    # the launch at x = 0 times exp(-i kx x), against its own launch at x
    source, elements = compact_launch(compact_pipeline, 0)
    x = source[3][0]
    assert x != 0.0 and isinstance(elements[0][1], WedgePhase)
    (z_wedge, wedge), (z_aperture, _) = elements
    direct = gaussian_planes(*source)._wedge(z_wedge, wedge)
    want = wavefield._transfer(direct.frame, z_aperture - z_wedge, direct.spectrum)
    launch = wavefield.OffsetLaunch([gaussian_planes(*source[:3])], elements, [x])
    got = launch._product(x)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # and the field just past the aperture
    launched = propagate_elements(*launch.sources, elements)
    by_hand = propagate_elements(gaussian_planes(*source), elements)
    peak = np.abs(by_hand.samples).max()
    assert np.abs(launched.samples - by_hand.samples).max() <= 1e-14 * peak
    assert launched.clipped_fraction == pytest.approx(by_hand.clipped_fraction, rel=1e-12)


def test_offset_launch_guards_each_offset_at_its_own_entry():
    # the guard of an offset moves the centroid only: the far offset fails
    # with the message of its own launch, raised at its entry alone
    beam = round_beam(4e-6)
    grid = (128, 128, 0.25e-6)
    elements = [(2e-6, WedgePhase(-0.02)), (20e-6, CircAperture(8e-6)),
                (20e-6, ThinLensPhase(60e-6))]
    near, far = 1e-6, 12e-6
    with pytest.raises(PropagationWindowError) as direct:
        propagate_elements(gaussian_planes(beam, (0.0, 0.02), grid, (far, 0.0)), elements)
    launch = wavefield.OffsetLaunch([gaussian_planes(beam, (0.0, 0.02), grid)], elements,
                                    [far, near])
    far_source, near_source = launch.sources
    with pytest.raises(PropagationWindowError) as shifted:
        propagate_elements(far_source, elements)
    assert str(shifted.value) == str(direct.value)
    with pytest.raises(InvalidInputError, match="^an offset launch enters only the elements"):
        propagate_elements(near_source, elements[:2])
    got = propagate_elements(near_source, elements)
    want = propagate_elements(gaussian_planes(beam, (0.0, 0.02), grid, (near, 0.0)), elements)
    assert np.abs(got.samples - want.samples).max() <= 1e-14 * np.abs(want.samples).max()
    # a source enters once, and the last entry freed the launch's blocks
    with pytest.raises(InvalidInputError, match="^a source of an offset launch enters once$"):
        propagate_elements(near_source, elements)
    assert launch._blocks is None


def test_offset_launch_needs_an_element_past_its_wedges():
    planes = gaussian_planes(round_beam(), (0.0, 0.0), (128, 128, 0.25e-6))
    for elements in ([(2e-6, WedgePhase(0.01))], [(2e-6, WedgePhase(0.01)),
                                                   (2e-6, CircAperture(5e-6))]):
        with pytest.raises(InvalidInputError, match="^an offset launch needs"):
            wavefield.OffsetLaunch([planes], elements, [0.0])


def test_offset_launch_takes_only_a_designed_stack(fft_calls):
    # wedges, then an aperture, each a positive distance past the one
    # before; any other stack fails before the launch's first transform
    planes = gaussian_planes(round_beam(), (0.0, 0.0), (128, 128, 0.25e-6))
    fft_calls.clear()
    for elements in ([(2e-6, WedgePhase(0.01)), (20e-6, ThinLensPhase(60e-6))],
                     [(0.0, WedgePhase(0.01)), (20e-6, CircAperture(5e-6))],
                     [(0.0, CircAperture(5e-6))], []):
        with pytest.raises(InvalidInputError, match="^an offset launch needs wedges, then an "
                                                    "aperture, each a positive distance"):
            wavefield.OffsetLaunch([planes], elements, [0.0])
    assert fft_calls == []


def entry_outcome(source, elements):
    """None if `source` crosses `elements`, else its PropagationWindowError's message."""
    try:
        propagate_elements(source, elements)
    except PropagationWindowError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("mfd, tilt_x, x, z, moved_fails", [
    (3e-6, 0.06, 4e-6, 80e-6, True),
    (4e-6, 0.03, -4e-6, 120e-6, False),
], ids=["moved-source-fails", "moved-source-passes"])
def test_a_launch_source_is_guarded_as_the_moved_source(mfd, tilt_x, x, z, moved_fails):
    # the covariance of an x-tilted source does not move with it: a
    # launch source's guard decides as the source built at its offset,
    # whichever offset took the covariance first
    beam, grid = beam_from_mfd(mfd, mfd, WL), (256, 256, 0.25e-6)
    elements = [(z, CircAperture(20e-6)), (z, ThinLensPhase(100e-6))]
    moved = entry_outcome(gaussian_planes(beam, (tilt_x, 0.0), grid, (x, 0.0)), elements)
    launch = wavefield.OffsetLaunch([gaussian_planes(beam, (tilt_x, 0.0), grid)], elements, [x])
    (source,) = launch.sources
    assert (moved is not None) == moved_fails
    assert (entry_outcome(source, elements) is not None) == moved_fails


def equal_offset_launch(offsets):
    """(the launch of offsets through a wedge, an aperture and a lens,
    its elements): the offset 12 um leaves the window, 1 um does not."""
    beam, grid = round_beam(4e-6), (128, 128, 0.25e-6)
    elements = [(2e-6, WedgePhase(-0.02)), (20e-6, CircAperture(8e-6)),
                (20e-6, ThinLensPhase(60e-6))]
    launch = wavefield.OffsetLaunch([gaussian_planes(beam, (0.0, 0.02), grid)], elements,
                                    offsets)
    return launch, elements


def test_equal_offsets_each_raise_their_guard_error():
    launch, elements = equal_offset_launch([12e-6, 12e-6])
    for source in launch.sources:
        assert source.error is not None
        with pytest.raises(PropagationWindowError, match="^propagating 2.000e-06 m would move the beam"):
            propagate_elements(source, elements)
    assert launch._blocks is None


def test_a_launch_source_enters_once():
    launch, elements = equal_offset_launch([1e-6, 12e-6])
    near, far = launch.sources
    propagate_elements(near, elements)
    with pytest.raises(PropagationWindowError):
        propagate_elements(far, elements)
    for source in (near, far, *launch.sources):
        with pytest.raises(InvalidInputError, match="^a source of an offset launch enters once$"):
            propagate_elements(source, elements)


def test_a_failed_entry_leaves_no_live_launch():
    # the error a source raises is not the one it carries, so no frame it
    # unwinds is tied to it in a cycle: the launch goes by reference counting
    gc.disable()
    try:
        launch, elements = equal_offset_launch([12e-6, 1e-6])
        blocks = weakref.ref(launch._blocks)
        alive = weakref.ref(launch)
        far, near = launch.sources
        del launch
        try:
            propagate_elements(far, elements)
        except PropagationWindowError:
            pass
        assert alive() is not None and blocks() is not None  # near has yet to enter
        del far, near
        assert alive() is None and blocks() is None
    finally:
        gc.enable()
