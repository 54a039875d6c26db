"""Lens-stack synthesis, channel simulation, crosstalk, tolerance sweeps."""

import ast
import copy
import dataclasses
import gc
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from ionoptics import (
    ChannelFocus,
    CircAperture,
    ConvergenceError,
    DesignTargets,
    InfeasibleDesignError,
    InvalidInputError,
    IonOpticsError,
    SWEEP_PRESETS,
    TrapSpec,
    crosstalk_matrix,
    pitch_plan,
    simulate_channel,
    solve_crystal,
    spot_metrics,
    synthesize_lens_stack,
    tolerance_sweep,
)
from ionoptics import designer
from ionoptics.constants import MAX_ARRAY_BYTES, UM
from ionoptics.designer import MAX_SWEEP_STEPS, sweep_rows
from ionoptics.report import crosstalk_section, prescription_section

WL = 0.729e-6


def reference_targets(**overrides):
    params = dict(
        magnification=0.6,
        numerical_aperture=0.19,
        image_distance=180e-6,
        source_mfd=(2.45e-6, 5.2e-6),
        wavelength=WL,
        max_stack_height=400e-6,
        aperture_budget=130e-6,
    )
    params.update(overrides)
    return DesignTargets(**params)


# ---------------------------------------------------------------- pitch plan


def test_pitch_plan_identity_at_unit_magnification():
    crystal = solve_crystal(
        TrapSpec(ion_mass_amu=39.9626, ion_charge=1, axial_frequency_hz=700e3, ion_count=5)
    )
    plan = pitch_plan(crystal, 1.0)
    assert plan == pytest.approx(crystal.positions_m, rel=1e-12)


def test_pitch_plan_scales_inversely(reference_pipeline):
    crystal = reference_pipeline["crystal"]
    plan = pitch_plan(crystal, 0.6)
    assert plan * 0.6 == pytest.approx(crystal.positions_m, rel=1e-12)
    gaps_um = np.diff(plan) * 1e6
    assert gaps_um.min() == pytest.approx(5.3067, abs=2e-4)
    assert gaps_um.max() == pytest.approx(7.2497, abs=2e-4)


def test_pitch_plan_rejects_bad_magnification(reference_pipeline):
    with pytest.raises(InvalidInputError):
        pitch_plan(reference_pipeline["crystal"], 0.0)


# ----------------------------------------------------------------- synthesis


def test_reference_prescription_frozen(reference_pipeline):
    p = reference_pipeline["prescription"]
    f_um = np.asarray(p.focal_lengths) * 1e6
    z_um = np.asarray(p.lens_positions) * 1e6
    assert f_um == pytest.approx([300.0, 120.0], abs=1e-6)
    assert z_um == pytest.approx([50.0, 350.0], abs=1e-6)
    assert p.stack_height * 1e6 == pytest.approx(350.0, abs=1e-6)
    assert p.stack_height <= p.targets.max_stack_height
    assert p.predicted_magnification == pytest.approx([-0.6, -0.6], abs=1e-9)
    assert p.predicted_image_distance * 1e6 == pytest.approx(180.0, abs=1e-6)
    assert p.source_tilt_deg == pytest.approx(20.7725, abs=1e-3)


def test_reference_apertures_within_budget(reference_pipeline):
    p = reference_pipeline["prescription"]
    r_um = np.asarray(p.aperture_radii) * 1e6
    assert r_um == pytest.approx([49.192, 65.0], abs=0.05)
    assert np.all(np.asarray(p.aperture_radii) <= p.targets.aperture_budget / 2.0)


def test_compact_prescription_frozen(compact_pipeline):
    p = compact_pipeline["prescription"]
    f_um = np.asarray(p.focal_lengths) * 1e6
    z_um = np.asarray(p.lens_positions) * 1e6
    assert f_um == pytest.approx([200.0, 82.5], abs=1e-3)
    assert z_um == pytest.approx([48.4848, 248.4848], abs=1e-3)
    assert p.stack_height <= 300e-6


def test_element_table_order(reference_pipeline):
    table = prescription_section(reference_pipeline["prescription"])["elements"]
    kinds = [row["kind"] for row in table]
    assert kinds == ["wedge", "aperture", "lens", "aperture", "lens"]
    z = [row["z_um"] for row in table]
    assert z == sorted(z)
    assert z[0] == pytest.approx(2.0)


def test_single_lens_fallback_is_analytic():
    # symmetric unit-magnification conjugate: one lens, f = D / 2
    distance = 350e-6
    mfd = 2.0 * WL / (math.pi * 0.1)
    targets = DesignTargets(
        magnification=1.0,
        numerical_aperture=0.1,
        image_distance=distance,
        source_mfd=(mfd, mfd),
        wavelength=WL,
        max_stack_height=350e-6,
        aperture_budget=200e-6,
    )
    p = synthesize_lens_stack(targets)
    assert len(p.focal_lengths) == 1
    assert p.focal_lengths[0] == pytest.approx(distance / 2.0, rel=1e-6)
    assert p.predicted_magnification[0] == pytest.approx(-1.0, abs=1e-9)
    assert p.predicted_image_distance == pytest.approx(distance, rel=1e-9)


def test_infeasible_stack_names_constraint():
    with pytest.raises(InfeasibleDesignError, match="max_stack_height"):
        synthesize_lens_stack(reference_targets(max_stack_height=80e-6))


def test_inconsistent_na_rejected():
    with pytest.raises(InfeasibleDesignError, match="numerical_aperture"):
        synthesize_lens_stack(reference_targets(numerical_aperture=0.5))


def test_shorter_conjugate_variant_synthesizes():
    p = synthesize_lens_stack(reference_targets(image_distance=175e-6))
    assert p.predicted_image_distance == pytest.approx(175e-6, rel=0.02)
    assert abs(p.predicted_magnification[0]) == pytest.approx(0.6, rel=0.01)


def test_synthesis_returns_a_grid_point(monkeypatch):
    # Magnification 3.4 at 170 um is feasible on the grid with a start
    # residual of ~1e-32 from rounding; the returned f2 must be the grid
    # point that passed the feasibility checks, not a value moved off
    # the lattice after them. The 13-plane wave check rejects this
    # target, and this test is about the ABCD search.
    monkeypatch.setattr(designer, "_wave_verify", lambda *args: None)
    targets = reference_targets(
        magnification=3.4,
        image_distance=170e-6,
        max_stack_height=300e-6,
        aperture_budget=100e-6,
    )
    p = synthesize_lens_stack(targets, source_tilt=20.0, chief_reach=20e-6)
    f2_values = np.arange(
        designer.F2_RANGE[0],
        designer.F2_RANGE[1] + designer.GRID_STEP / 2,
        designer.GRID_STEP,
    )
    assert p.focal_lengths[1] in f2_values
    assert p.focal_lengths[1] == pytest.approx(102.5e-6, abs=1e-12)


def scalar_stack_search(targets, chief_reach):
    """The (f2, gap) search one candidate at a time, its checks in order:
    (rejection counts, (f1, f2, gap, d1) of the least (stack, f2, gap)
    feasible candidate or None)."""
    source = designer.beam_from_mfd(*targets.source_mfd, targets.wavelength)
    ms, dist = -targets.magnification, targets.image_distance
    rejections = dict.fromkeys(["focal_length", "working_distance", "max_stack_height",
                                "telecentricity", "internal_focus", "chief_slope",
                                "aperture_budget"], 0)
    best = None
    step = designer.GRID_STEP
    for f2 in np.arange(designer.F2_RANGE[0], designer.F2_RANGE[1] + step / 2, step):
        p00 = 1.0 - dist / f2
        for g in np.arange(designer.GAP_RANGE[0], designer.GAP_RANGE[1] + step / 2, step):
            p01 = g * p00 + dist
            denom = p00 - ms
            if abs(denom) < 1e-9:
                continue
            f1 = p01 / denom
            d1 = -p01 / ms
            stack = d1 + g
            for check, failed in (
                ("focal_length", lambda: f1 < designer.MIN_FOCAL_LENGTH),
                ("working_distance", lambda: d1 < designer.MIN_WORKING_DISTANCE),
                ("max_stack_height", lambda: stack > targets.max_stack_height),
                ("telecentricity", lambda: abs(1.0 - g / f1) > designer.TELECENTRIC_TOL),
                ("internal_focus", lambda: d1 > f1 and f1 * d1 / (d1 - f1) < g),
                ("chief_slope", lambda: chief_reach / f1 > designer.MAX_CHIEF_SLOPE),
                ("aperture_budget", lambda: max(designer._widths_at_lenses(
                    source, (f1, f2), (d1, stack))) > targets.aperture_budget / 2.0),
            ):
                if failed():
                    rejections[check] += 1
                    break
            else:
                if best is None or (stack, f2, g) < best[0]:
                    best = ((stack, f2, g), (f1, f2, g, d1))
    return rejections, best and tuple(map(float, best[1]))


@pytest.mark.parametrize("changes, chief_reach", [
    ({}, 0.0),
    ({}, 160e-6),
    ({"image_distance": 175e-6}, 0.0),
    ({"magnification": 3.4, "image_distance": 170e-6, "max_stack_height": 300e-6,
      "aperture_budget": 100e-6}, 20e-6),
    ({"max_stack_height": 80e-6}, 0.0),
    ({"aperture_budget": 12e-6}, 0.0),
], ids=["reference", "chief-reach", "short-conjugate", "steep", "low-stack", "narrow"])
def test_stack_search_masks_match_the_candidate_loop(monkeypatch, changes, chief_reach):
    # the array search keeps the loop's rejection histogram and its least
    # (stack, f2, gap) candidate, bit for bit
    monkeypatch.setattr(designer, "_wave_verify", lambda *args: None)
    targets = reference_targets(**changes)
    rejections, best = scalar_stack_search(targets, chief_reach)
    try:
        p = synthesize_lens_stack(targets, chief_reach=chief_reach)
    except InfeasibleDesignError as exc:
        assert best is None
        failures = sorted((k for k, v in rejections.items() if v), key=lambda k: -rejections[k])
        detail = ", ".join(f"{k} ({rejections[k]} candidates)" for k in failures)
        assert str(exc).endswith(f"two-lens candidates rejected by: {detail}")
        return
    if best is None:
        assert len(p.focal_lengths) == 1
        return
    f1, f2, g, d1 = best
    assert p.focal_lengths == (f1, f2)
    assert p.lens_positions == (d1, d1 + g)


def wave_verify_args(prescription):
    """_wave_verify's arguments for a synthesized prescription."""
    return (
        list(prescription.focal_lengths), list(prescription.lens_positions),
        prescription.targets, prescription.predicted_image_distance,
        prescription.predicted_magnification[0],
    )


@pytest.mark.parametrize("scale", [0.7, 1.4])
def test_wave_verify_finds_no_waist_off_the_image_plane(compact_pipeline, scale):
    f_list, z_list, targets, v, m = wave_verify_args(compact_pipeline["prescription"])
    designer._wave_verify(f_list, z_list, targets, v, m)
    # a scan of +-12 % around scale * v holds no waist: the narrowest
    # fitted spot lies on the scan's edge nearest the real image plane
    with pytest.raises(ConvergenceError, match="found no waist near the predicted image plane") as info:
        designer._wave_verify(f_list, z_list, targets, scale * v, m)
    assert info.value.residual is None


@pytest.mark.parametrize("pipeline", ["compact_pipeline", "reference_pipeline"])
def test_wave_verify_reads_the_spot_fit_from_one_row(pipeline, request, monkeypatch):
    # the probe's scan reads each plane's row y = 0 alone: no spot_metrics
    # and no plane() past its two steps. Its widths are the spot fits of
    # the whole planes, with the same narrowest plane
    from ionoptics import wavefield

    scans, planes_read = [], []
    axis_rows, plane = wavefield.FreeSpacePlanes.axis_rows, wavefield.FreeSpacePlanes.plane

    def spied_rows(self, *distances):
        scans.append((self, distances))
        return axis_rows(self, *distances)

    def spied_plane(self, distance):
        planes_read.append(distance)
        return plane(self, distance)

    def no_metrics(field):
        raise AssertionError("the probe's scan calls no spot_metrics")

    args = wave_verify_args(request.getfixturevalue(pipeline)["prescription"])
    with monkeypatch.context() as patch:
        patch.setattr(wavefield.FreeSpacePlanes, "axis_rows", spied_rows)
        patch.setattr(wavefield.FreeSpacePlanes, "plane", spied_plane)
        patch.setattr(designer, "spot_metrics", no_metrics)
        patch.setattr(wavefield, "spot_metrics", no_metrics)
        designer._wave_verify(*args)
    assert len(planes_read) == 2  # the probe's two steps to its lenses
    [(planes, distances)] = scans
    assert len(distances) == 13
    widths = [designer._row_mfd(planes.frame.x, row) for row in planes.axis_rows(*distances)]
    fits = [spot_metrics(planes.plane(d)).mfd_fit[0] for d in distances]
    np.testing.assert_allclose(widths, fits, rtol=1e-9, atol=0)
    assert np.argmin(widths) == np.argmin(fits)


def test_wave_verify_rejects_a_wrong_magnification(compact_pipeline):
    f_list, z_list, targets, v, m = wave_verify_args(compact_pipeline["prescription"])
    with pytest.raises(ConvergenceError, match="disagrees with the ABCD prescription") as info:
        designer._wave_verify(f_list, z_list, targets, v, 1.5 * m)
    # the wave waist ratio is the stack's own |m|, a third below 1.5 |m|
    assert info.value.residual > designer.WAVE_VERIFY_TOL
    assert info.value.residual == pytest.approx(1.0 / 3.0, abs=0.01)


def test_targets_validation():
    with pytest.raises(InvalidInputError):
        reference_targets(magnification=-0.6)
    with pytest.raises(InvalidInputError):
        reference_targets(numerical_aperture=1.5)
    with pytest.raises(InvalidInputError):
        reference_targets(source_mfd=(2.45e-6, -5.2e-6))


# ---------------------------------------------------------- channel metrics


def test_compact_center_channel_on_axis(compact_channels):
    centre = compact_channels[1]
    assert abs(centre.centroid[0]) < 5e-8
    assert centre.z_focus * 1e6 == pytest.approx(363.319, abs=0.1)
    assert centre.mfd_fit[0] * 1e6 == pytest.approx(1.739, abs=0.01)
    assert centre.mfd_fit[1] * 1e6 == pytest.approx(3.128, abs=0.01)
    assert not centre.fit_failed
    assert not centre.off_normal


def test_compact_outer_channels_mirror(compact_channels):
    lo, hi = compact_channels[0], compact_channels[2]
    assert lo.centroid[0] == pytest.approx(-hi.centroid[0], rel=0.01)
    assert lo.mfd_fit[0] == pytest.approx(hi.mfd_fit[0], rel=0.01)
    assert lo.mfd_fit[1] == pytest.approx(hi.mfd_fit[1], rel=0.01)
    assert lo.z_focus == pytest.approx(hi.z_focus, abs=0.5e-6)
    assert lo.clipped_fraction == pytest.approx(hi.clipped_fraction, rel=0.02)


def test_outer_channel_lands_on_opposite_ion(compact_pipeline, compact_channels):
    # channel 0 addresses the last ion: negative offset maps to positive image
    wg = compact_pipeline["positions"][0]
    magnification = compact_pipeline["prescription"].predicted_magnification[0]
    expected = magnification * wg
    assert compact_channels[0].centroid[0] == pytest.approx(expected, rel=0.02)
    assert expected > 0


def test_channel_index_validated(compact_pipeline):
    with pytest.raises(InvalidInputError):
        simulate_channel(
            compact_pipeline["prescription"],
            compact_pipeline["array"],
            3,
            compact_pipeline["scenario"].mirror,
            grid=compact_pipeline["scenario"].grid,
        )


# -------------------------------------------------------------- crosstalk


def test_crosstalk_single_channel_is_silent(compact_pipeline):
    trap = TrapSpec(
        ion_mass_amu=39.9626, ion_charge=1, axial_frequency_hz=700e3, ion_count=1
    )
    crystal = solve_crystal(trap)
    pipe = compact_pipeline
    array = type(pipe["array"])(
        positions_m=np.array([0.0]),
        mode_mfd_m=pipe["array"].mode_mfd_m,
        leakage_decay_per_m=pipe["array"].leakage_decay_per_m,
        leakage_reference=pipe["array"].leakage_reference,
    )
    report = crosstalk_matrix(
        pipe["prescription"],
        array,
        crystal,
        pipe["scenario"].mirror,
        grid=pipe["scenario"].grid,
    )
    assert report.matrix_db.shape == (1, 1)
    assert report.matrix_db[0, 0] == 0.0
    assert report.contributions == ()
    # no fit without pairs: the nominal ion-to-plane scale, near +1 as the
    # fit finds it for several ions
    prescription = pipe["prescription"]
    assert report.alignment_scale == (
        abs(prescription.predicted_magnification[0]) / prescription.targets.magnification
    )
    assert report.alignment_scale == pytest.approx(1.0, abs=0.02)
    assert report.alignment_residual == 0.0
    section = crosstalk_section(report)
    assert section["worst_nearest_neighbor_total_db"] == designer.CROSSTALK_FLOOR_DB
    assert section["worst_nearest_neighbor_optical_db"] == designer.CROSSTALK_FLOOR_DB
    assert section["worst_leakage_db"] == designer.CROSSTALK_FLOOR_DB


@pytest.fixture(scope="module")
def compact_crosstalk(compact_pipeline):
    """(compact crosstalk report, designer-level spot_metrics calls it made)."""
    pipe = compact_pipeline
    calls = []

    def counted(field, _original=designer.spot_metrics, **kwargs):
        calls.append(1)
        return _original(field, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(designer, "spot_metrics", counted)
        report = crosstalk_matrix(
            pipe["prescription"],
            pipe["array"],
            pipe["crystal"],
            pipe["scenario"].mirror,
            grid=pipe["scenario"].grid,
        )
    return report, len(calls)


def test_crosstalk_own_focus_records_match_simulate_channel(
    compact_pipeline, compact_channels, compact_crosstalk
):
    pipe = compact_pipeline
    report = compact_crosstalk[0]
    # channel 2 mirrors channel 0 (see the mirror-rule test)
    assert report.mirror_of == (None, None, 0)
    assert report.channel_focus[:2] == tuple(compact_channels[:2])
    centre = int(np.argmin(np.abs(pipe["positions"])))
    assert report.evaluation_z == compact_channels[centre].z_focus
    assert report.centre_field.nx == pipe["scenario"].grid[0]


def test_crosstalk_mirrored_record_follows_the_mirror_rule(compact_pipeline, compact_crosstalk):
    # channel 0's focus, channel 2's index and position, and the spot
    # metrics of channel 0's focus field taken through ix -> (nx - ix) % nx.
    # No grid is mirrored: the record comes from channel 0's marginals and
    # lines, whose row sums add the mirrored rows' values in another order,
    # so the spot values agree with the mirrored grid's to rounding (at
    # most 1.2e-15 relative on compact and reference)
    pipe = compact_pipeline
    record, result = simulate_channel(
        pipe["prescription"], pipe["array"], 0, pipe["scenario"].mirror,
        grid=pipe["scenario"].grid, with_result=True,
    )
    field = result.field_at_focus
    mirrored = dataclasses.replace(
        field, samples=field.samples[:, (-np.arange(field.nx)) % field.nx]
    )
    spot = spot_metrics(mirrored)
    report = compact_crosstalk[0]
    got = report.channel_focus[2]
    assert got == dataclasses.replace(
        record, **{name: getattr(got, name) for name in ("centroid", "mfd_moment", "mfd_fit")},
        fit_failed=spot.fit_failed, channel=2, waveguide_position=float(pipe["positions"][2]),
    )
    for name in ("centroid", "mfd_moment", "mfd_fit"):
        assert getattr(got, name) == pytest.approx(getattr(spot, name), rel=1e-13, abs=0), name
    matrix = report.matrix_db
    assert np.max(np.abs(matrix - matrix[::-1, ::-1])) <= 1e-9


def test_crosstalk_mirrored_record_agrees_with_its_own_propagation(
    compact_crosstalk, compact_channels
):
    # the mirror is exact on the grid but for column 0 and rounding
    mirrored, direct = compact_crosstalk[0].channel_focus[2], compact_channels[2]
    assert mirrored.z_focus == pytest.approx(direct.z_focus, abs=1e-9)
    for name in ("centroid", "mfd_fit", "mfd_moment"):
        assert getattr(mirrored, name) == pytest.approx(getattr(direct, name), rel=1e-5), name


def test_channel_outside_the_window_fails_at_its_real_centre(compact_pipeline, fft_calls):
    # the source enters from a launch at x = 0, but its checks run at its
    # own centre, 1 mm out, before any transform
    pipe = compact_pipeline
    array = dataclasses.replace(pipe["array"], positions_m=pipe["positions"] + 1e-3)
    with pytest.raises(InvalidInputError, match=r"^beam centered at \(1\.0\d*e-03, 0\.000e\+00\) "
                                                 "m carries no power inside the sampled window$"):
        simulate_channel(pipe["prescription"], array, 1, pipe["scenario"].mirror,
                         grid=pipe["scenario"].grid)
    assert fft_calls == []


def test_crosstalk_mirror_ties_go_to_the_lower_index(compact_pipeline):
    # channel 1 one ulp nearer the axis still ties with channel 0, so
    # channel 0 is the centre and channel 1, past the middle, mirrors it
    pipe = compact_pipeline
    crystal = solve_crystal(dataclasses.replace(pipe["scenario"].trap, ion_count=2))
    positions = pitch_plan(crystal, pipe["prescription"].targets.magnification)
    positions[1] = math.nextafter(positions[1], 0.0)
    assert abs(positions[1]) < abs(positions[0])
    report = crosstalk_matrix(
        pipe["prescription"],
        dataclasses.replace(pipe["array"], positions_m=positions),
        crystal,
        pipe["scenario"].mirror,
        grid=pipe["scenario"].grid,
    )
    assert report.mirror_of == (None, 0)


def test_crosstalk_spot_metrics_only_for_shared_plane_records(compact_crosstalk):
    # the centroids come from the crosstalk pass's own |E|^2 and every
    # propagated record from its focus search; only the mirrored channel's
    # record (channel 2 of 3) needs the fitted spot metrics
    assert compact_crosstalk[1] == 1


def test_crosstalk_failure_names_channel(compact_pipeline, monkeypatch):
    # the centre channel (1 of 3) is evaluated first
    def failing_channel(*args):
        raise ConvergenceError("x", residual=0.5)

    monkeypatch.setattr(designer, "find_focus", failing_channel)
    pipe = compact_pipeline
    with pytest.raises(ConvergenceError) as info:
        crosstalk_matrix(
            pipe["prescription"],
            pipe["array"],
            pipe["crystal"],
            pipe["scenario"].mirror,
            grid=pipe["scenario"].grid,
        )
    assert str(info.value) == "channel 1: x"
    assert info.value.residual == 0.5


def fail_on_call(number, original):
    """`original`, except that call `number` (from 1) raises ConvergenceError."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        if len(calls) == number:
            raise ConvergenceError("x", residual=0.5)
        return original(*args, **kwargs)

    return wrapped


def test_crosstalk_off_centre_failure_names_channel(compact_pipeline, monkeypatch):
    # after the centre channel (1 of 3) come the others in order: 0 is next
    monkeypatch.setattr(designer, "find_focus", fail_on_call(2, designer.find_focus))
    pipe = compact_pipeline
    with pytest.raises(ConvergenceError) as info:
        crosstalk_matrix(
            pipe["prescription"],
            pipe["array"],
            pipe["crystal"],
            pipe["scenario"].mirror,
            grid=pipe["scenario"].grid,
        )
    assert str(info.value) == "channel 0: x"
    assert info.value.residual == 0.5


def test_a_crosstalk_pass_that_raises_leaves_no_live_launch(compact_pipeline, monkeypatch):
    # the launch's sources alone keep it alive, so once the pass unwinds
    # its launch and band blocks go by reference counting, with no
    # collector to break a cycle
    launches = []

    def recorded(*args, _original=designer.OffsetLaunch):
        launch = _original(*args)
        launches.append(weakref.ref(launch))
        return launch

    monkeypatch.setattr(designer, "OffsetLaunch", recorded)
    monkeypatch.setattr(designer, "find_focus", fail_on_call(2, designer.find_focus))
    pipe = compact_pipeline
    message = None
    gc.disable()
    try:
        try:
            crosstalk_matrix(
                pipe["prescription"],
                pipe["array"],
                pipe["crystal"],
                pipe["scenario"].mirror,
                grid=pipe["scenario"].grid,
            )
        except ConvergenceError as exc:
            message = str(exc)
        # the exception and its traceback, which hold the pass's frames, are dropped here
        assert message == "channel 0: x"
        assert len(launches) == 1 and launches[0]() is None
    finally:
        gc.enable()


def test_crosstalk_dark_row_names_its_channel(compact_pipeline, monkeypatch):
    # the second row taken is channel 0's; a dark row has no power at its ion
    rows = []

    def dark_second_row(*args, _original=designer.interp_row, **kwargs):
        rows.append(1)
        row = _original(*args, **kwargs)
        return np.zeros_like(row) if len(rows) == 2 else row

    monkeypatch.setattr(designer, "interp_row", dark_second_row)
    pipe = compact_pipeline
    with pytest.raises(ConvergenceError) as info:
        crosstalk_matrix(
            pipe["prescription"],
            pipe["array"],
            pipe["crystal"],
            pipe["scenario"].mirror,
            grid=pipe["scenario"].grid,
        )
    assert str(info.value) == "channel 0: no power at its target ion"
    assert len(rows) == 3


@pytest.mark.parametrize("reference", [(5e-6, 5000.0), (5e-6, math.nan)])
def test_crosstalk_leakage_overflow_fails_before_any_focus_search(
    compact_pipeline, monkeypatch, reference
):
    # the leakage terms depend on the array alone; the first pair is ion 0
    # lit by channel 2, with channel 1's leakage. A NaN dB fails earlier,
    # when the array is built.
    calls = []
    monkeypatch.setattr(designer, "find_focus", lambda *args: calls.append(args))
    pipe = compact_pipeline
    message = (r"^leakage_reference\[1\] must be finite, got nan$" if math.isnan(reference[1])
               else r"^channels 2 and 1: the crosstalk power sum of .* dB leakage is not finite$")
    with pytest.raises(InvalidInputError, match=message):
        crosstalk_matrix(
            pipe["prescription"],
            dataclasses.replace(pipe["array"], leakage_reference=reference),
            pipe["crystal"],
            pipe["scenario"].mirror,
            grid=pipe["scenario"].grid,
        )
    assert calls == []


@pytest.mark.parametrize("z", [math.nan, -1e-6], ids=["nan", "below-the-chip"])
def test_prescription_takes_the_element_position_rule(compact_pipeline, z):
    # the rule propagate_elements applies: a NaN position passed `b < a`
    prescription = compact_pipeline["prescription"]
    elements = ((z, CircAperture(5e-6)),) + prescription.elements
    with pytest.raises(
        InvalidInputError, match="^element positions must be non-decreasing and >= 0$"
    ):
        dataclasses.replace(prescription, elements=elements)


def test_crosstalk_foreign_element_fails_on_the_centre_channel(compact_pipeline):
    # every element type acts evenly in x; any other is rejected while the
    # centre channel (1 of 3) propagates
    pipe = compact_pipeline
    prescription = pipe["prescription"]
    elements = list(prescription.elements) + [(prescription.stack_height, object())]
    # a prescription takes the element-list rule, so it rejects one where it comes in
    with pytest.raises(InvalidInputError, match="^unknown element type object$"):
        dataclasses.replace(prescription, elements=elements)
    forged = copy.copy(prescription)
    object.__setattr__(forged, "elements", tuple(elements))
    with pytest.raises(InvalidInputError, match="^channel 1: unknown element type object$"):
        crosstalk_matrix(
            forged,
            pipe["array"],
            pipe["crystal"],
            pipe["scenario"].mirror,
            grid=pipe["scenario"].grid,
        )


@pytest.mark.parametrize("entry", ["crosstalk_matrix", "tolerance_sweep"])
def test_a_grid_of_two_members_fails_naming_it(compact_pipeline, entry, fft_calls):
    pipe = compact_pipeline
    grid = pipe["scenario"].grid[:2]
    with pytest.raises(InvalidInputError, match="^grid must have 3 members, got "):
        if entry == "crosstalk_matrix":
            crosstalk_matrix(pipe["prescription"], pipe["array"], pipe["crystal"],
                             pipe["scenario"].mirror, grid=grid)
        else:
            tolerance_sweep(pipe["prescription"], pipe["array"], pipe["scenario"].mirror,
                            [{"parameter": "source_tilt", "lo": 0.0, "hi": 0.0, "steps": 1}],
                            grid=grid)
    assert fft_calls == []


def test_crosstalk_requires_matching_counts(compact_pipeline, reference_pipeline):
    with pytest.raises(InvalidInputError):
        crosstalk_matrix(
            compact_pipeline["prescription"],
            compact_pipeline["array"],
            reference_pipeline["crystal"],
            compact_pipeline["scenario"].mirror,
            grid=compact_pipeline["scenario"].grid,
        )


def test_reference_crosstalk_frozen(reference_crosstalk):
    report = reference_crosstalk["report"]
    nn_total = [
        c["total_db"]
        for c in report.contributions
        if abs(c["ion_i"] - c["ion_j"]) == 1
    ]
    assert max(nn_total) == pytest.approx(-25.604, abs=0.2)
    leaks = [c["leakage_db"] for c in report.contributions]
    assert max(leaks) == pytest.approx(-33.196, abs=0.1)


def test_reference_crosstalk_mirrors_the_upper_half(reference_crosstalk):
    # the centre channel 4 and the lower index of every other pair propagate
    assert reference_crosstalk["report"].mirror_of == (None,) * 5 + (4, 3, 2, 1, 0)


def test_far_channels_are_dark(reference_crosstalk):
    matrix = reference_crosstalk["report"].matrix_db
    n = matrix.shape[0]
    far = [matrix[i, j] for i in range(n) for j in range(n) if abs(i - j) >= 3]
    assert max(far) < -40.0


def test_crosstalk_totals_are_power_sums(reference_crosstalk):
    for c in reference_crosstalk["report"].contributions:
        expected = 10.0 * math.log10(
            10.0 ** (c["optical_db"] / 10.0) + 10.0 ** (c["leakage_db"] / 10.0)
        )
        assert c["total_db"] == pytest.approx(expected, abs=1e-9)
        assert c["total_db"] >= c["optical_db"] - 1e-12
        assert c["total_db"] >= c["leakage_db"] - 1e-12


def test_crosstalk_reversal_symmetry(reference_crosstalk):
    matrix = reference_crosstalk["report"].matrix_db
    flipped = matrix[::-1, ::-1]
    off_diagonal = ~np.eye(matrix.shape[0], dtype=bool)
    assert np.max(np.abs(matrix - flipped)[off_diagonal]) < 0.5


def test_crosstalk_alignment_fit(reference_crosstalk):
    report = reference_crosstalk["report"]
    assert report.alignment_scale == pytest.approx(1.0, abs=0.02)
    assert report.alignment_residual < 50e-9
    assert np.all(np.diag(report.matrix_db) == 0.0)


# ------------------------------------------------------------------- sweeps


def test_sweep_zero_perturbation_is_identity(compact_pipeline, compact_channels):
    pipe = compact_pipeline
    report = tolerance_sweep(
        pipe["prescription"],
        pipe["array"],
        pipe["scenario"].mirror,
        [{"parameter": "source_tilt", "lo": 0.0, "hi": 0.0, "steps": 1}],
        grid=pipe["scenario"].grid,
    )
    assert len(report.points) == 1
    point = report.points[0]
    assert point.value == 0.0
    assert abs(point.dz_focus) < 1e-12
    assert abs(point.dcentroid[0]) < 1e-12
    assert abs(point.dcentroid[1]) < 1e-12
    assert abs(point.dmfd[0]) < 1e-15
    assert report.baseline.channel == 0
    # the baseline is the record design writes for channel 0
    assert report.baseline == compact_channels[0]
    # the point carries the whole focus record, equal to the baseline's
    for field in dataclasses.fields(ChannelFocus):
        assert getattr(point, field.name) == getattr(report.baseline, field.name), field.name


def test_sweep_ties_go_to_the_lower_index(compact_pipeline):
    # channel 2 one ulp further out still ties with channel 0, which
    # crosstalk_matrix propagates and the sweep therefore runs
    pipe = compact_pipeline
    positions = pipe["positions"].copy()
    positions[2] = math.nextafter(-positions[0], math.inf)
    assert abs(positions[2]) > abs(positions[0])
    report = tolerance_sweep(
        pipe["prescription"],
        dataclasses.replace(pipe["array"], positions_m=positions),
        pipe["scenario"].mirror,
        [{"parameter": "source_tilt", "lo": 0.0, "hi": 0.0, "steps": 1}],
        grid=pipe["scenario"].grid,
    )
    assert report.baseline.channel == 0
    assert report.points[0].channel == 0


def test_sweep_preset_prism_mismatch(compact_pipeline):
    pipe = compact_pipeline
    report = tolerance_sweep(
        pipe["prescription"],
        pipe["array"],
        pipe["scenario"].mirror,
        (),
        grid=pipe["scenario"].grid,
        preset="prism-mismatch",
    )
    assert len(report.points) == 1
    point = report.points[0]
    assert point.parameter == "prism_design_angle"
    assert point.value == pytest.approx(7.0)
    assert point.residual_tilt_deg == pytest.approx(13.772, abs=0.01)
    assert point.clipped_fraction > 0.05
    assert point.off_normal


def test_sweep_unknown_preset_lists_available(compact_pipeline):
    pipe = compact_pipeline
    with pytest.raises(InvalidInputError, match="prism-mismatch"):
        tolerance_sweep(
            pipe["prescription"],
            pipe["array"],
            pipe["scenario"].mirror,
            (),
            grid=pipe["scenario"].grid,
            preset="bogus",
        )
    assert "prism-mismatch" in SWEEP_PRESETS


def test_sweep_unknown_parameter_lists_all_names(compact_pipeline, monkeypatch):
    pipe = compact_pipeline
    # the name is checked before any focus search
    monkeypatch.setattr(designer, "find_focus", None)
    with pytest.raises(InvalidInputError) as info:
        tolerance_sweep(
            pipe["prescription"],
            pipe["array"],
            pipe["scenario"].mirror,
            [{"parameter": "bogus", "lo": 0.0, "hi": 1.0, "steps": 2}],
            grid=pipe["scenario"].grid,
        )
    assert "'bogus'" in str(info.value)
    for name in (
        "prism_design_angle", "source_tilt", "lateral_offset", "z_offset", "chip_wedge"
    ):
        assert name in str(info.value)


def test_sweep_zero_steps_rejected_before_any_focus_search(compact_pipeline, monkeypatch):
    pipe = compact_pipeline
    monkeypatch.setattr(designer, "find_focus", None)
    with pytest.raises(InvalidInputError, match="steps"):
        tolerance_sweep(
            pipe["prescription"],
            pipe["array"],
            pipe["scenario"].mirror,
            [{"parameter": "source_tilt", "lo": 0.0, "hi": 1.0, "steps": 0}],
            grid=pipe["scenario"].grid,
        )


def test_sweep_non_finite_bounds_rejected_before_any_focus_search(
    compact_pipeline, monkeypatch
):
    pipe = compact_pipeline
    monkeypatch.setattr(designer, "find_focus", None)
    for lo, hi in ((math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(InvalidInputError, match="finite"):
            tolerance_sweep(
                pipe["prescription"],
                pipe["array"],
                pipe["scenario"].mirror,
                [{"parameter": "source_tilt", "lo": lo, "hi": hi, "steps": 2}],
                grid=pipe["scenario"].grid,
            )


def test_sweep_stack_below_chip_fails_before_any_focus_search(
    compact_pipeline, monkeypatch
):
    # the wedge sits 2 um above the chip, so a -3 um z_offset cannot be built
    pipe = compact_pipeline
    calls = []
    monkeypatch.setattr(designer, "find_focus", lambda *args: calls.append(args))
    message = (
        "sweep point z_offset=-3 um failed: z_offset -3.000e-06 m pushes the "
        "stack below the chip plane"
    )
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        tolerance_sweep(
            pipe["prescription"],
            pipe["array"],
            pipe["scenario"].mirror,
            [{"parameter": "source_tilt", "lo": -1.0, "hi": 1.0, "steps": 3},
             {"parameter": "z_offset", "lo": -3.0, "hi": 1.0, "steps": 2}],
            grid=pipe["scenario"].grid,
        )
    assert calls == []


def test_sweep_failure_gives_the_value_in_its_own_unit(compact_pipeline, monkeypatch):
    # a 35 degree wedge cannot be built; the message says degrees as --param does
    pipe = compact_pipeline
    monkeypatch.setattr(designer, "find_focus", None)
    with pytest.raises(InvalidInputError, match=re.escape(
        "sweep point prism_design_angle=35 deg failed: wedge tilt magnitude"
    )):
        tolerance_sweep(
            pipe["prescription"],
            pipe["array"],
            pipe["scenario"].mirror,
            [{"parameter": "prism_design_angle", "lo": 35.0, "hi": 35.0, "steps": 1}],
            grid=pipe["scenario"].grid,
        )


@pytest.mark.parametrize(
    "row, problem",
    [
        ({"parameter": "z_offset"}, "lacks lo, hi, steps"),
        ({"parameter": "z_offset", "lo": "a", "hi": 1.0, "steps": 2},
         "has lo 'a', not a finite real number"),
        ({"parameter": "z_offset", "lo": 0.0, "hi": 1.0, "steps": "x"},
         "has steps 'x', not an integer"),
        ({"parameter": "z_offset", "lo": 0.0, "hi": 1.0, "steps": math.nan},
         "has steps nan, not an integer"),
        ("z_offset", "is a str, not a mapping of parameter, lo, hi, steps"),
        ({"parameter": "z_offset", "lo": True, "hi": 1.0, "steps": 2},
         "has lo True, not a finite real number"),
        ({"parameter": "z_offset", "lo": 0.0, "hi": 1.0, "steps": True},
         "has steps True, not an integer"),
        # hi - lo overflows: np.linspace(-1e308, 1e308, 2) is [nan, 1e308]
        ({"parameter": "source_tilt", "lo": 1e308, "hi": -1e308, "steps": 3},
         "has lo 1e+308 and hi -1e+308, whose span or midpoint overflows"),
        # the one-step midpoint 0.5 * (lo + hi) is inf
        ({"parameter": "z_offset", "lo": 1e308, "hi": 1e308, "steps": 1},
         "has lo 1e+308 and hi 1e+308, whose span or midpoint overflows"),
    ],
    ids=["missing-key", "lo-not-a-number", "steps-not-a-number", "steps-nan", "bare-string",
         "lo-bool", "steps-bool", "span-overflows", "midpoint-overflows"],
)
def test_malformed_sweep_row_names_its_index(row, problem):
    # these escaped as KeyError, TypeError and ValueError; tolerance_sweep
    # checks its rows before it reads any other argument
    rows = [{"parameter": "source_tilt", "lo": 0.0, "hi": 1.0, "steps": 2}, row]
    message = re.escape(f"sweep row 1 {problem}")
    with pytest.raises(InvalidInputError, match=message):
        sweep_rows(rows)
    with pytest.raises(InvalidInputError, match=message):
        tolerance_sweep(None, None, None, rows, grid=None)


@pytest.mark.parametrize("pitch", [math.nan, -0.22e-6], ids=["nan", "negative"])
def test_crosstalk_and_sweep_reject_a_bad_grid_before_any_search(
    compact_pipeline, monkeypatch, pitch
):
    # a NaN or negative pitch emptied the mirror tie mask: a bare IndexError
    calls = []
    monkeypatch.setattr(designer, "find_focus", lambda *args: calls.append(args))
    pipe = compact_pipeline
    grid = (1024, 1024, pitch)
    message = f"^pitch must be positive and finite, got {pitch}$"
    with pytest.raises(InvalidInputError, match=message):
        crosstalk_matrix(pipe["prescription"], pipe["array"], pipe["crystal"],
                         pipe["scenario"].mirror, grid=grid)
    with pytest.raises(InvalidInputError, match=message):
        tolerance_sweep(pipe["prescription"], pipe["array"], pipe["scenario"].mirror,
                        [{"parameter": "source_tilt", "lo": 0.0, "hi": 1.0, "steps": 2}],
                        grid=grid)
    assert calls == []


def test_sweep_row_parameter_must_be_a_string():
    # a list parameter escaped as a bare TypeError (unhashable type)
    rows = [{"parameter": "source_tilt", "lo": 0.0, "hi": 1.0, "steps": 2},
            {"parameter": ["z_offset"], "lo": 0.0, "hi": 1.0, "steps": 2}]
    message = re.escape("sweep row 1 has parameter ['z_offset'], not a string")
    with pytest.raises(InvalidInputError, match=message):
        sweep_rows(rows)
    with pytest.raises(InvalidInputError, match=message):
        tolerance_sweep(None, None, None, rows, grid=None)


def test_sweep_holds_no_point_systems_before_its_searches(compact_pipeline, monkeypatch):
    # every point is checked before the first search, but its system is
    # dropped: kept, 10^5 z_offset points held about 79 MB at the baseline
    import tracemalloc

    class Searched(Exception):
        pass

    def no_search(*args):
        raise Searched

    monkeypatch.setattr(designer, "_search", no_search)
    pipe = compact_pipeline
    rows = [{"parameter": "z_offset", "lo": -1e-6, "hi": 1e-6, "steps": 10**5}]
    tracemalloc.start()
    try:
        with pytest.raises(Searched):
            tolerance_sweep(pipe["prescription"], pipe["array"], pipe["scenario"].mirror,
                            rows, grid=pipe["scenario"].grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the row's 0.8 MB of float64 values, and little more
    assert peak < 4 * 2**20


def test_sweep_steps_bounded_by_the_array_budget():
    # 1e300 steps reached np.linspace after synthesis: a bare ValueError
    assert MAX_SWEEP_STEPS * 8 == MAX_ARRAY_BYTES
    row = {"parameter": "z_offset", "lo": 0.0, "hi": 1e-6, "steps": MAX_SWEEP_STEPS}
    assert sweep_rows([row]) == [row]
    for steps in (MAX_SWEEP_STEPS + 1, 1e300):
        with pytest.raises(InvalidInputError, match=f"from 1 to {MAX_SWEEP_STEPS}, got"):
            sweep_rows([{**row, "steps": steps}])


def test_sweep_preset_rows_come_back_as_given(monkeypatch):
    # every row, preset or passed in, is in its parameter's unit, as --param is
    preset = {"parameter": "lateral_offset", "lo": -0.5, "hi": 2.0, "steps": 3}
    monkeypatch.setitem(designer.SWEEP_PRESETS, "offset-um", (preset,))
    given = {"parameter": "z_offset", "lo": 1.0, "hi": 1.0, "steps": 1}
    rows = designer.sweep_rows([given], preset="offset-um")
    assert rows == [given, preset]
    assert rows[1] is not preset


def test_mutating_a_returned_preset_row_leaves_the_preset_alone():
    # SWEEP_PRESETS holds module-level dicts; sweep_rows hands out copies
    shipped = [dict(row) for row in SWEEP_PRESETS["prism-mismatch"]]
    rows = sweep_rows((), preset="prism-mismatch")
    rows[0]["lo"] = rows[0]["hi"] = 99.0
    assert [dict(row) for row in SWEEP_PRESETS["prism-mismatch"]] == shipped
    assert sweep_rows((), preset="prism-mismatch") == shipped


def test_sweep_scales_a_micrometre_value_once(compact_pipeline, monkeypatch):
    # a 0.97 um lateral_offset moves the source by exactly 0.97 * UM; taken
    # to metres and back, the row's 0.97 would not survive (0.97e-6 / UM)
    class Searched(Exception):
        pass

    def no_search(*args):
        raise Searched

    pipe = compact_pipeline
    centres = []
    profiles = designer._gaussian_profiles

    def checked(beam, tilt, grid, center):
        centres.append(center)
        return profiles(beam, tilt, grid, center)

    monkeypatch.setattr(designer, "simulate_channel", lambda *args: None)
    # the source's checks run at its real centre; it enters from x = 0
    monkeypatch.setattr(designer, "_gaussian_profiles", checked)
    monkeypatch.setattr(designer, "find_focus", no_search)
    with pytest.raises(Searched):
        tolerance_sweep(pipe["prescription"], pipe["array"], pipe["scenario"].mirror,
                        [{"parameter": "lateral_offset", "lo": 0.97, "hi": 0.97, "steps": 1}],
                        grid=pipe["scenario"].grid)
    assert centres == [(pipe["array"].positions_m[0] + 0.97 * UM, 0.0)]
    assert 0.97e-6 / UM != 0.97


def test_sweep_single_step_builds_only_the_midpoint(compact_pipeline, monkeypatch):
    # z_offset -3:1:1 (um) runs at its valid midpoint, -1 um, and nowhere else
    pipe = compact_pipeline
    real_find_focus = designer.find_focus
    elements = []

    def recording_find_focus(*args):
        elements.append(args[1])
        return real_find_focus(*args)

    monkeypatch.setattr(designer, "find_focus", recording_find_focus)
    report = tolerance_sweep(
        pipe["prescription"],
        pipe["array"],
        pipe["scenario"].mirror,
        [{"parameter": "z_offset", "lo": -3.0, "hi": 1.0, "steps": 1}],
        grid=pipe["scenario"].grid,
    )
    assert [p.value for p in report.points] == [-1.0]
    nominal = [z for z, _ in pipe["prescription"].elements]
    assert [z for z, _ in elements[0]] == nominal
    assert [z for z, _ in elements[1]] == pytest.approx([z - 1e-6 for z in nominal])


def test_sweep_needs_work(compact_pipeline):
    pipe = compact_pipeline
    with pytest.raises(InvalidInputError):
        tolerance_sweep(
            pipe["prescription"],
            pipe["array"],
            pipe["scenario"].mirror,
            (),
            grid=pipe["scenario"].grid,
        )


def test_sweep_failure_names_point(compact_pipeline):
    pipe = compact_pipeline
    with pytest.raises(IonOpticsError, match="sweep point"):
        tolerance_sweep(
            pipe["prescription"],
            pipe["array"],
            pipe["scenario"].mirror,
            [{"parameter": "lateral_offset", "lo": 200.0, "hi": 200.0, "steps": 1}],
            grid=pipe["scenario"].grid,
        )


def test_sweep_failure_keeps_exception_type_and_attributes(
    compact_pipeline, monkeypatch
):
    pipe = compact_pipeline
    real_find_focus = designer.find_focus
    calls = []

    def failing_point(*args):
        calls.append(args)
        if len(calls) == 1:  # the unperturbed baseline
            return real_find_focus(*args)
        raise ConvergenceError("x", residual=0.5)

    monkeypatch.setattr(designer, "find_focus", failing_point)
    with pytest.raises(ConvergenceError, match="sweep point") as info:
        tolerance_sweep(
            pipe["prescription"],
            pipe["array"],
            pipe["scenario"].mirror,
            [{"parameter": "source_tilt", "lo": 0.1, "hi": 0.1, "steps": 1}],
            grid=pipe["scenario"].grid,
        )
    assert info.value.residual == 0.5


def source_calls(tree):
    """(callee, innermost enclosing function) of every find_focus,
    gaussian_planes and make_gaussian_field call in `tree`, sorted."""
    calls = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = getattr(child.func, "id", getattr(child.func, "attr", None))
                if callee in ("find_focus", "gaussian_planes", "make_gaussian_field"):
                    calls.append((callee, function))
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            visit(child, inner)

    visit(tree, None)
    return sorted(calls)


def test_every_focus_search_launches_in_one_place():
    # one function builds a channel's source planes and one runs its focus
    # search; the synthesis probe is the only source built as a field
    path = Path(designer.__file__)
    assert source_calls(ast.parse(path.read_text(encoding="utf-8"))) == [
        ("find_focus", "_search"),
        ("gaussian_planes", "_launch_sources"),
        ("make_gaussian_field", "_wave_verify"),
    ]


def test_focus_fit_residual_only_at_own_focus(compact_channels, reference_crosstalk):
    for focus in [*compact_channels, *reference_crosstalk["report"].channel_focus]:
        assert 0.0 <= focus.focus_fit_residual < 1.0
