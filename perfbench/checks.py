"""Output checks that rest on computations made here, apart from the program,
or on properties the method must have. The README states why each
tolerance has the size it has.

Every check appends a message to `Checks.failures` when it fails; a run
is correct when the list stays empty.
"""

from __future__ import annotations

import json
import math

# CODATA 2018, written out here rather than imported from the program
ELEMENTARY_CHARGE = 1.602176634e-19
VACUUM_PERMITTIVITY = 8.8541878128e-12
ATOMIC_MASS = 1.66053906660e-27
DB_PER_NEPER = 20.0 * math.log10(math.e)

CRYSTAL_REL_TOL = 1e-9
FORCE_TOL = 1e-9
MAGNIFICATION_TOL = 0.01
IMAGE_DISTANCE_TOL = 0.02
CENTROID_REL_TOL = 0.03
CENTROID_ABS_TOL_UM = 0.02
POWER_LOSS_TOL = 5e-4
POWER_GAIN_TOL = 1e-6
DB_TOL = 1e-9
NEAREST_NEIGHBOUR_BUDGET_DB = -25.0
LATERAL_REL_TOL = 0.05
LATERAL_ABS_TOL_UM = 0.01
FOCUS_SHIFT_REL_TOL = 0.10
FOCUS_SHIFT_ABS_TOL_UM = 0.03
TILT_TOL_DEG = 1e-9
SLOPE_REL_TOL = 0.05
SLOPE_ABS_TOL_RAD = 5e-5
MISMATCH_CLIP_RATIO = 5.0


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, condition, message):
        if not condition:
            self.failures.append(message)

    def close(self, value, expected, tol, what):
        self.expect(
            abs(value - expected) <= tol,
            f"{what}: {value!r} differs from {expected!r} by more than {tol:g}",
        )


def strict_load(path):
    """Decode a JSON report, rejecting the NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"{path}: non-finite number {token} is not JSON")

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def length_scale_um(trap: dict) -> float:
    """Coulomb length (q^2 / (4 pi eps0 m w^2))^(1/3) in micrometres."""
    q = trap.get("ion_charge", 1) * ELEMENTARY_CHARGE
    m = trap["ion_mass_amu"] * ATOMIC_MASS
    w = 2.0 * math.pi * trap["axial_frequency_hz"]
    return (q * q / (4.0 * math.pi * VACUUM_PERMITTIVITY * m * w * w)) ** (1.0 / 3.0) * 1e6


def exit_angle_deg(mirror: dict) -> float:
    """Snell exit angle of the TIR-folded ray, from the mirror block."""
    internal = math.radians(2.0 * (mirror["facet_angle_deg"] - 45.0))
    return math.degrees(
        math.asin(mirror["n_effective"] * math.sin(internal) / mirror.get("n_exit", 1.0))
    )


def three_ion_positions_um(trap: dict) -> list:
    """Closed form for three ions: 0 and +-(5/4)^(1/3) l."""
    edge = (5.0 / 4.0) ** (1.0 / 3.0) * length_scale_um(trap)
    return [-edge, 0.0, edge]


def check_three_ions(checks, positions_um, trap):
    expected = three_ion_positions_um(trap)
    checks.expect(len(positions_um) == 3, f"{len(positions_um)} ions, not 3")
    for got, want in zip(positions_um, expected):
        checks.close(got, want, CRYSTAL_REL_TOL * expected[-1], "three-ion position (um)")


def check_force_balance(checks, positions_um, trap):
    """Each ion's trap force balances the Coulomb repulsion of all others."""
    u = [p / length_scale_um(trap) for p in positions_um]
    checks.expect(all(b > a for a, b in zip(u, u[1:])), "ion positions not increasing")
    for i, ui in enumerate(u):
        coulomb = sum(
            math.copysign(1.0, ui - uj) / (ui - uj) ** 2 for j, uj in enumerate(u) if j != i
        )
        checks.close(ui - coulomb, 0.0, FORCE_TOL, f"force sum on ion {i}")
    for a, b in zip(u, reversed(u)):
        checks.close(a + b, 0.0, FORCE_TOL, "crystal mirror symmetry")


def _matmul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def imaging(focal_lengths, lens_positions):
    """(image distance past the last lens, signed magnification) of the
    thin-lens list, from the product of 2x2 ray matrices; source at z = 0."""
    m = [[1.0, 0.0], [0.0, 1.0]]
    z_prev = 0.0
    for f, z in zip(focal_lengths, lens_positions):
        m = _matmul([[1.0, z - z_prev], [0.0, 1.0]], m)
        m = _matmul([[1.0, 0.0], [-1.0 / f, 1.0]], m)
        z_prev = z
    v = -m[0][1] / m[1][1]
    return v, m[0][0] + v * m[1][0]


def check_prescription(checks, focal_lengths, lens_positions, targets):
    v, mag = imaging(focal_lengths, lens_positions)
    checks.expect(mag < 0, f"relay does not invert: magnification {mag:.4f}")
    checks.expect(
        abs(abs(mag) / targets["magnification"] - 1.0) <= MAGNIFICATION_TOL,
        f"ABCD magnification {abs(mag):.5f} misses target {targets['magnification']}",
    )
    checks.expect(
        abs(v / targets["image_distance_um"] - 1.0) <= IMAGE_DISTANCE_TOL,
        f"ABCD image distance {v:.3f} um misses target {targets['image_distance_um']}",
    )


def check_centroid(checks, centroid_x_um, waveguide_um, magnification, what):
    """The inverting relay puts the spot at -|m| times the waveguide offset."""
    expected = -magnification * waveguide_um
    checks.close(
        centroid_x_um, expected,
        CENTROID_REL_TOL * abs(expected) + CENTROID_ABS_TOL_UM, f"{what} centroid x (um)",
    )


def check_power_budget(checks, power, clipped):
    """Unit source power = power in the field + power the apertures removed.
    The band-limited propagator may only lose power (evanescent waves)."""
    budget = power + clipped - 1.0
    checks.expect(
        -POWER_LOSS_TOL <= budget <= POWER_GAIN_TOL,
        f"power {power:.6f} + clipped {clipped:.6f} = {budget + 1.0:.6f}, not 1",
    )


def leakage_db(array: dict, gap_um: float) -> float:
    """The scenario's exponential leakage calibration at a waveguide gap."""
    ref = array.get("leakage_reference", {"pitch_um": 5.0, "db": -30.0})
    decay = array.get("leakage_decay_per_um", 1.0)
    return ref["db"] + DB_PER_NEPER * decay * (ref["pitch_um"] - gap_um)


def check_crosstalk(checks, matrix_db, contributions, ion_positions_um, scenario):
    """Diagonal 0 dB, nearest-neighbour budget, leakage equal to the
    calibration between the two addressing waveguides, totals equal to
    power sums."""
    n = len(ion_positions_um)
    m = scenario["targets"]["magnification"]
    waveguides = [p / m for p in ion_positions_um]
    for a in range(n):
        checks.expect(matrix_db[a][a] == 0.0, f"crosstalk diagonal [{a}][{a}] is not 0 dB")
    checks.expect(len(contributions) == n * (n - 1), "crosstalk pair count")
    worst = -math.inf
    for c in contributions:
        a, b = c["ion_i"], c["ion_j"]
        # channel k addresses ion n-1-k
        gap = abs(waveguides[n - 1 - a] - waveguides[n - 1 - b])
        want = max(leakage_db(scenario.get("array", {}), gap), -200.0)
        checks.close(c["leakage_db"], want, DB_TOL, f"leakage term ({a},{b}) dB")
        total = 10.0 * math.log10(10.0 ** (c["optical_db"] / 10.0) + 10.0 ** (c["leakage_db"] / 10.0))
        checks.close(c["total_db"], total, DB_TOL, f"power sum ({a},{b}) dB")
        checks.close(matrix_db[a][b], c["total_db"], DB_TOL, f"matrix entry ({a},{b}) dB")
        if abs(a - b) == 1:
            worst = max(worst, c["total_db"])
    checks.expect(
        worst <= NEAREST_NEIGHBOUR_BUDGET_DB,
        f"worst nearest-neighbour crosstalk {worst:.2f} dB exceeds {NEAREST_NEIGHBOUR_BUDGET_DB} dB",
    )


def _sind(deg):
    return math.sin(math.radians(deg))


def check_sweep_points(checks, points, requested, scenario, baseline):
    """Each point against the paraxial response to its perturbation."""
    m = scenario["targets"]["magnification"]
    exit_deg = exit_angle_deg(scenario["mirror"])
    checks.expect(
        [p["parameter"] for p in points] == [name for name, _ in requested],
        f"sweep parameters {[p['parameter'] for p in points]} are not the requested "
        f"{[name for name, _ in requested]}",
    )
    for p, (_, value) in zip(points, requested):
        checks.close(p["value"], value, 1e-9 * max(1.0, abs(value)), f"{p['parameter']} value")
    mismatch = points[-1]
    for p in points:
        name, value = p["parameter"], p["value"]
        tilt = {"prism_design_angle": exit_deg - value, "source_tilt": value}.get(name, 0.0)
        checks.close(p["residual_tilt_deg"], tilt, TILT_TOL_DEG, f"{name} residual tilt (deg)")
        if p is not mismatch and name in ("prism_design_angle", "source_tilt", "chip_wedge"):
            # a tilt error changes the launch direction cosine by ds; past the
            # inverting relay the ray slope is ds / A with A = -|m|
            ds = {
                "prism_design_angle": _sind(exit_deg) - _sind(value),
                "source_tilt": _sind(exit_deg + value) - _sind(exit_deg),
                "chip_wedge": _sind(value),
            }[name]
            want = -ds / m
            checks.close(p["beam_slope_rad"] - baseline["beam_slope_rad"], want,
                         SLOPE_REL_TOL * abs(want) + SLOPE_ABS_TOL_RAD,
                         f"{name} beam slope change (rad)")
        if name == "lateral_offset":
            want = -m * value
            checks.close(p["dcentroid_um"][0], want,
                         LATERAL_REL_TOL * abs(want) + LATERAL_ABS_TOL_UM,
                         "lateral_offset dcentroid_x (um)")
        elif name == "z_offset":
            want = (1.0 - m * m) * value
            checks.close(p["dz_focus_um"], want,
                         FOCUS_SHIFT_REL_TOL * abs(want) + FOCUS_SHIFT_ABS_TOL_UM,
                         "z_offset dz_focus (um)")
    checks.expect(mismatch["off_normal"], "prism-mismatch point not flagged off-normal")
    checks.expect(
        mismatch["clipped_fraction"] > MISMATCH_CLIP_RATIO * baseline["clipped_fraction"],
        f"prism-mismatch point clips {mismatch['clipped_fraction']:.4f}, not more than "
        f"{MISMATCH_CLIP_RATIO} x the baseline {baseline['clipped_fraction']:.4f}",
    )
