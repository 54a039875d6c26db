"""Design and verification toolkit for multi-channel ion-addressing optics.

The package covers the full chain from trapped-ion physics to deliverable
optics: ion-crystal equilibrium positions, Gaussian-beam ABCD design,
scalar wave propagation with focal-spot metrology, the photonic chip's
out-coupling mirror and waveguide-leakage model, and an end-to-end
designer that synthesizes a printable lens stack and verifies it with
per-channel simulations, crosstalk matrices and tolerance sweeps.
"""

__version__ = "0.1.0"

from .constants import (
    ATOMIC_MASS,
    COULOMB_CONSTANT,
    ELEMENTARY_CHARGE,
    VACUUM_PERMITTIVITY,
)
from .crystal import (
    IonCrystal,
    TrapSpec,
    equilibrium_positions,
    force_residual,
    ion_spacings,
    length_scale,
    solve_crystal,
)
from .designer import (
    ChannelFocus,
    CrosstalkReport,
    DesignTargets,
    LensStackPrescription,
    SweepPoint,
    SweepReport,
    SWEEP_PRESETS,
    crosstalk_matrix,
    pitch_plan,
    simulate_channel,
    synthesize_lens_stack,
    tolerance_sweep,
)
from .errors import (
    ConvergenceError,
    FocusNotBracketedError,
    InfeasibleDesignError,
    InvalidGeometryError,
    InvalidInputError,
    IonOpticsError,
    NoTirError,
    PropagationWindowError,
    SamplingError,
    ScenarioError,
    SingularConfigurationError,
    TrappedRayError,
)
from .gaussbeam import (
    AstigmaticGaussian,
    BeamAxis,
    FreeSpace,
    ThinLens,
    beam_from_mfd,
    chain_matrix,
    propagate_abcd,
    rayleigh_length,
    width_at,
)
from .picmodel import (
    OutcouplingResult,
    TirMirrorSpec,
    WaveguideArraySpec,
    leakage_crosstalk,
    outcoupling_angle,
    tir_critical_angle,
)
from .scenario import Scenario, load_scenario, parse_scenario
from .wavefield import (
    CircAperture,
    FocusResult,
    ScalarField,
    SpotMetrics,
    ThinLensPhase,
    WedgePhase,
    angular_spectrum_propagate,
    apply_element,
    find_focus,
    make_gaussian_field,
    read_field_sfld,
    spot_metrics,
    write_field_csv,
    write_field_sfld,
)
