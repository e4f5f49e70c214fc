"""Interaction-free measurement simulator.

Subpackages cover the single-photon bomb test on a two-arm interferometer,
its N-cycle repeated-interrogation variant, a three-grating matter-wave
interferometer with a tunable dark fringe, classical field sources with
Lorentz-force trajectory bending, and the discrete source-scanning protocol
that measures a field without the detected particle ever entering it.
"""

__version__ = "0.3.0"

from .fields import (
    CGS,
    BeamGeometry,
    BracketError,
    FieldSource,
    PhysicalConstants,
    PointCharge,
    ProtocolError,
    SingularityError,
    StepLimitError,
    TestParticle,
    TrajectoryResult,
    UniformBRegion,
    UniformERegion,
    box_deflection,
    coulomb_deflection,
    critical_distance,
    deflection_at_distance,
    eval_fields,
    integrate_trajectory,
    light_deflection,
    lorentz_force,
    scan_row,
    sphere_radius_for_deflection,
    with_position,
)
from .matter_mz import (
    BLOCK_LOWER,
    BLOCK_UPPER,
    NO_BLOCKS,
    GratingSpec,
    InterferometerModel,
    NullSolution,
    PathBlockSet,
    detector_probability,
    ifm_efficiency,
    solve_ideal_offset,
)
from .photon_mz import (
    EvDistribution,
    EvSetup,
    ZenoDistribution,
    ev_outcome_distribution,
    run_ev_trials,
    zeno_ifm_distribution,
)
from .protocol import (
    CalibrationResult,
    CalibrationSetup,
    PositionRecord,
    ScanConfig,
    ScanResult,
    ab_phase,
    calibrate,
    potential_phase,
    required_trials,
    run_field_scan,
)
