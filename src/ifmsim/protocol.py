"""Field measurement by discrete source scanning on a calibrated interferometer.

The protocol: enclose both primary paths in metallic cages (uniform interior
potential, hence zero force), compute the phase the potential difference and
any enclosed magnetic flux imprint between the paths, and solve for the
third-grating phase that nulls the detector.  With the cages removed, the
field source is stepped toward the expected upper (order +1) path; at each
position the source's field either bends the upper-path particle past the
critical angle - removing that path and opening the p1*p2 detection channel -
or leaves the interferometer dark.  A detector click therefore bounds the
field at the upper path from below, with an uncertainty set by the scan step,
while the detected particle itself rode the untouched lower path.

Source positions change only between trials, never while a particle is in
flight, so the scan never induces time-varying fields: this is structural
(each position is a constant of its block of trials).

Phases and fields use the fixed Gaussian CGS constants :data:`fields.CGS`;
no function takes others.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    CGS,
    BeamGeometry,
    FieldSource,
    ProtocolError,
    TestParticle,
    _require_positive,
    scan_row,
)
from .matter_mz import (
    BLOCK_UPPER,
    NO_BLOCKS,
    InterferometerModel,
    NullSolution,
    detector_probability,
    solve_ideal_offset,
    wrap_phase,
)
from .photon_mz import _count_below

# A model counts as calibrated when its no-block detector probability is
# below this threshold.
CALIBRATED_NULL_TOL = 1e-12


@dataclass(frozen=True)
class CalibrationSetup:
    """Cage potentials and flux seen by a particle between the outer gratings.

    Potentials in statV, transit time in s, enclosed flux in gauss*cm^2.
    Inside a cage the potential is spatially uniform, so no force acts; only
    the phases below survive.
    """

    transit_time: float
    cage_potential_upper: float = 0.0
    cage_potential_lower: float = 0.0
    enclosed_flux: float = 0.0

    def __post_init__(self) -> None:
        _require_positive(self.transit_time, "transit_time")


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated model plus the null solution it was built from."""

    model: InterferometerModel
    null: NullSolution


def potential_phase(q: float, delta_V: float, transit_time: float) -> float:
    """Phase -q*dV*T/hbar picked up in a region of uniform potential, mod 2*pi.

    q in statC, delta_V in statV, transit_time in s; returns radians in
    [0, 2*pi).  A phase that is not a finite float raises ``ValueError``.
    """
    return _finite_phase(-q * delta_V * transit_time / CGS.hbar, "potential phase -q dV T/hbar")


def ab_phase(q: float, flux: float) -> float:
    """Phase q*flux/(hbar*c) from magnetic flux enclosed between the paths, mod 2*pi.

    Acquired through the vector potential even where the field itself
    vanishes along both paths.  A phase that is not a finite float raises
    ``ValueError``.
    """
    return _finite_phase(q * flux / (CGS.hbar * CGS.c), "Aharonov-Bohm phase q flux/(hbar c)")


def _finite_phase(phase: float, name: str) -> float:
    if not math.isfinite(phase):
        raise ValueError(f"the {name} is {phase}, not a finite float")
    return wrap_phase(phase)


def calibrate(model: InterferometerModel, setup: CalibrationSetup, q: float) -> CalibrationResult:
    """Null the detector for the phase environment described by ``setup``.

    The relative phase is carried on the lower path (matching the model's
    phase convention): the potential term uses dV = V_lower - V_upper and the
    flux term adds q*flux/(hbar*c).  No trajectory is integrated - inside the
    cages there is no force, only phase.  An imperfect null (unequal path
    weights) is propagated through the attached :class:`NullSolution`.  A
    phase that is not a finite float raises ``ValueError`` naming it.
    """
    delta_v = setup.cage_potential_lower - setup.cage_potential_upper
    arm = wrap_phase(
        potential_phase(q, delta_v, setup.transit_time) + ab_phase(q, setup.enclosed_flux)
    )
    adjusted = dataclasses.replace(model, arm_extra_phase=arm)
    null = solve_ideal_offset(adjusted)
    calibrated = dataclasses.replace(adjusted, third_grating_phase=null.phase)
    return CalibrationResult(model=calibrated, null=null)


def required_trials(p_detect: float, confidence: float) -> int:
    """Smallest M with 1 - (1 - p_detect)^M >= confidence.

    Evaluated as -expm1(M * log1p(-p_detect)), exact also where 1 - p_detect rounds.
    """
    if not 0.0 < p_detect <= 1.0:
        raise ValueError("p_detect must lie in (0, 1]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    if p_detect == 1.0:
        return 1
    log_miss = math.log1p(-p_detect)
    estimate = math.log1p(-confidence) / log_miss
    if math.isinf(estimate):  # a subnormal p_detect
        raise ValueError(f"p_detect = {p_detect} needs more trials than a float can count")
    m = max(1, math.ceil(estimate))
    # Guard against floating-point edge-of-ceiling errors in either direction.
    while -math.expm1(m * log_miss) < confidence:
        m += 1
    while m > 1 and -math.expm1((m - 1) * log_miss) >= confidence:
        m -= 1
    return m


@dataclass(frozen=True, eq=False)
class ScanConfig:
    """Discrete scan schedule for moving the source toward the upper path.

    ``positions`` are source distances in cm, strictly decreasing (the source
    approaches the beam); ``phi_c`` is the critical deflection angle beyond
    which the upper-path particle misses the second grating.  The seed fixes
    every Bernoulli trial: position k draws from default_rng([seed, k]).
    """

    positions: tuple[float, ...]
    trials_per_position: int
    confidence_target: float
    phi_c: float
    seed: int
    geometry: BeamGeometry
    dt: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(float(p) for p in self.positions))
        if not self.positions:
            raise ValueError("positions must be nonempty")
        if any(b >= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("positions must be strictly decreasing (approaching the beam)")
        if not all(p > 0.0 for p in self.positions):
            raise ValueError("positions must be positive distances")
        if self.trials_per_position < 1:
            raise ValueError("trials_per_position must be at least 1")
        if not 0.0 < self.confidence_target < 1.0:
            raise ValueError("confidence_target must lie in (0, 1)")
        _require_positive(self.phi_c, "phi_c")
        _require_positive(self.dt, "dt")


@dataclass(frozen=True)
class PositionRecord:
    """Per-position scan outcome."""

    distance: float
    deflection_angle: float
    blocked: bool
    detection_probability: float
    trials: int
    detections: int
    field_magnitude: float


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Full record of a discrete source scan.

    ``field_bound`` is the source's field magnitude at the upper path's point
    of closest approach for the first detecting position (a lower bound on
    the field that produced the block); ``field_bound_error`` is the change of
    that magnitude across the bracketing scan step, None when detection
    happened at the very first position.  ``detected_v_final`` is the exit
    velocity of the detected particle - identical to the launch velocity,
    because the detected particle rode the force-free lower path.
    """

    per_position: tuple[PositionRecord, ...]
    first_detecting_position: float | None
    field_bound: float | None
    field_bound_error: float | None
    bracket: tuple[float, float] | None
    conclusive: bool
    detected_path: str | None
    detected_v_final: np.ndarray | None


def run_field_scan(
    model: InterferometerModel,
    source_template: FieldSource,
    particle: TestParticle,
    config: ScanConfig,
) -> ScanResult:
    """Execute the discrete scan on a calibrated interferometer.

    For each source distance, :func:`fields.scan_row` computes the
    upper-path deflection once (the block decision is geometric and
    deterministic) and the field magnitude at closest approach; it is the
    one place that decides how, and its point-charge rows run RK4 at the
    scan's ``dt``.  The per-trial detection probability is p1*p2 when the
    path is blocked and the calibrated null otherwise.  Trials are seeded Bernoulli
    draws; the scan stops at the first position with at least one detection.
    Deflection must grow (weakly) as the source approaches; a violation
    raises :class:`ProtocolError`.
    """
    p_null = detector_probability(model, NO_BLOCKS)
    if p_null >= CALIBRATED_NULL_TOL:
        raise ValueError(
            f"model is not calibrated: no-block detector probability {p_null:.3e}"
        )
    p_blocked = detector_probability(model, BLOCK_UPPER)

    records: list[PositionRecord] = []
    previous_deflection = None
    previous_magnitude = None
    for k, distance in enumerate(config.positions):
        deflection, magnitude = scan_row(
            particle, source_template, config.geometry, distance, config.dt
        )
        if previous_deflection is not None and deflection < previous_deflection - 1e-12:
            raise ProtocolError(
                "deflection decreased while the source approached the beam "
                f"({previous_deflection:.3e} -> {deflection:.3e} at {distance} cm)"
            )
        previous_deflection = deflection

        blocked = deflection > config.phi_c
        p_detect = p_blocked if blocked else p_null
        rng = np.random.default_rng([config.seed, k])
        (detections,) = _count_below(rng, config.trials_per_position, (p_detect,))
        records.append(
            PositionRecord(
                distance=distance,
                deflection_angle=deflection,
                blocked=blocked,
                detection_probability=p_detect,
                trials=config.trials_per_position,
                detections=detections,
                field_magnitude=magnitude,
            )
        )
        if detections >= 1:
            return ScanResult(
                per_position=tuple(records),
                first_detecting_position=distance,
                field_bound=magnitude,
                field_bound_error=(
                    abs(magnitude - previous_magnitude) if previous_magnitude is not None else None
                ),
                bracket=(distance, config.positions[k - 1]) if k > 0 else None,
                conclusive=True,
                detected_path="lower",
                detected_v_final=particle.v0.copy(),
            )
        previous_magnitude = magnitude

    return ScanResult(
        per_position=tuple(records),
        first_detecting_position=None,
        field_bound=None,
        field_bound_error=None,
        bracket=None,
        conclusive=False,
        detected_path=None,
        detected_v_final=None,
    )
