"""Cage calibration, phase corrections, trial counts, and the discrete scan."""

import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from ifmsim.fields import (
    CGS,
    BeamGeometry,
    PointCharge,
    ProtocolError,
    TestParticle,
    UniformBRegion,
    critical_distance,
)
from ifmsim.matter_mz import (
    BLOCK_UPPER,
    NO_BLOCKS,
    GratingSpec,
    InterferometerModel,
    detector_probability,
)
from ifmsim.photon_mz import _count_below
from ifmsim.protocol import (
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

TWO_PI = 2.0 * math.pi
ELECTRON_Q = -4.80e-10
ELECTRON_M = 9.11e-28
BEAM_SPEED = 1.0e8


def beam_particle() -> TestParticle:
    return TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=[-0.5, 0, 0], v0=[BEAM_SPEED, 0, 0])


def beam_geometry() -> BeamGeometry:
    return BeamGeometry(
        exit_plane_x=0.5, source_anchor=[0, 0, 0], approach_direction=[0, 1, 0]
    )


def symmetric_model(p: float = 1.0 / 3.0) -> InterferometerModel:
    g = GratingSpec.symmetric(p)
    return InterferometerModel(g1=g, g2=g, g3=g)


def calibrated_model() -> InterferometerModel:
    return calibrate(symmetric_model(), CalibrationSetup(transit_time=1e-8), ELECTRON_Q).model


def scan_config(**overrides) -> ScanConfig:
    defaults = dict(
        positions=(0.40, 0.35, 0.30, 0.25, 0.20, 0.15, 0.10),
        trials_per_position=200,
        confidence_target=0.999,
        phi_c=2e-3,
        seed=11,
        geometry=beam_geometry(),
        dt=1e-11,
    )
    defaults.update(overrides)
    return ScanConfig(**defaults)


class TestPotentialPhase:
    def test_zero_potential(self):
        assert potential_phase(ELECTRON_Q, 0.0, 1e-8) == 0.0

    def test_linear_in_transit_time(self):
        q, dv = 4.8e-10, 1.0
        t = 0.3 * CGS.hbar / (q * dv)  # unreduced phase -0.3
        p1 = potential_phase(q, dv, t)
        p2 = potential_phase(q, dv, 2 * t)
        # Unreduced phases are -0.3 and -0.6; both wrap up by one turn.
        assert p1 == pytest.approx(TWO_PI - 0.3, rel=1e-12)
        assert p2 == pytest.approx(TWO_PI - 0.6, rel=1e-12)

    def test_pi_phase_case(self):
        # Solve T = pi*hbar/(qV) by hand, then confirm the phase is pi.
        q, dv = 4.8e-10, 1.0
        t = math.pi * CGS.hbar / (q * dv)
        assert potential_phase(q, dv, t) == pytest.approx(math.pi, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            phase = potential_phase(
                float(rng.standard_normal() * 1e-10),
                float(rng.standard_normal()),
                float(rng.uniform(1e-10, 1e-6)),
            )
            assert 0.0 <= phase < TWO_PI


class TestAbPhase:
    def test_zero_flux(self):
        assert ab_phase(ELECTRON_Q, 0.0) == 0.0

    def test_flux_quantum_is_invisible(self):
        q = 4.8e-10
        quantum = TWO_PI * CGS.hbar * CGS.c / q
        phase = ab_phase(q, quantum)
        assert min(phase, TWO_PI - phase) < 1e-9

    def test_half_quantum_gives_pi(self):
        q = 4.8e-10
        quantum = TWO_PI * CGS.hbar * CGS.c / q
        assert ab_phase(q, quantum / 2) == pytest.approx(math.pi, rel=1e-9)


class TestCalibrate:
    def test_zero_environment_equals_bare_offset(self):
        model = symmetric_model()
        result = calibrate(model, CalibrationSetup(transit_time=1e-8), ELECTRON_Q)
        from ifmsim.matter_mz import solve_ideal_offset

        assert result.model.third_grating_phase == solve_ideal_offset(model).phase
        assert result.model.arm_extra_phase == 0.0

    def test_pi_potential_shifts_calibration_by_pi(self):
        q = 4.8e-10
        dv = 1.0
        t = math.pi * CGS.hbar / (q * dv)
        base = calibrate(symmetric_model(), CalibrationSetup(transit_time=t), q)
        shifted = calibrate(
            symmetric_model(),
            CalibrationSetup(transit_time=t, cage_potential_lower=dv),
            q,
        )
        diff = abs(shifted.model.third_grating_phase - base.model.third_grating_phase)
        assert min(diff, TWO_PI - diff) == pytest.approx(math.pi, abs=1e-9)
        # Independent grid check: the shifted model is dark at its own setting.
        assert detector_probability(shifted.model, NO_BLOCKS) < 1e-12

    def test_postcondition_null_for_random_setups(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            model = symmetric_model(float(rng.uniform(0.05, 1 / 3)))
            setup = CalibrationSetup(
                transit_time=float(rng.uniform(1e-9, 1e-7)),
                cage_potential_upper=float(rng.standard_normal() * 1e-9),
                cage_potential_lower=float(rng.standard_normal() * 1e-9),
                enclosed_flux=float(rng.standard_normal() * 1e-8),
            )
            result = calibrate(model, setup, ELECTRON_Q)
            assert result.null.perfect
            assert detector_probability(result.model, NO_BLOCKS) < 1e-12

    def test_recalibration_is_fixed_point(self):
        setup = CalibrationSetup(transit_time=1e-8, cage_potential_lower=2e-9)
        first = calibrate(symmetric_model(), setup, ELECTRON_Q)
        second = calibrate(first.model, setup, ELECTRON_Q)
        assert abs(
            second.model.third_grating_phase - first.model.third_grating_phase
        ) < 1e-12

    def test_imperfect_null_propagates(self):
        g1 = GratingSpec(0.25, 0.5, 0.25)
        g2 = GratingSpec(0.1, 0.4, 0.5)
        model = InterferometerModel(g1=g1, g2=g2, g3=GratingSpec.symmetric(1 / 3))
        result = calibrate(model, CalibrationSetup(transit_time=1e-8), ELECTRON_Q)
        assert not result.null.perfect
        assert result.null.residual > 0

    def test_invalid_transit_time(self):
        for transit_time in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                CalibrationSetup(transit_time=transit_time)

    @pytest.mark.parametrize(
        "setup, name",
        [(CalibrationSetup(transit_time=1e-8, cage_potential_lower=1e300), "potential phase"),
         (CalibrationSetup(transit_time=1e-8, enclosed_flux=1e308), "Aharonov-Bohm phase")],
    )
    def test_nonfinite_phase_is_named(self, setup, name):
        # It surfaced as "third_grating_phase must lie in [0, 2*pi)".
        with pytest.raises(ValueError, match=f"the {name} .* is -?inf, not a finite float"):
            calibrate(symmetric_model(), setup, ELECTRON_Q)


class TestRequiredTrials:
    def test_quarter_probability(self):
        # 1 - 0.75^11 = 0.9578 is the first count past 95%.
        assert required_trials(0.25, 0.95) == 11

    def test_certain_detection(self):
        assert required_trials(1.0, 0.99) == 1

    def test_tiny_confidence(self):
        assert required_trials(0.3, 1e-12) == 1

    def test_zero_probability_unbounded(self):
        with pytest.raises(ValueError):
            required_trials(0.0, 0.9)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            required_trials(0.5, 1.0)

    def test_minimality_over_random_inputs(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            p = float(rng.uniform(0.01, 0.99))
            conf = float(rng.uniform(0.01, 0.999))
            m = required_trials(p, conf)
            assert 1.0 - (1.0 - p) ** m >= conf
            if m > 1:
                assert 1.0 - (1.0 - p) ** (m - 1) < conf


    @pytest.mark.parametrize(
        "p, conf, expected",
        [(0.25, 0.999, 25), (1 / 9, 0.999, 59), (1e-3, 0.99, 4603), (0.3, 0.5, 2),
         (0.999, 0.999999, 2), (1e-5, 0.9999, 921030), (1e-6, 0.999, 6907752)],
    )
    def test_counts_recorded_before_the_expm1_form(self, p, conf, expected):
        assert required_trials(p, conf) == expected

    @pytest.mark.parametrize("p", [1e-10, 1e-12, 1e-15])
    def test_tiny_probability_is_fast_and_minimal(self, p):
        # 1 - p rounds to 1 here; stepping m by 1 on (1 - p)**m never ended.
        start = time.perf_counter()
        m = required_trials(p, 0.999)
        assert time.perf_counter() - start < 0.01
        assert -math.expm1(m * math.log1p(-p)) >= 0.999
        assert -math.expm1((m - 1) * math.log1p(-p)) < 0.999

    def test_ceiling_that_rounds_low_is_stepped_up(self):
        # The estimate log1p(-conf)/log1p(-p) rounds to exactly 5.0, but five
        # trials reach just under conf.
        p, conf = 0.09738008983062874, 0.40086520077136545
        assert math.log1p(-conf) / math.log1p(-p) == 5.0
        assert -math.expm1(5 * math.log1p(-p)) < conf
        assert required_trials(p, conf) == 6

    def test_subnormal_probability_rejected(self):
        with pytest.raises(ValueError):
            required_trials(5e-324, 0.999)


class TestScanConfigValidation:
    def test_positions_must_decrease(self):
        with pytest.raises(ValueError):
            scan_config(positions=(0.1, 0.2))

    def test_positions_positive(self):
        with pytest.raises(ValueError, match="positive"):
            scan_config(positions=(0.4, 0.0, -0.2))

    @pytest.mark.parametrize("positions", [(math.inf, 0.3), (0.4, math.nan), (10**400, 0.3)],
                             ids=["inf", "nan", "int-past-float-range"])
    def test_positions_finite(self, positions):
        # 10**400 raised OverflowError from float(); inf was kept as a position.
        with pytest.raises(ValueError, match="^positions must be finite$"):
            scan_config(positions=positions)

    def test_positions_nonempty(self):
        with pytest.raises(ValueError):
            scan_config(positions=())

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            scan_config(trials_per_position=0)

    @pytest.mark.parametrize("trials", [176.0, True, np.float64(200.0), "200"])
    def test_trials_must_be_an_integer(self, trials):
        # 176.0 and True constructed, and the scan failed in numpy after its first row.
        with pytest.raises(ValueError, match="^trials_per_position must be an integer"):
            scan_config(trials_per_position=trials)

    def test_numpy_integer_trials_accepted(self):
        assert scan_config(trials_per_position=np.int64(200)).trials_per_position == 200

    def test_trials_capped(self):
        assert scan_config(trials_per_position=10**7).trials_per_position == 10**7
        with pytest.raises(ValueError, match=r"^trials_per_position must lie in \[1, 10000000\]$"):
            scan_config(trials_per_position=10**7 + 1)

    def test_seed_below_2_to_the_64(self):
        assert scan_config(seed=2**64 - 1).seed == 2**64 - 1
        with pytest.raises(ValueError, match="^seed must be a non-negative integer below 2"):
            scan_config(seed=2**64)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(3.0), "3"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # -1 and 1.5 constructed, and the scan failed in numpy after its first row.
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            scan_config(seed=seed)

    def test_confidence_in_open_interval(self):
        with pytest.raises(ValueError):
            scan_config(confidence_target=1.0)

    @pytest.mark.parametrize("name", ["phi_c", "dt"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_phi_c_and_dt_finite_positive(self, name, value):
        # A NaN phi_c made every scan silently inconclusive: deflection > NaN is never true.
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            scan_config(**{name: value})


class TestRunFieldScan:
    def test_uncalibrated_model_rejected(self):
        model = symmetric_model()  # third grating not at the dark fringe
        with pytest.raises(ValueError):
            run_field_scan(
                model, PointCharge(q=5e-6, position=[0, 1, 0]), beam_particle(), scan_config()
            )

    def test_weak_source_is_inconclusive(self):
        result = run_field_scan(
            calibrated_model(),
            PointCharge(q=1e-8, position=[0, 1, 0]),
            beam_particle(),
            scan_config(),
        )
        assert not result.conclusive
        assert result.first_detecting_position is None
        assert result.field_bound is None
        assert result.bracket is None
        assert len(result.per_position) == 7
        assert all(not rec.blocked for rec in result.per_position)

    def test_records_have_no_dict_and_round_trip(self):
        # Slotted records keep no __dict__, so a retained ScanResult is smaller.
        result = run_field_scan(calibrated_model(), PointCharge(q=5e-6, position=[0, 1, 0]),
                                beam_particle(), scan_config())
        record = result.per_position[0]
        assert not hasattr(result, "__dict__") and not hasattr(record, "__dict__")
        assert PositionRecord(**dataclasses.asdict(record)) == record
        assert dataclasses.replace(record, detections=0).detections == 0
        fields = dataclasses.asdict(result)
        fields["per_position"] = tuple(PositionRecord(**r) for r in fields["per_position"])
        copy = ScanResult(**fields)
        assert copy.per_position == result.per_position
        assert copy.bracket == result.bracket and copy.field_bound == result.field_bound
        assert np.array_equal(copy.detected_v_final, result.detected_v_final)

    def test_detection_and_interaction_free_signature(self):
        particle = beam_particle()
        source = PointCharge(q=5e-6, position=[0, 1, 0])
        config = scan_config()
        result = run_field_scan(calibrated_model(), source, particle, config)
        assert result.conclusive
        # Detection happens exactly at the first blocked position.
        first_blocked = next(rec for rec in result.per_position if rec.blocked)
        assert result.first_detecting_position == first_blocked.distance
        # The detected particle rode the lower path and kept its velocity.
        assert result.detected_path == "lower"
        assert np.array_equal(result.detected_v_final, particle.v0)
        # Deflection grows as the source approaches.
        angles = [rec.deflection_angle for rec in result.per_position]
        assert all(b >= a for a, b in zip(angles, angles[1:]))
        # Blocked positions open the p1*p2 channel; open positions stay dark.
        model = calibrated_model()
        for rec in result.per_position:
            expected = (
                detector_probability(model, BLOCK_UPPER)
                if rec.blocked
                else detector_probability(model, NO_BLOCKS)
            )
            assert rec.detection_probability == expected

    def test_bracket_contains_critical_distance(self):
        particle = beam_particle()
        source = PointCharge(q=5e-6, position=[0, 1, 0])
        config = scan_config(trials_per_position=500)
        result = run_field_scan(calibrated_model(), source, particle, config)
        assert result.conclusive and result.bracket is not None
        d_c = critical_distance(
            particle,
            source,
            config.geometry,
            config.phi_c,
            (config.positions[-1], config.positions[0]),
            config.dt,
        )
        near, far = result.bracket
        assert near < d_c < far

    def test_field_bound_is_closest_approach_magnitude(self):
        # For this geometry the closest approach is the anchor itself, at
        # distance d, so the point-charge bound must be |Q|/d^2.
        source = PointCharge(q=5e-6, position=[0, 1, 0])
        result = run_field_scan(
            calibrated_model(), source, beam_particle(), scan_config()
        )
        for rec in result.per_position:
            assert rec.field_magnitude == pytest.approx(
                5e-6 / rec.distance**2, rel=1e-12
            )
        assert result.conclusive
        det = result.first_detecting_position
        prev = result.bracket[1]
        assert result.field_bound == pytest.approx(5e-6 / det**2, rel=1e-12)
        assert result.field_bound_error == pytest.approx(
            abs(5e-6 / det**2 - 5e-6 / prev**2), rel=1e-12
        )

    def test_reproducible_for_fixed_seed(self):
        source = PointCharge(q=5e-6, position=[0, 1, 0])
        r1 = run_field_scan(calibrated_model(), source, beam_particle(), scan_config())
        r2 = run_field_scan(calibrated_model(), source, beam_particle(), scan_config())
        assert r1.per_position == r2.per_position
        assert r1.first_detecting_position == r2.first_detecting_position

    def test_detection_at_first_position_has_no_bracket(self):
        source = PointCharge(q=5e-6, position=[0, 1, 0])
        config = scan_config(positions=(0.15, 0.10), trials_per_position=2000)
        result = run_field_scan(calibrated_model(), source, beam_particle(), config)
        assert result.conclusive
        assert result.first_detecting_position == 0.15
        assert result.bracket is None
        assert result.field_bound_error is None

    def test_non_monotone_deflection_raises_protocol_error(self):
        # Weak rigid field box carried across the beam line: its deflection
        # rises and then falls as the box passes, with no detection to stop
        # the scan first.
        geometry = BeamGeometry(
            exit_plane_x=0.5, source_anchor=[0, -0.2, 0], approach_direction=[0, 1, 0]
        )
        box = UniformBRegion(
            B=[0, 0, 1e-6], box_min=[-0.2, -0.05, -0.2], box_max=[0.2, 0.05, 0.2]
        )
        config = scan_config(
            geometry=geometry, positions=(0.30, 0.20, 0.10), phi_c=1.0
        )
        with pytest.raises(ProtocolError):
            run_field_scan(calibrated_model(), box, beam_particle(), config)

    def test_magnetic_scan_with_flux_calibration(self):
        q = ELECTRON_Q
        setup = CalibrationSetup(transit_time=1e-8, enclosed_flux=1e-7)
        calibration = calibrate(symmetric_model(), setup, q)
        assert calibration.model.arm_extra_phase != 0.0
        box = UniformBRegion(
            B=[0, 0, 1e-3], box_min=[-0.2, -0.08, -0.2], box_max=[0.2, 0.08, 0.2]
        )
        config = scan_config(
            positions=(0.30, 0.22, 0.15, 0.10, 0.06), phi_c=1e-5, seed=3
        )
        result = run_field_scan(calibration.model, box, beam_particle(), config)
        assert result.conclusive
        assert result.first_detecting_position == 0.06
        assert result.field_bound == pytest.approx(1e-3, rel=1e-12)


class TestScanDraws:
    """Bernoulli draws are counted in blocks, matching one rng.random(n) exactly."""

    @pytest.mark.parametrize("n", [1, 65_535, 65_536, 65_537, 3 * 65_536 + 7])
    def test_count_below_matches_one_array(self, n):
        cuts = (0.0, 1.0 / 9.0, 0.5, 1.0)
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        u = ref.random(n)
        assert _count_below(rng, n, cuts) == [int(np.count_nonzero(u < c)) for c in cuts]
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_scan_detections_match_one_array(self):
        trials = 2 * 65_536 + 3
        config = scan_config(trials_per_position=trials)
        result = run_field_scan(
            calibrated_model(), PointCharge(q=5e-6, position=[0, 1, 0]), beam_particle(), config
        )
        assert result.conclusive
        for k, rec in enumerate(result.per_position):
            u = np.random.default_rng([config.seed, k]).random(trials)
            assert rec.detections == int(np.count_nonzero(u < rec.detection_probability))

    def test_scan_memory_does_not_grow_with_trials(self):
        config = scan_config(positions=(0.4,), trials_per_position=10**7)
        tracemalloc.start()
        try:
            result = run_field_scan(
                calibrated_model(), PointCharge(q=1e-8, position=[0, 1, 0]), beam_particle(),
                config,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.per_position[0].trials == 10**7
        assert peak < 4 * 2**20
