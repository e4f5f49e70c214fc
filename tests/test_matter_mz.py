"""Dark-fringe calibration and path-blocking contrast of the grating interferometer."""

import dataclasses

import numpy as np
import pytest

from ifmsim.matter_mz import (
    BLOCK_UPPER,
    NO_BLOCKS,
    GratingSpec,
    InterferometerModel,
    PathBlockSet,
    detector_probability,
    ifm_efficiency,
    solve_ideal_offset,
    wrap_phase,
)

TWO_PI = 2.0 * np.pi


def symmetric_model(p: float = 1.0 / 3.0, **kwargs) -> InterferometerModel:
    g = GratingSpec.symmetric(p)
    return InterferometerModel(g1=g, g2=g, g3=g, **kwargs)


def random_symmetric_model(rng: np.random.Generator, **kwargs) -> InterferometerModel:
    return symmetric_model(float(rng.uniform(0.05, 1.0 / 3.0)), **kwargs)


def solved(model: InterferometerModel) -> InterferometerModel:
    return dataclasses.replace(
        model, third_grating_phase=solve_ideal_offset(model).phase
    )


class TestGratingSpec:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GratingSpec(0.3, 0.3, 0.3, 0.2)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            GratingSpec(-0.1, 0.6, 0.3, 0.2)

    @pytest.mark.parametrize(
        "parts", [(np.nan, 0.5, 0.5), (0.5, np.nan, 0.5), (0.2, 0.3, 0.5, np.nan)]
    )
    def test_nan_probability_rejected(self, parts):
        # Both comparisons let NaN through, and (nan, 0.5, 0.5) constructed.
        with pytest.raises(ValueError, match="out of range"):
            GratingSpec(*parts)

    def test_symmetric_helper(self):
        g = GratingSpec.symmetric(0.25)
        assert g.p_minus1 == g.p_0 == g.p_plus1 == 0.25
        assert g.loss == pytest.approx(0.25, abs=1e-15)

    def test_symmetric_helper_range(self):
        with pytest.raises(ValueError):
            GratingSpec.symmetric(0.4)


class TestDetectorProbability:
    def test_calibrated_null(self):
        model = solved(symmetric_model())
        assert detector_probability(model, NO_BLOCKS) < 1e-12

    def test_upper_blocked_gives_exact_product(self):
        g1 = GratingSpec(0.25, 0.5, 0.25)
        g2 = GratingSpec(0.2, 0.3, 0.5)
        model = solved(InterferometerModel(g1=g1, g2=g2, g3=GratingSpec.symmetric(1 / 3)))
        assert detector_probability(model, BLOCK_UPPER) == g1.p_0 * g2.p_plus1

    def test_both_blocked_is_dark(self):
        model = symmetric_model(third_grating_phase=1.3)
        assert detector_probability(model, PathBlockSet.of("upper", "lower")) == 0.0

    def test_blocked_path_probability_is_phase_independent(self):
        """With one path removed there is nothing to interfere with: 100-phase scan is flat."""
        g = GratingSpec.symmetric(0.3)
        values = []
        for phase in np.linspace(0.0, TWO_PI, 100, endpoint=False):
            model = InterferometerModel(g1=g, g2=g, g3=g, third_grating_phase=float(phase))
            values.append(detector_probability(model, BLOCK_UPPER))
        assert max(values) - min(values) < 1e-12

    def test_unknown_block_label_rejected(self):
        with pytest.raises(ValueError):
            PathBlockSet.of("sideways")

    def test_phase_range_enforced(self):
        with pytest.raises(ValueError):
            symmetric_model(third_grating_phase=7.0)

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_arm_extra_phase_must_be_finite(self, phi):
        # An infinite phase constructed; the detector then read NaN and the
        # null solver returned phase=nan with perfect=True.
        with pytest.raises(ValueError, match="^arm_extra_phase must be finite"):
            symmetric_model(arm_extra_phase=phi)


class TestSolveIdealOffset:
    def test_symmetric_null_below_tolerance(self):
        model = symmetric_model()
        sol = solve_ideal_offset(model)
        assert sol.perfect
        assert sol.residual < 1e-12
        tuned = dataclasses.replace(model, third_grating_phase=sol.phase)
        assert detector_probability(tuned, NO_BLOCKS) < 1e-12

    def test_random_symmetric_nulls(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            model = random_symmetric_model(rng)
            tuned = solved(model)
            assert detector_probability(tuned, NO_BLOCKS) < 1e-12

    def test_solution_is_smallest_nonnegative(self):
        sol = solve_ideal_offset(symmetric_model())
        assert 0.0 <= sol.phase < TWO_PI

    def test_extra_arm_phase_shifts_null_by_minus_phi(self):
        """Null phase moves by exactly -phi, checked against a 1e4-point grid scan."""
        base = solve_ideal_offset(symmetric_model()).phase
        rng = np.random.default_rng(23)
        grid = np.linspace(0.0, TWO_PI, 10_000, endpoint=False)
        for _ in range(10):
            phi = float(rng.uniform(0.0, TWO_PI))
            model = symmetric_model(arm_extra_phase=phi)
            sol = solve_ideal_offset(model)
            expected = (base - phi) % TWO_PI
            assert sol.phase == pytest.approx(expected, abs=1e-12)
            # Independent check: the grid minimum sits at the solved phase.
            probs = [
                detector_probability(
                    dataclasses.replace(model, third_grating_phase=float(g))
                )
                for g in grid
            ]
            argmin = grid[int(np.argmin(probs))]
            circ = min(abs(argmin - sol.phase), TWO_PI - abs(argmin - sol.phase))
            assert circ < 1.5 * TWO_PI / len(grid)
            assert detector_probability(
                dataclasses.replace(model, third_grating_phase=sol.phase)
            ) <= min(probs) + 1e-15

    @pytest.mark.parametrize("phi", [1e17, -1e17])
    def test_huge_arm_phase_keeps_the_null(self, phi):
        # The raw sum theta + 1e17 has no fractional digits: P(no block) was 0.0254.
        model = symmetric_model(arm_extra_phase=phi)
        sol = solve_ideal_offset(model)
        assert sol.perfect
        assert sol.phase == solve_ideal_offset(symmetric_model(arm_extra_phase=wrap_phase(phi))).phase
        assert detector_probability(solved(model), NO_BLOCKS) < 1e-12

    def test_unequal_weights_flagged_imperfect(self):
        g1 = GratingSpec(0.25, 0.5, 0.25)
        g2 = GratingSpec(0.1, 0.4, 0.5)
        model = InterferometerModel(g1=g1, g2=g2, g3=GratingSpec.symmetric(1 / 3))
        sol = solve_ideal_offset(model)
        assert not sol.perfect
        # Modulus algebra: the best achievable floor is (|a_u| - |a_l|)^2.
        a_u = np.sqrt(g1.p_plus1 * g2.p_minus1)
        a_l = np.sqrt(g1.p_0 * g2.p_plus1)
        assert sol.residual == pytest.approx((a_u - a_l) ** 2, abs=1e-12)
        tuned = dataclasses.replace(model, third_grating_phase=sol.phase)
        assert detector_probability(tuned, NO_BLOCKS) == pytest.approx(
            sol.residual, abs=1e-12
        )


class TestEfficiency:
    def test_half_half_quarter(self):
        g1 = GratingSpec(0.25, 0.5, 0.25)
        g2 = GratingSpec(0.25, 0.25, 0.5)
        assert ifm_efficiency(g1, g2) == 0.25

    def test_zero_zero_order(self):
        g1 = GratingSpec(0.5, 0.0, 0.5)
        g2 = GratingSpec.symmetric(1 / 3)
        assert ifm_efficiency(g1, g2) == 0.0

    def test_consistent_with_blocked_detector(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            model = random_symmetric_model(rng)
            tuned = solved(model)
            assert detector_probability(tuned, BLOCK_UPPER) == ifm_efficiency(
                model.g1, model.g2
            )

    def test_null_versus_block_separation(self):
        """The core signal: dark when both paths are open, bright p1*p2 when one is removed."""
        rng = np.random.default_rng(41)
        for _ in range(100):
            model = solved(random_symmetric_model(rng))
            p_open = detector_probability(model, NO_BLOCKS)
            p_block = detector_probability(model, BLOCK_UPPER)
            assert p_open < 1e-12
            assert p_block == ifm_efficiency(model.g1, model.g2) > 0.0

    def test_efficiency_ceiling_random_sweep(self):
        """With p0, p+1 <= 1/2 on each grating the efficiency never exceeds 25%."""
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(10_000):
            p0 = float(rng.uniform(0.0, 0.5))
            pp = float(rng.uniform(0.0, min(0.5, 1.0 - p0)))
            rest = 1.0 - p0 - pp
            pm = float(rng.uniform(0.0, rest))
            g1 = GratingSpec(pm, p0, pp, rest - pm)
            q0 = float(rng.uniform(0.0, 0.5))
            qp = float(rng.uniform(0.0, min(0.5, 1.0 - q0)))
            qrest = 1.0 - q0 - qp
            qm = float(rng.uniform(0.0, qrest))
            g2 = GratingSpec(qm, q0, qp, qrest - qm)
            eff = ifm_efficiency(g1, g2)
            worst = max(worst, eff)
            assert eff <= 0.25 + 1e-12
        assert worst > 0.1  # the sweep actually probes the upper range
