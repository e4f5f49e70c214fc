"""Two-mode optics behind the bomb test: splitter, absorber and outcome sampling.

``ifmsim.photon_mz`` gives the outcome probabilities in closed form.  The
oracle here is their derivation: a 2-vector of amplitudes (upper, lower)
pushed through the constant balanced ``SPLITTER``, where an object zeroes one
amplitude and the lost norm is the absorption probability.
"""

import numpy as np
import pytest

from ifmsim.photon_mz import (
    ARM_LOWER,
    ARM_UPPER,
    ARMS,
    OUTCOME_ABSORBED,
    OUTCOME_DARK,
    OUTCOME_LIGHT,
    EvSetup,
    _port_probabilities,
    ev_outcome_distribution,
    run_ev_trials,
)

# Balanced splitter acting on (upper, lower): transmission sqrt(1/2),
# reflection i*sqrt(1/2).
SPLITTER = np.sqrt(0.5) * np.array([[1, 1j], [1j, 1]])


def chain_port_probabilities(setup: EvSetup) -> tuple[float, float, float]:
    """(light, dark, absorbed) probabilities from the 2x2 amplitude chain."""
    amps = SPLITTER @ np.array([0.0, 1.0], dtype=np.complex128)
    p_abs = 0.0
    if setup.object_present:
        arm = ARMS.index(setup.object_arm)
        p_abs = abs(complex(amps[arm])) ** 2
        amps[arm] = 0.0
    amps = 1j * amps
    amps[0] *= np.exp(1j * setup.arm_phase)
    light, dark = (abs(complex(a)) ** 2 for a in SPLITTER @ amps)
    return light, dark, p_abs


INV_SQRT2 = 1.0 / np.sqrt(2.0)
UPPER_IN = np.array([1.0, 0.0], dtype=np.complex128)


class TestBeamSplitter:
    def test_two_balanced_splitters_concentrate_output(self):
        """Two 50/50 splitters in sequence route a single input entirely to one port."""
        out = SPLITTER @ (SPLITTER @ UPPER_IN)
        assert abs(out[1]) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(out[0]) ** 2 == pytest.approx(0.0, abs=1e-12)

    def test_constructed_elements_are_unitary(self):
        """Splitters, mirrors and any phase plate lose no norm with empty arms."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            phase = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            dist = ev_outcome_distribution(EvSetup(arm_phase=phase))
            assert dist.p_absorbed == 0.0
            assert abs(dist.p_light_detector + dist.p_dark_detector - 1.0) < 1e-12


class TestClosedForm:
    """The closed form against the amplitude chain it is derived from."""

    def test_matches_chain_over_random_setups(self):
        rng = np.random.default_rng(15)
        for scale in (2 * np.pi, 1e3, 1e8):
            for _ in range(5_000):
                setup = EvSetup(
                    object_present=bool(rng.integers(0, 2)),
                    object_arm=ARMS[rng.integers(0, 2)],
                    arm_phase=float(rng.uniform(-scale, scale)),
                )
                closed = _port_probabilities(setup)
                chain = chain_port_probabilities(setup)
                assert max(abs(a - b) for a, b in zip(closed, chain)) <= 1e-15
                assert max(closed) <= 1.0

    def test_exact_values(self):
        # The chain reads 1.0000000000000004 light at zero phase.
        assert _port_probabilities(EvSetup()) == (1.0, 0.0, 0.0)
        for arm in ARMS:
            for phase in (0.0, 0.9, -3.0):
                setup = EvSetup(object_present=True, object_arm=arm, arm_phase=phase)
                assert _port_probabilities(setup) == (0.25, 0.25, 0.5)


class TestApplyElement:
    def test_balanced_splitter_action(self):
        out = SPLITTER @ UPPER_IN
        assert out[0] == pytest.approx(INV_SQRT2, abs=1e-15)
        assert out[1] == pytest.approx(1j * INV_SQRT2, abs=1e-15)


class TestAbsorber:
    def test_balanced_absorption(self):
        for arm in (ARM_UPPER, ARM_LOWER):
            dist = ev_outcome_distribution(EvSetup(object_present=True, object_arm=arm))
            assert dist.p_absorbed == pytest.approx(0.5, abs=1e-12)

    def test_absorb_after_full_transmission(self):
        """A mode fully emptied by two balanced splitters absorbs nothing."""
        out = SPLITTER @ (SPLITTER @ UPPER_IN)
        assert abs(out[0]) ** 2 < 1e-12


class TestDetectionProbabilities:
    def test_balanced(self):
        """A quarter-turn phase plate splits an empty interferometer 50/50."""
        dist = ev_outcome_distribution(EvSetup(arm_phase=np.pi / 2))
        assert dist.p_light_detector == pytest.approx(0.5, abs=1e-15)
        assert dist.p_dark_detector == pytest.approx(0.5, abs=1e-15)

    def test_post_absorber_probabilities(self):
        # By hand: the object removes one arm's 1/sqrt2 amplitude, and the
        # survivor is split evenly by the second splitter: {1/4, 1/4}.
        for arm in (ARM_UPPER, ARM_LOWER):
            dist = ev_outcome_distribution(EvSetup(object_present=True, object_arm=arm))
            assert dist.p_light_detector == pytest.approx(0.25, abs=1e-15)
            assert dist.p_dark_detector == pytest.approx(0.25, abs=1e-15)


class TestSampling:
    def test_certain_outcome(self):
        rng = np.random.default_rng(0)
        counts = run_ev_trials(EvSetup(), 100, rng)
        assert counts == {OUTCOME_LIGHT: 100, OUTCOME_DARK: 0, OUTCOME_ABSORBED: 0}

    def test_deterministic_for_fixed_seed(self):
        setup = EvSetup(object_present=True, object_arm=ARM_LOWER, arm_phase=0.3)
        seq1 = [run_ev_trials(setup, 20, np.random.default_rng(5)) for _ in range(3)]
        seq2 = [run_ev_trials(setup, 20, np.random.default_rng(5)) for _ in range(3)]
        assert seq1 == seq2

    def test_balanced_frequency(self):
        """1e5 draws of a 50/50 setup land within 0.5 +/- 0.01."""
        rng = np.random.default_rng(99)
        counts = run_ev_trials(EvSetup(arm_phase=np.pi / 2), 100_000, rng)
        assert abs(counts[OUTCOME_LIGHT] / 100_000 - 0.5) < 0.01
        assert counts[OUTCOME_ABSORBED] == 0

    def test_absorbed_outcome_from_norm_deficit(self):
        rng = np.random.default_rng(4)
        counts = run_ev_trials(EvSetup(object_present=True), 50_000, rng)
        assert sum(counts.values()) == 50_000
        assert abs(counts[OUTCOME_ABSORBED] / 50_000 - 0.5) < 0.01

    def test_empirical_matches_analytic_within_4_sigma(self):
        """1e6 seeded draws agree with ev_outcome_distribution per outcome."""
        rng = np.random.default_rng(2024)
        setup = EvSetup(object_present=True, object_arm=ARM_UPPER, arm_phase=0.9)
        n = 1_000_000
        counts = run_ev_trials(setup, n, rng)
        dist = ev_outcome_distribution(setup)
        for label, p in (
            (OUTCOME_LIGHT, dist.p_light_detector),
            (OUTCOME_DARK, dist.p_dark_detector),
            (OUTCOME_ABSORBED, dist.p_absorbed),
        ):
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts[label] / n - p) < 4 * sigma
