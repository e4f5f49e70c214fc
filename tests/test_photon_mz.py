"""Bomb-test statistics: exact splits, Monte Carlo agreement, N-cycle variant."""

import math
import os
import sys
import threading
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ifmsim import photon_mz
from ifmsim.cli import main
from ifmsim.photon_mz import (
    ARM_LOWER,
    ARM_UPPER,
    MAX_CYCLES,
    EvDistribution,
    EvSetup,
    ZenoDistribution,
    ev_outcome_distribution,
    run_ev_trials,
    zeno_ifm_distribution,
)
from test_core import SPLITTER


def zeno_oracle(n_cycles: int, object_present: bool) -> float:
    """Explicit matrix-product success probability, independent of the engine.

    Product of N rotation matrices, each followed (object present) by the
    projector onto the unrotated component; returns |<h|state>|^2.
    """
    theta = np.pi / (2.0 * n_cycles)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    step = proj @ rot if object_present else rot
    state = np.array([1.0, 0.0])
    for _ in range(n_cycles):
        state = step @ state
    return float(abs(state[0]) ** 2)


def zeno_decimal_oracle(n_cycles: int) -> float:
    """cos^(2N)(pi/2N) from a 40-digit Taylor series, for N where float loops drift."""
    pi = Decimal("3.14159265358979323846264338327950288419716939937510")
    with localcontext() as ctx:
        ctx.prec = 40
        x2 = (pi / (2 * n_cycles)) ** 2
        term, cos_x, k = Decimal(1), Decimal(1), 0
        while abs(term) > Decimal(10) ** -45:
            k += 2
            term = -term * x2 / (k * (k - 1))
            cos_x += term
        return float(cos_x ** (2 * n_cycles))


class TestAnalyticDistribution:
    def test_empty_interferometer_all_light(self):
        dist = ev_outcome_distribution(EvSetup(object_present=False))
        assert dist.p_light_detector == pytest.approx(1.0, abs=1e-12)
        assert dist.p_dark_detector == pytest.approx(0.0, abs=1e-12)
        assert dist.p_absorbed == 0.0

    @pytest.mark.parametrize("arm", [ARM_UPPER, ARM_LOWER])
    def test_object_quarters_and_half(self, arm):
        dist = ev_outcome_distribution(EvSetup(object_present=True, object_arm=arm))
        assert dist.p_light_detector == pytest.approx(0.25, abs=1e-12)
        assert dist.p_dark_detector == pytest.approx(0.25, abs=1e-12)
        assert dist.p_absorbed == pytest.approx(0.5, abs=1e-12)

    def test_pi_phase_swaps_ports(self):
        # Direct amplitude chase: the extra pi on one arm flips the
        # constructive and destructive ports.
        dist = ev_outcome_distribution(EvSetup(object_present=False, arm_phase=np.pi))
        assert dist.p_light_detector == pytest.approx(0.0, abs=1e-12)
        assert dist.p_dark_detector == pytest.approx(1.0, abs=1e-12)

    def test_distribution_simplex_over_random_setups(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            setup = EvSetup(
                object_present=bool(rng.integers(0, 2)),
                object_arm=ARM_UPPER if rng.integers(0, 2) else ARM_LOWER,
                arm_phase=float(rng.uniform(0, 2 * np.pi)),
            )
            dist = ev_outcome_distribution(setup)
            parts = (dist.p_light_detector, dist.p_dark_detector, dist.p_absorbed)
            assert all(p >= -1e-15 for p in parts)
            assert sum(parts) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_arm_rejected(self):
        with pytest.raises(ValueError):
            EvSetup(object_arm="sideways")

    @pytest.mark.parametrize("flag", ["false", "no", 0, 1, None, np.bool_(True)])
    def test_non_bool_object_present_rejected(self, flag):
        # "false" gave the object's (0.25, 0.25, 0.5).
        with pytest.raises(ValueError, match="^object_present must be a bool"):
            EvSetup(object_present=flag)

    @pytest.mark.parametrize("phase", [float("nan"), float("inf"), -float("inf"), 10**400],
                             ids=["nan", "inf", "-inf", "int-past-float-range"])
    def test_nonfinite_phase_rejected(self, phase):
        with pytest.raises(ValueError, match="arm_phase"):
            EvSetup(arm_phase=phase)

    def test_splitter_is_unitary(self):
        defect = np.abs(SPLITTER.conj().T @ SPLITTER - np.eye(2))
        assert defect.max() < 1e-15

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError):
            EvDistribution(0.5, 0.4, 0.2)

    @pytest.mark.parametrize("cls", [EvDistribution, ZenoDistribution])
    def test_nan_probability_rejected(self, cls):
        with pytest.raises(ValueError, match="out of range"):
            cls(float("nan"), 0.5, 0.5)


class TestMonteCarlo:
    def test_no_object_all_light(self):
        counts = run_ev_trials(EvSetup(object_present=False), 1000, np.random.default_rng(1))
        assert counts == {"light": 1000, "dark": 0, "absorbed": 0}

    def test_object_dark_fraction(self):
        """1e6 trials with the object: dark fraction within 4 sigma of 0.25."""
        n = 1_000_000
        counts = run_ev_trials(EvSetup(object_present=True), n, np.random.default_rng(8))
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(counts["dark"] / n - 0.25) < 4 * sigma
        assert sum(counts.values()) == n

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            run_ev_trials(EvSetup(), 0, np.random.default_rng(0))

    def test_trials_past_the_cap_rejected_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^n_trials must lie in \[1, 10000000\]$"):
            run_ev_trials(EvSetup(), photon_mz.MAX_TRIALS + 1, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [1e6, 16960.0, True, "100"])
    def test_non_integer_trials_rejected_before_any_draw(self, n):
        # 1e6 drew 15 blocks (983,040 draws) and then failed with a TypeError.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^n_trials must be an integer"):
            run_ev_trials(EvSetup(), n, rng)
        assert rng.bit_generator.state == state

    def test_numpy_integer_trials_accepted(self):
        expected = run_ev_trials(EvSetup(), 1000, np.random.default_rng(3))
        assert run_ev_trials(EvSetup(), np.int64(1000), np.random.default_rng(3)) == expected

    def test_empirical_matches_analytic_over_setups(self):
        rng = np.random.default_rng(77)
        n = 1_000_000
        for setup in (
            EvSetup(object_present=True),
            EvSetup(object_present=False, arm_phase=1.1),
            EvSetup(object_present=True, object_arm=ARM_LOWER, arm_phase=0.4),
        ):
            dist = ev_outcome_distribution(setup)
            counts = run_ev_trials(setup, n, rng)
            for label, p in (
                ("light", dist.p_light_detector),
                ("dark", dist.p_dark_detector),
                ("absorbed", dist.p_absorbed),
            ):
                sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
                assert abs(counts[label] / n - p) < 4 * sigma

    @pytest.mark.parametrize(
        "setup, seed, n, expected",
        [
            (EvSetup(True, ARM_UPPER, 0.0), 11, 100_000,
             {"light": 25120, "dark": 24939, "absorbed": 49941}),
            (EvSetup(False, ARM_UPPER, 1.3), 22, 50_000,
             {"light": 31721, "dark": 18279, "absorbed": 0}),
            (EvSetup(True, ARM_LOWER, 2.5), 33, 77_777,
             {"light": 19515, "dark": 19378, "absorbed": 38884}),
        ],
    )
    def test_seeded_counts_match_recorded(self, setup, seed, n, expected):
        """Counts recorded at release 0.1.0; seeded payloads must not change."""
        assert run_ev_trials(setup, n, np.random.default_rng(seed)) == expected

    def test_reproducible_counts(self):
        setup = EvSetup(object_present=True)
        c1 = run_ev_trials(setup, 10_000, np.random.default_rng(55))
        c2 = run_ev_trials(setup, 10_000, np.random.default_rng(55))
        assert c1 == c2


def choice_counts(setup: EvSetup, n: int, rng: np.random.Generator) -> dict[str, int]:
    """The 0.1.0 sampler: one ``rng.choice`` over all n trials, binned."""
    dist = ev_outcome_distribution(setup)
    light, dark = dist.p_light_detector, dist.p_dark_detector
    p = np.array([light, dark, max(0.0, 1.0 - (light + dark))])
    p /= p.sum()
    counts = np.bincount(rng.choice(3, size=n, p=p), minlength=3)
    return dict(zip(("light", "dark", "absorbed"), map(int, counts)))


SAMPLER_SETUPS = [
    EvSetup(),
    EvSetup(True, ARM_UPPER, 0.0),
    EvSetup(True, ARM_LOWER, 2.5),
    EvSetup(False, ARM_UPPER, math.pi / 3),
]


class TestBlockedSampler:
    """run_ev_trials counts in blocks, yet matches rng.choice draw for draw."""

    @staticmethod
    def assert_matches_choice(setup, n, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert run_ev_trials(setup, n, rng) == choice_counts(setup, n, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [1, 65_535, 65_536, 65_537, 3 * 65_536 + 7])
    @pytest.mark.parametrize("setup", SAMPLER_SETUPS)
    def test_block_edges_match_choice(self, setup, n):
        self.assert_matches_choice(setup, n, seed=n)

    def test_random_setups_match_choice(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            setup = EvSetup(bool(rng.random() < 0.5), (ARM_UPPER, ARM_LOWER)[int(rng.integers(2))],
                            float(rng.uniform(-10.0, 10.0)))
            self.assert_matches_choice(setup, int(rng.integers(1, 20_001)),
                                       seed=int(rng.integers(2**63)))

    def test_memory_does_not_grow_with_trials(self):
        # One rng.choice over 10**7 trials peaks at 160 MB: 16 bytes per trial.
        tracemalloc.start()
        try:
            run_ev_trials(EvSetup(object_present=True), 10**7, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


B = photon_mz._BLOCK
SPLIT_SIZES = [2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 7, 5 * B + 3]
CUTS = (0.0, 1.0 / 9.0, 0.25, 0.5, 1.0)


def one_array(rng, n):
    """Counts below CUTS of one ``rng.random(n)``: the oracle of every split."""
    u = rng.random(n)
    return [int(np.count_nonzero(u < cut)) for cut in CUTS]


def seeded_pair(seed, bits, half_used):
    """Two generators in one state; ``half_used`` draws one uint32 first."""
    pair = [np.random.Generator(bits(seed)) for _ in range(2)]
    if half_used:
        for rng in pair:
            rng.integers(0, 10, dtype=np.uint32)
    return pair


def same_state(a, b) -> bool:
    """Bit-generator states equal, through the arrays of MT19937 and Philox."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b)) if isinstance(a, np.ndarray) else a == b


@pytest.fixture
def set_cpus(monkeypatch):
    """set_cpus(k) makes both CPU queries of _count_below report ``k`` usable CPUs."""

    def patch(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)

    return patch


class TestSplitDraws:
    """A count split over spans and threads counts exactly what one rng.random(n) does."""

    @pytest.mark.parametrize("half_used", [False, True], ids=["fresh", "half-used"])
    @pytest.mark.parametrize("n", SPLIT_SIZES)
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_split_matches_one_array(self, cpus, n, half_used, set_cpus):
        set_cpus(cpus)
        rng, ref = seeded_pair(n + cpus, np.random.PCG64, half_used)
        assert rng.bit_generator.state["has_uint32"] == half_used
        before = threading.active_count()
        assert photon_mz._count_below(rng, n, CUTS) == one_array(ref, n)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert threading.active_count() == before

    def test_split_holds_under_fast_thread_switching(self, set_cpus):
        set_cpus(4)
        rng, ref = seeded_pair(9, np.random.PCG64, half_used=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert photon_mz._count_below(rng, 6 * B + 5, CUTS) == one_array(ref, 6 * B + 5)
        finally:
            sys.setswitchinterval(interval)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", SPLIT_SIZES)
    def test_count_below_splits_only_pcg64_from_two_blocks(self, n, set_cpus, monkeypatch):
        set_cpus(8)
        spans = []
        count_span = photon_mz._count_span
        monkeypatch.setattr(photon_mz, "_count_span", lambda *a: spans.append(a) or count_span(*a))
        for bits in (np.random.PCG64, np.random.MT19937, np.random.Philox):
            spans.clear()
            rng, ref = seeded_pair(n, bits, half_used=True)
            assert photon_mz._count_below(rng, n, CUTS) == one_array(ref, n)
            assert same_state(rng.bit_generator.state, ref.bit_generator.state)
            split = bits is np.random.PCG64 and n >= 2 * B
            assert len(spans) == (min(n // B, photon_mz._MAX_SPANS) if split else 1)
            assert (spans[0][0] is rng) != split  # one span draws from the caller's generator
            edges = [n * i // len(spans) for i in range(len(spans) + 1)]
            assert sorted(a[1] for a in spans) == sorted(b - a for a, b in zip(edges, edges[1:]))

    def test_small_draws_skip_the_cpu_query(self, monkeypatch):
        def no_query(pid):
            raise AssertionError("the CPU set was read for a one-block draw")

        monkeypatch.setattr(os, "sched_getaffinity", no_query, raising=False)
        rng, ref = seeded_pair(7, np.random.PCG64, half_used=False)
        assert photon_mz._count_below(rng, 2 * B - 1, CUTS) == one_array(ref, 2 * B - 1)

    @pytest.mark.parametrize("case", ["one-cpu", "one-block", "mt19937"])
    def test_one_span_starts_no_thread(self, case, set_cpus, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-span draw started a thread")

        set_cpus(1 if case == "one-cpu" else 4)
        monkeypatch.setattr(threading, "Thread", no_thread)
        n = 2 * B - 1 if case == "one-block" else 5 * B + 3
        bits = np.random.MT19937 if case == "mt19937" else np.random.PCG64
        rng, ref = seeded_pair(11, bits, half_used=False)
        assert photon_mz._count_below(rng, n, CUTS) == one_array(ref, n)
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)

    def test_span_error_is_raised_in_caller_and_threads_end(self, set_cpus):
        set_cpus(4)
        before = threading.active_count()
        with pytest.raises(TypeError):
            photon_mz._count_below(np.random.default_rng(3), 4 * B, (0.5, "not a cut"))
        assert threading.active_count() == before

    def test_ev_counts_do_not_depend_on_cpu_count(self, set_cpus):
        setup, n = EvSetup(object_present=True), 10**6
        expected = choice_counts(setup, n, np.random.default_rng(42))
        for cpus in (1, 2, 3, 8):
            set_cpus(cpus)
            assert run_ev_trials(setup, n, 42) == expected


# Cycle counts past MAX_CYCLES; 2**1023 gave NaN probabilities, 2**1024 an OverflowError.
OVER_CAP = [2**53 + 1, 2**1023, 2**1024]
OVER_CAP_IDS = ["2**53+1", "2**1023", "2**1024"]


class TestZenoVariant:
    def test_single_cycle_matches_oracle(self):
        dist = zeno_ifm_distribution(1, object_present=True)
        assert dist.p_success_detect == pytest.approx(zeno_oracle(1, True), abs=1e-12)
        assert dist.p_success_detect < 1e-12
        assert dist.p_absorbed == pytest.approx(1.0, abs=1e-12)

    def test_oracle_agreement_over_cycle_range(self):
        for n in range(1, 65):
            dist = zeno_ifm_distribution(n, object_present=True)
            assert dist.p_success_detect == pytest.approx(zeno_oracle(n, True), abs=1e-12)

    def test_closed_form(self):
        for n in (1, 2, 3, 10, 100):
            dist = zeno_ifm_distribution(n, object_present=True)
            expected = np.cos(np.pi / (2 * n)) ** (2 * n)
            assert dist.p_success_detect == pytest.approx(expected, abs=1e-12)

    def test_large_cycle_count_approaches_certainty(self):
        dist = zeno_ifm_distribution(1000, object_present=True)
        assert dist.p_success_detect >= 0.997
        assert dist.p_success_detect == pytest.approx(zeno_oracle(1000, True), abs=1e-12)

    @pytest.mark.parametrize("n", [2000, 10_000, 20_000])
    def test_large_cycle_counts_match_decimal_oracle(self, n):
        dist = zeno_ifm_distribution(n, object_present=True)
        assert dist.p_success_detect == pytest.approx(zeno_decimal_oracle(n), rel=1e-12, abs=0)
        assert dist.p_absorbed == 1.0 - dist.p_success_detect
        assert dist.p_inconclusive == 0.0

    def test_huge_cycle_count_is_constant_time(self):
        start = time.perf_counter()
        dist = zeno_ifm_distribution(10**9, object_present=True)
        assert time.perf_counter() - start < 0.5
        # cos^(2N)(pi/2N) = exp(-pi^2/(4N)) up to O(1/N^3) in the exponent.
        assert dist.p_success_detect == pytest.approx(np.exp(-np.pi**2 / 4e9), rel=1e-15)

    @pytest.mark.parametrize("n", [10_000, 20_000, 10**9])
    def test_cli_zeno_large_cycle_counts_exit_0(self, n):
        assert main(["zeno", "--cycles", str(n), "--seed", "1"]) == 0

    def test_no_object_never_absorbs(self):
        dist = zeno_ifm_distribution(17, object_present=False)
        assert dist.p_absorbed == 0.0
        assert dist.p_inconclusive == pytest.approx(1.0, abs=1e-12)
        assert dist.p_success_detect == 0.0

    def test_monotone_in_cycle_count(self):
        values = [
            zeno_ifm_distribution(n, object_present=True).p_success_detect
            for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_beats_single_pass_efficiency_from_three_cycles(self):
        for n in (3, 4, 5, 8, 20):
            assert zeno_ifm_distribution(n, object_present=True).p_success_detect > 0.25

    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            zeno_ifm_distribution(0, object_present=True)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, np.float64(4.0)])
    def test_non_integer_cycles_rejected(self, n):
        # 2.5 returned a success probability of 0.3466.
        with pytest.raises(ValueError, match="^n_cycles must be an integer"):
            zeno_ifm_distribution(n, object_present=True)

    @pytest.mark.parametrize("flag", ["false", "no", 0, 1, None, np.bool_(True)])
    def test_non_bool_object_present_rejected(self, flag):
        # "no" returned a success probability of 0.5308 at 4 cycles.
        with pytest.raises(ValueError, match="^object_present must be a bool"):
            zeno_ifm_distribution(4, flag)

    def test_max_cycle_count_is_finite(self):
        assert MAX_CYCLES == 2**53
        dist = zeno_ifm_distribution(MAX_CYCLES, object_present=True)
        assert 1.0 - 1e-15 < dist.p_success_detect <= 1.0
        assert dist.p_absorbed == 1.0 - dist.p_success_detect

    @pytest.mark.parametrize("n", OVER_CAP, ids=OVER_CAP_IDS)
    def test_cycle_count_over_cap_rejected(self, n):
        with pytest.raises(ValueError, match="n_cycles"):
            zeno_ifm_distribution(n, object_present=True)

    @pytest.mark.parametrize("n", OVER_CAP, ids=OVER_CAP_IDS)
    def test_cli_zeno_cycle_count_over_cap_exits_2(self, n, capsys):
        assert main(["zeno", "--cycles", str(n), "--seed", "1"]) == 2
        assert "parameters.n_cycles: must be <= 9007199254740992" in capsys.readouterr().err

    def test_simplex(self):
        for n in (1, 3, 9, 40):
            for present in (True, False):
                dist = zeno_ifm_distribution(n, present)
                total = dist.p_success_detect + dist.p_absorbed + dist.p_inconclusive
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError):
            ZenoDistribution(0.9, 0.2, 0.0)
