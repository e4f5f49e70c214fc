"""Single-photon bomb test on a balanced two-arm interferometer.

A photon enters the first 50/50 splitter; the reflected part travels the
"upper" arm, the transmitted part the "lower" arm.  Mirrors fold both arms
onto a second 50/50 splitter whose two output ports feed the light detector
(the bright port) and the dark detector.  With empty arms every photon exits
at the light detector.  An opaque object in either arm breaks the
interference: the photon is absorbed with probability 1/2, and otherwise
reaches each detector with probability 1/4 - so a dark-detector click reveals
the object without any photon having touched it.

The outcome probabilities are closed forms (Elitzur & Vaidman, Found. Phys.
23, 987, 1993): 1/4 light, 1/4 dark and 1/2 absorbed with an object in either
arm, and cos^2(phi/2) light, sin^2(phi/2) dark with empty arms and a phase
plate of phi on the upper arm.  Their derivation is the 2x2 amplitude chain
on (upper, lower): balanced splitters whose reflection carries the factor i,
an object that zeroes its arm's amplitude without renormalizing (the lost
norm is the absorption probability), mirrors that multiply by i and the phase
plate's exp(i*phi).  The tests keep that chain as the oracle of the closed
form.

The 25% light-detector rate with the object present is not independent data:
it follows from 50% absorption plus 25% dark detection.

The repeated-interrogation variant (:func:`zeno_ifm_distribution`) is the
standard N-cycle scheme of Kwiat et al., Phys. Rev. Lett. 74, 4763 (1995):
per cycle the photon polarization is rotated by pi/(2N) and, when the object
is present, the rotated component is absorbed.  It is evaluated in closed
form for any N up to :data:`MAX_CYCLES`; the object-present success
probability cos^(2N)(pi/(2N)) approaches 1 for large N.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

from .fields import _finite

ARM_UPPER = "upper"
ARM_LOWER = "lower"
ARMS = (ARM_UPPER, ARM_LOWER)

# Output-port naming: with zero arm phase and both splitters balanced, all
# amplitude exits on the upper-rail port, so that port is the light detector.
OUTCOME_LIGHT = "light"
OUTCOME_DARK = "dark"
OUTCOME_ABSORBED = "absorbed"

# Uniform draws held at once by each thread that counts trials.  Generator.random
# yields the same doubles in the same order whatever the block size, so the
# block only bounds memory; counts and the generator's final state do not
# depend on it.
_BLOCK = 65_536

# Most spans one count is split into (see _count_split), so the draws held at
# once stay under 4 blocks, about 2.4 MB, on a host of any size.
_MAX_SPANS = 4

# Largest Zeno cycle count.  The closed form computes with N as a float, which
# is exact up to 2**53; at 2**1023, 2N overflows and the result is NaN.
MAX_CYCLES = 2**53


@dataclass(frozen=True)
class EvSetup:
    """Interferometer configuration for a bomb-test run.

    ``object_arm`` selects which internal arm holds the opaque object;
    ``arm_phase`` is an extra relative phase applied to the upper arm
    (a phase plate), useful for calibration-style sweeps.
    """

    object_present: bool = False
    object_arm: str = ARM_UPPER
    arm_phase: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.object_present, bool):  # "false" and 0 are not
            raise ValueError(f"object_present must be a bool, got {self.object_present!r}")
        if self.object_arm not in ARMS:
            raise ValueError(f"object_arm must be one of {ARMS}, got {self.object_arm!r}")
        if not _finite(self.arm_phase):
            raise ValueError(f"arm_phase must be finite, got {self.arm_phase}")


class _Distribution:
    """Outcome probabilities, each in [0, 1] and summing to 1, both within 1e-12."""

    def __post_init__(self) -> None:
        parts = tuple(getattr(self, f.name) for f in dataclasses.fields(self))
        if not all(-1e-12 <= p <= 1.0 + 1e-12 for p in parts):  # NaN fails too
            raise ValueError(f"probabilities out of range: {parts}")
        if abs(sum(parts) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(parts)}, expected 1")


@dataclass(frozen=True)
class EvDistribution(_Distribution):
    """Exact outcome distribution of a single bomb-test trial."""

    p_light_detector: float
    p_dark_detector: float
    p_absorbed: float


@dataclass(frozen=True)
class ZenoDistribution(_Distribution):
    """Outcome distribution of an N-cycle repeated-interrogation run.

    ``p_success_detect`` is the probability of detecting the object without
    absorption; ``p_inconclusive`` collects the fully rotated photon seen when
    no object blocks the rotation.
    """

    p_success_detect: float
    p_absorbed: float
    p_inconclusive: float


def _port_probabilities(setup: EvSetup) -> tuple[float, float, float]:
    """(light, dark, absorbed) probabilities in closed form."""
    if setup.object_present:
        return 0.25, 0.25, 0.5
    h = 0.5 * setup.arm_phase
    return math.cos(h) ** 2, math.sin(h) ** 2, 0.0


def ev_outcome_distribution(setup: EvSetup) -> EvDistribution:
    """Exact analytic per-trial outcome distribution for the given setup."""
    light, dark, p_abs = _port_probabilities(setup)
    return EvDistribution(p_light_detector=light, p_dark_detector=dark, p_absorbed=p_abs)


def _count_below(rng, n: int, cuts) -> list[int]:
    """How many of ``n`` draws of ``rng.random()`` fall below each cut.

    ``rng`` is a ``numpy.random.Generator``, which the draws advance, or a
    seed for one; every seeded draw of the package is made here.  The draws
    come in blocks of :data:`_BLOCK`, so the stream consumed is exactly that
    of ``rng.random(n)``.  From 2 blocks on, a ``PCG64`` stream (the one a
    seed gives) is split over the usable CPUs (:func:`_count_split`), so
    memory is one block per worker thread rather than one block; the counts
    and the generator's final state do not depend on the CPU count.
    """
    import numpy as np

    rng = np.random.default_rng(rng)  # a Generator is returned unchanged
    if n >= 2 * _BLOCK and type(rng.bit_generator) is np.random.PCG64:
        import os

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return _count_split(rng, n, cuts, cpus or 1)
    counts = [0] * len(cuts)
    left = n
    while left > 0:
        u = rng.random(min(_BLOCK, left))
        for i, cut in enumerate(cuts):
            counts[i] += int(np.count_nonzero(u < cut))
        left -= len(u)
    return counts


def _count_split(rng, n: int, cuts, workers: int) -> list[int]:
    """:func:`_count_below` for a ``PCG64`` generator, over up to ``workers`` threads.

    ``n`` is cut into ``min(workers, n // _BLOCK, _MAX_SPANS)`` contiguous
    spans.  Span i draws from a fresh ``PCG64`` set to ``rng``'s state and
    advanced past the draws of the spans before it.  PCG64 is an LCG
    underneath, so it jumps ahead by any count in O(log n) (O'Neill, "PCG: A
    Family of Simple Fast Space-Efficient Statistically Good Algorithms for
    Random Number Generation", 2014), and the spans together draw exactly the
    doubles of ``rng.random(n)``.  The calling thread draws span 0 and one
    thread each draws the others; numpy's fill and compare loops release the
    GIL, so the spans run in parallel.  ``rng`` ends in the state that
    ``rng.random(n)`` leaves.  Each span's buffers are made here, in the
    calling thread; no thread outlives the call, and an exception in any span
    is raised here.
    """
    import threading

    import numpy as np

    start = rng.bit_generator.state
    w = min(workers, n // _BLOCK, _MAX_SPANS)
    edges = [n * i // w for i in range(w + 1)]
    spans = []
    for lo, hi in zip(edges, edges[1:]):
        bits = np.random.PCG64(0)  # a fixed seed, at once replaced by the caller's state
        bits.state = start
        bits.advance(lo)
        buffers = np.empty(_BLOCK), np.empty(_BLOCK, dtype=bool)
        spans.append((np.random.Generator(bits), hi - lo, *buffers))
    counts = [[0] * len(cuts) for _ in spans]
    errors = []

    def draw(k: int) -> None:
        gen, left, u, below = spans[k]
        try:
            while left > 0:
                m = min(_BLOCK, left)
                gen.random(out=u[:m])
                for i, cut in enumerate(cuts):
                    counts[k][i] += int(np.count_nonzero(np.less(u[:m], cut, out=below[:m])))
                left -= m
        except Exception as exc:  # raised again in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=draw, args=(k,)) for k in range(1, w)]
    try:
        for t in threads:
            t.start()
        draw(0)
    finally:
        for t in threads:
            if t.ident is not None:  # started
                t.join()
    if errors:
        raise errors[0]
    end = spans[-1][0].bit_generator.state
    # random() leaves the buffered half of a 32-bit draw alone; advance() clears it.
    rng.bit_generator.state = {**end, "has_uint32": start["has_uint32"],
                               "uinteger": start["uinteger"]}
    return [sum(column) for column in zip(*counts)]


def _require_count(value, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (numpy's too), not a bool, and >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def run_ev_trials(setup: EvSetup, n_trials: int, rng) -> dict[str, int]:
    """Sample ``n_trials`` independent single-photon runs.

    ``rng`` is a ``numpy.random.Generator`` or a seed (see :func:`_count_below`).
    Returns counts per outcome label ("light", "dark", "absorbed"); counts sum
    to ``n_trials`` and are reproducible for a fixed generator state.  The
    absorbed share is the norm the detectors do not see.

    Each trial is one uniform draw u compared with the normalised CDF of
    (light, dark, absorbed): light when u < cdf[0], dark when
    cdf[0] <= u < cdf[1], absorbed otherwise.  The draws are counted in fixed
    blocks, one per worker thread (see :func:`_count_below`), so memory does
    not grow with ``n_trials`` and the counts do not depend on the CPU
    count.  This is the inverse
    CDF that ``rng.choice(3, size=n_trials, p=p)`` evaluates, so the counts
    and the generator's final state are bit-identical to those of that call:
    p over its sum, then the running sum over its last entry, summed left to
    right as numpy sums three floats.
    """
    _require_count(n_trials, "n_trials")
    light, dark, _ = _port_probabilities(setup)
    p = (light, dark, max(0.0, 1.0 - (light + dark)))
    total = p[0] + p[1] + p[2]
    a, b, c = (x / total for x in p)
    below_light, below_dark = _count_below(rng, n_trials, (a / (a + b + c), (a + b) / (a + b + c)))
    return {
        OUTCOME_LIGHT: below_light,
        OUTCOME_DARK: below_dark - below_light,
        OUTCOME_ABSORBED: n_trials - below_dark,
    }


def zeno_ifm_distribution(n_cycles: int, object_present: bool) -> ZenoDistribution:
    """N-cycle rotate-and-test interrogation of a possibly blocked path.

    Each cycle rotates the polarization by pi/(2*n_cycles); with the object
    present the rotated component is absorbed every cycle.  After N cycles an
    unrotated photon signals the object interaction-free, with probability
    cos^(2N)(pi/(2N)) (Kwiat et al., PRL 74, 4763, 1995); otherwise the
    photon was absorbed.  Without the object the photon ends fully rotated
    (inconclusive).  The success probability is evaluated in O(1) for any N
    in [1, :data:`MAX_CYCLES`] as exp(2N * log1p(-2 sin^2(pi/(4N)))), which
    keeps full relative precision where cos(pi/(2N)) rounds close to 1.
    """
    if not 1 <= n_cycles <= MAX_CYCLES:
        raise ValueError("n_cycles must lie in [1, 2**53]")
    _require_count(n_cycles, "n_cycles")
    if not isinstance(object_present, bool):
        raise ValueError(f"object_present must be a bool, got {object_present!r}")
    if not object_present:
        return ZenoDistribution(p_success_detect=0.0, p_absorbed=0.0, p_inconclusive=1.0)
    s = math.sin(math.pi / (4.0 * n_cycles))
    success = math.exp(2.0 * n_cycles * math.log1p(-2.0 * s * s))
    return ZenoDistribution(p_success_detect=success, p_absorbed=1.0 - success, p_inconclusive=0.0)
