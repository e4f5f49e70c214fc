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

# Uniform draws held at once by each span of a count (see _count_below).
# Generator.random yields the same doubles in the same order whatever the
# block size, so the block only bounds memory; counts and the generator's
# final state do not depend on it.
_BLOCK = 65_536

# Most spans one count is split into, one per usable CPU up to this cap, so
# the draws held at once stay under 4 blocks, about 2.4 MB, on any host.
_MAX_SPANS = 4

# Most trials of one bomb test or scan position, so that each takes bounded
# time; memory is fixed at one block of draws per span (see _count_below).
MAX_TRIALS = 10_000_000

# Seeds, of a config and of a scan, are integers in [0, 2**64).
MAX_SEED = 2**64 - 1

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
    seed for one; every seeded draw of the package is made here.  ``n`` is
    cut into ``w`` contiguous spans, each counted by :func:`_count_span`
    over buffers made here, and the counts and ``rng``'s final state are
    those of one ``rng.random(n)`` whatever ``w``.  ``w`` is 1 (``rng``
    itself, with no CPU query or thread) below 2 * :data:`_BLOCK` draws or
    for a bit generator other than ``PCG64``, the one a seed gives.
    Otherwise it is min(usable CPUs, n // _BLOCK, :data:`_MAX_SPANS`), and
    span i draws from a ``PCG64`` set to ``rng``'s state and advanced past
    the spans before it (O'Neill, "PCG: A Family of Simple Fast
    Space-Efficient Statistically Good Algorithms for Random Number
    Generation", 2014).  The calling thread counts span 0, one thread each
    the others; numpy's loops release the GIL, so the split gains only
    while another CPU is free.  A span's exception is raised here, after
    every thread has ended.
    """
    import numpy as np

    rng = np.random.default_rng(rng)  # a Generator is returned unchanged
    w = 1
    if n >= 2 * _BLOCK and type(rng.bit_generator) is np.random.PCG64:
        import os

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        w = min(cpus or 1, n // _BLOCK, _MAX_SPANS)
    m = min(_BLOCK, n)
    if w == 1:
        return _count_span(rng, n, cuts, np.empty(m), np.empty(m, dtype=bool))
    import threading

    start = rng.bit_generator.state
    edges = [n * i // w for i in range(w + 1)]
    spans = []
    for lo, hi in zip(edges, edges[1:]):
        bits = np.random.PCG64(0)  # a fixed seed, at once replaced by the caller's state
        bits.state = start
        buffers = np.empty(m), np.empty(m, dtype=bool)
        spans.append((np.random.Generator(bits.advance(lo)), hi - lo, cuts, *buffers))
    counts, errors = [None] * w, []

    def count(k: int) -> None:
        try:
            counts[k] = _count_span(*spans[k])
        except Exception as exc:  # raised again in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=count, args=(k,)) for k in range(1, w)]
    try:
        for t in threads:
            t.start()
        count(0)
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


def _count_span(gen, n: int, cuts, u, below) -> list[int]:
    """Counts below each cut of ``n`` draws of ``gen.random()``, into float and bool buffers."""
    import numpy as np

    counts = [0] * len(cuts)
    while n > 0:
        if n < len(u):  # the last, short block
            u, below = u[:n], below[:n]
        gen.random(out=u)
        for i, cut in enumerate(cuts):
            counts[i] += int(np.count_nonzero(np.less(u, cut, out=below)))
        n -= len(u)
    return counts


def _require_count(value, name: str, high: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (numpy's too), not a bool, in [1, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 1 <= value <= high:
        raise ValueError(f"{name} must lie in [1, {high}]")


def run_ev_trials(setup: EvSetup, n_trials: int, rng) -> dict[str, int]:
    """Sample ``n_trials`` (at most :data:`MAX_TRIALS`) independent single-photon runs.

    ``rng`` is a ``numpy.random.Generator`` or a seed (see :func:`_count_below`).
    Returns counts per outcome label ("light", "dark", "absorbed"); counts sum
    to ``n_trials`` and are reproducible for a fixed generator state.  The
    absorbed share is the norm the detectors do not see.

    Each trial is one uniform draw u compared with the normalised CDF of
    (light, dark, absorbed): light when u < cdf[0], dark when
    cdf[0] <= u < cdf[1], absorbed otherwise.  The draws are counted in fixed
    blocks, one per span and one span per usable CPU (see
    :func:`_count_below`), so memory does not grow with ``n_trials`` and the
    counts do not depend on the CPU count.  This is the inverse CDF that
    ``rng.choice(3, size=n_trials, p=p)`` evaluates, so the counts and the
    generator's final state are bit-identical to those of that call:
    p over its sum, then the running sum over its last entry, summed left to
    right as numpy sums three floats.
    """
    _require_count(n_trials, "n_trials", MAX_TRIALS)
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
    _require_count(n_cycles, "n_cycles", MAX_CYCLES)
    if not isinstance(object_present, bool):
        raise ValueError(f"object_present must be a bool, got {object_present!r}")
    if not object_present:
        return ZenoDistribution(p_success_detect=0.0, p_absorbed=0.0, p_inconclusive=1.0)
    s = math.sin(math.pi / (4.0 * n_cycles))
    success = math.exp(2.0 * n_cycles * math.log1p(-2.0 * s * s))
    return ZenoDistribution(p_success_detect=success, p_absorbed=1.0 - success, p_inconclusive=0.0)
