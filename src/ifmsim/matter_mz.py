"""Three-grating matter-wave interferometer over diffraction orders -1/0/+1.

Two primary paths connect the source to the detector: the lower path takes
order 0 at the first grating and order +1 at the second; the upper path takes
order +1 at the first grating and order -1 at the second.  All other orders
leave the interferometer and are treated as loss.  The third grating
recombines the paths; displacing it adds a tunable relative phase, and with a
single path open the full surviving flux is counted at the detector (the
detector is much wider than a grating period), so the third grating
contributes no amplitude factor of its own.

Phase bookkeeping: the tunable third-grating phase and any field-induced phase
(``arm_extra_phase``) both act on the lower path, so the detector amplitude is

    A = sqrt(p+1(G1) * p-1(G2)) + sqrt(p0(G1) * p+1(G2)) * exp(i*(theta + phi))

and the dark fringe sits at theta = pi - phi for equal path weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import _finite

PATH_UPPER = "upper"
PATH_LOWER = "lower"
PATHS = frozenset((PATH_UPPER, PATH_LOWER))

_TWO_PI = 2.0 * math.pi
# A no-block detector probability below this counts as dark: a null whose
# residual is below it is perfect, and a model this dark is calibrated.
NULL_TOL = 1e-12


def wrap_phase(x: float) -> float:
    """Reduce an angle into [0, 2*pi); the float modulo can round up to 2*pi."""
    r = x % _TWO_PI
    return 0.0 if r >= _TWO_PI else r


@dataclass(frozen=True)
class GratingSpec:
    """Diffraction probabilities into orders -1, 0, +1 plus discarded loss.

    The four probabilities must sum to 1 within 1e-12.
    """

    p_minus1: float
    p_0: float
    p_plus1: float
    loss: float = 0.0

    def __post_init__(self) -> None:
        parts = (self.p_minus1, self.p_0, self.p_plus1, self.loss)
        if not all(0.0 <= p <= 1.0 for p in parts):  # NaN fails too
            raise ValueError(f"diffraction probabilities out of range: {parts}")
        if not abs(sum(parts) - 1.0) <= 1e-12:
            raise ValueError(f"diffraction probabilities sum to {sum(parts)}, expected 1")

    @classmethod
    def symmetric(cls, p: float) -> "GratingSpec":
        """Equal probability p into each primary order, remainder lost."""
        if not 0.0 <= p <= 1.0 / 3.0 + 1e-15:
            raise ValueError("symmetric order probability must lie in [0, 1/3]")
        return cls(p_minus1=p, p_0=p, p_plus1=p, loss=max(0.0, 1.0 - 3.0 * p))


@dataclass(frozen=True)
class InterferometerModel:
    """Grating stack plus the phases that set the interference condition."""

    g1: GratingSpec
    g2: GratingSpec
    g3: GratingSpec
    third_grating_phase: float = 0.0
    arm_extra_phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.third_grating_phase < _TWO_PI:
            raise ValueError("third_grating_phase must lie in [0, 2*pi)")
        if not _finite(self.arm_extra_phase):
            raise ValueError(f"arm_extra_phase must be finite, got {self.arm_extra_phase}")


@dataclass(frozen=True)
class PathBlockSet:
    """Subset of the two primary paths removed from the interferometer."""

    blocked: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        extra = self.blocked - PATHS
        if extra:
            raise ValueError(f"unknown paths {sorted(extra)}; valid paths are {sorted(PATHS)}")

    @classmethod
    def of(cls, *paths: str) -> "PathBlockSet":
        return cls(frozenset(paths))


NO_BLOCKS = PathBlockSet()
BLOCK_UPPER = PathBlockSet.of(PATH_UPPER)
BLOCK_LOWER = PathBlockSet.of(PATH_LOWER)


@dataclass(frozen=True)
class NullSolution:
    """Result of solving for the dark-fringe grating phase.

    ``perfect`` is False when the two path weights differ, in which case the
    phase minimizes the detector probability and ``residual`` is the
    irreducible floor (sqrt(w_upper) - sqrt(w_lower))^2.
    """

    phase: float
    residual: float
    perfect: bool


def path_weights(model: InterferometerModel, blocks: PathBlockSet) -> tuple[float, float]:
    """Upper and lower path weights of ``model``; a path in ``blocks`` weighs 0."""
    w_upper = 0.0 if PATH_UPPER in blocks.blocked else model.g1.p_plus1 * model.g2.p_minus1
    w_lower = 0.0 if PATH_LOWER in blocks.blocked else model.g1.p_0 * model.g2.p_plus1
    return w_upper, w_lower


def detector_probability(model: InterferometerModel, blocks: PathBlockSet = NO_BLOCKS) -> float:
    """Detection probability from the coherent sum of the open path amplitudes.

    With one path blocked this reduces exactly to the open path's probability
    product, independent of any phase; with both open the relative phase
    theta + phi sets the fringe.
    """
    w_u, w_l = path_weights(model, blocks)
    # Wrapped first: cos of a raw sum near 1e17 keeps no fractional digits.
    delta = model.third_grating_phase + wrap_phase(model.arm_extra_phase)
    p = w_u + w_l + 2.0 * math.sqrt(w_u * w_l) * math.cos(delta)
    return max(p, 0.0)


def solve_ideal_offset(model: InterferometerModel) -> NullSolution:
    """Third-grating phase that extinguishes the detector (the dark fringe).

    Returns the smallest nonnegative solution.  If the two path weights are
    unequal a perfect null is impossible; the returned phase still minimizes
    the detector probability and the solution is flagged imperfect with the
    residual attached.
    """
    w_u, w_l = path_weights(model, NO_BLOCKS)
    phase = wrap_phase(math.pi - wrap_phase(model.arm_extra_phase))
    residual = (math.sqrt(w_u) - math.sqrt(w_l)) ** 2
    return NullSolution(phase=phase, residual=residual, perfect=residual < NULL_TOL)


def ifm_efficiency(g1: GratingSpec, g2: GratingSpec) -> float:
    """Probability of traversing the surviving lower path: p0(G1) * p+1(G2).

    This is the chance that a particle reaches the detector once the upper
    path has been removed, i.e. the interaction-free detection efficiency.
    """
    return g1.p_0 * g2.p_plus1
