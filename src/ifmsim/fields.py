"""Classical field sources, trajectory bending, and light deflection.

Everything is in Gaussian CGS units: lengths in cm, time in s, mass in g,
charge in statC, electric field in statV/cm, magnetic field in gauss, force
in dyne.  Every formula reads the fixed constants :data:`CGS`; no function
takes others.  The Lorentz force carries the symmetrized magnetic term
F = q[E + (v x B - B x v)/(2c)], which reduces to q[E + (v x B)/c] for
classical vectors; the implementation keeps the symmetrized form and the test
suite pins the identity.

The deflection angle is the angle between the initial velocity and the
velocity at a configured exit plane (the second-grating plane).  Box sources
are exact: :func:`box_deflection` follows the straight line into the box, the
parabola (uniform E) or helix (uniform B) inside it, and the straight line out
to the plane, in O(1).  A point charge's deflection has a closed form too, the
exact Kepler/Rutherford orbit (:func:`coulomb_deflection`), whose exit angle
is a cancellation-free root so that it stays exact as the deflection goes to
0.  Fixed-step RK4 (:func:`integrate_trajectory`) is kept as the oracle for
both.  Its one stepping loop, :func:`_rk4_run`, also runs the point-charge
rows of :func:`scan_row`, keeping only the exit angle (:func:`_rk4_exit`).
Brent's root-finder, seeded with the bracketing pair from a coarse
five-sample monotonicity scan, inverts deflection-vs-distance to the
critical source distance for a given threshold angle on the exact
deflections, so it integrates nothing.

Every 3-vector a domain object holds is a tuple of three floats
(:data:`Vec3`).  numpy, ``np`` in annotations, is imported only where an
array is returned: in :func:`eval_fields`, :func:`lorentz_force` and
:func:`integrate_trajectory`.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

Vec3 = tuple[float, float, float]  # a position (cm), velocity (cm/s) or field


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants, Gaussian CGS.

    c in cm/s, G in cm^3 g^-1 s^-2, hbar in erg*s.
    """

    c: float = 3.00e10
    G: float = 6.67e-8
    hbar: float = 1.0546e-27


CGS = PhysicalConstants()


def _finite(value) -> bool:
    """``math.isfinite``, but False, not ``OverflowError``, for an int past the float range."""
    return -sys.float_info.max <= value <= sys.float_info.max


def _vec3(value, name: str) -> Vec3:
    """``value`` as three floats; ``ValueError`` unless it is three finite numbers."""
    try:
        v = () if isinstance(value, str) else tuple(map(float, value))
    except TypeError:  # not iterable, or an entry that is not a number
        v = ()
    except OverflowError:  # an int entry past the float range
        raise ValueError(f"{name} must be finite") from None
    if len(v) != 3:
        raise ValueError(f"{name} must be a 3-vector, got {value!r}")
    if not all(map(math.isfinite, v)):
        raise ValueError(f"{name} must be finite")
    return v


def _require_positive(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive float or an int in the float range."""
    if not 0.0 < value <= sys.float_info.max:  # NaN fails too
        raise ValueError(f"{name} must be finite and positive")


def _finite_result(value: float, name: str) -> float:
    """``value``, or ``ValueError`` where the computed ``name`` left the float range."""
    if not math.isfinite(value):
        raise ValueError(f"{name} is {value}, not a finite float")
    return value


@dataclass(frozen=True, eq=False)
class PointCharge:
    """Point electric charge q (statC) at a fixed position (cm)."""

    q: float
    position: Vec3

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", _vec3(self.position, "position"))
        if not _finite(self.q):
            raise ValueError("charge must be finite")


class _BoxRegion:
    """Uniform field inside an axis-aligned box: every field is a 3-vector."""

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _vec3(getattr(self, f.name), f.name))
        if not all(lo < hi for lo, hi in zip(self.box_min, self.box_max)):
            raise ValueError("field region box must have positive extent")

    @property
    def position(self) -> Vec3:
        """Center of the field region."""
        return tuple(0.5 * (lo + hi) for lo, hi in zip(self.box_min, self.box_max))


@dataclass(frozen=True, eq=False)
class UniformBRegion(_BoxRegion):
    """Constant magnetic field B (gauss) inside an axis-aligned box (cm)."""

    B: Vec3
    box_min: Vec3
    box_max: Vec3


@dataclass(frozen=True, eq=False)
class UniformERegion(_BoxRegion):
    """Constant electric field E (statV/cm) inside an axis-aligned box (cm).

    Companion of :class:`UniformBRegion`; used for constant-force checks and
    cage-style configurations.
    """

    E: Vec3
    box_min: Vec3
    box_max: Vec3


FieldSource = PointCharge | UniformBRegion | UniformERegion

# Nonrelativistic speed bound as a fraction of c.
MAX_SPEED_FRACTION = 0.01

# RK4 limits: the step cap, and the closest approach (cm) to a point charge
# before a path counts as singular.
MAX_STEPS = 2_000_000
SINGULARITY_CUTOFF = 1e-6

# Machine epsilon; the root finder's relative tolerance never drops below 8x it.
_EPS = sys.float_info.epsilon

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class TestParticle:
    """Charged classical test particle: q (statC), m (g), r0 (cm), v0 (cm/s).

    Speeds are restricted to |v0| < 0.01c - the slow matter-wave regime - and
    a nonzero |v0| must be a normal float, so that v0 / |v0| is a unit vector.
    """

    __test__ = False  # not a pytest class, despite the name

    q: float
    m: float
    r0: Vec3
    v0: Vec3

    def __post_init__(self) -> None:
        object.__setattr__(self, "r0", _vec3(self.r0, "r0"))
        object.__setattr__(self, "v0", _vec3(self.v0, "v0"))
        if not _finite(self.q):
            raise ValueError("charge must be finite")
        _require_positive(self.m, "mass")
        speed = math.hypot(*self.v0)
        if speed >= MAX_SPEED_FRACTION * CGS.c or 0.0 < speed < sys.float_info.min:
            raise ValueError(f"|v0| = {speed:.3e} cm/s must be 0 or a normal float below the "
                             f"nonrelativistic bound {MAX_SPEED_FRACTION * CGS.c:.3e} cm/s")


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    """Sampled classical path plus the extracted deflection angle.

    ``t`` is strictly increasing; ``r`` and ``v`` are (n, 3) arrays sampled at
    those times, the last on the exit plane.
    """

    t: np.ndarray
    r: np.ndarray
    v: np.ndarray
    deflection_angle: float

    @property
    def r_final(self) -> np.ndarray:
        return self.r[-1]

    @property
    def v_final(self) -> np.ndarray:
        return self.v[-1]


class SingularityError(RuntimeError):
    """Trajectory approached a point source below the singularity cutoff."""


class StepLimitError(RuntimeError):
    """Step cap exhausted before the trajectory reached the exit plane."""


class BracketError(ValueError):
    """Root-find bracket does not straddle the target deflection."""


class ProtocolError(RuntimeError):
    """Deflection-vs-distance is not monotone where the protocol requires it."""


def eval_fields(source: FieldSource, r) -> tuple[np.ndarray, np.ndarray]:
    """Electric and magnetic field of ``source`` at point ``r`` (cm).

    Returns (E, B) in (statV/cm, gauss).  Evaluation exactly at a point
    source is a domain error.
    """
    import numpy as np

    r = _vec3(r, "r")
    zero = np.zeros(3)
    if isinstance(source, PointCharge):
        d = np.subtract(r, source.position)
        dist = math.hypot(*d)
        if dist == 0.0:
            raise ValueError("field evaluated at the point-charge position")
        if dist < 1e100 and abs(source.q) * dist < 1e300:
            return source.q * d / (dist * dist) ** 1.5, zero
        # Where q*d or dist^3 could overflow, dividing first cannot.
        return source.q / dist / dist * (d / dist), zero
    if isinstance(source, (UniformBRegion, UniformERegion)):
        inside = all(lo <= c <= hi for c, lo, hi in zip(r, source.box_min, source.box_max))
    if isinstance(source, UniformBRegion):
        return zero, np.array(source.B) if inside else zero.copy()
    if isinstance(source, UniformERegion):
        return np.array(source.E) if inside else zero.copy(), zero
    raise TypeError(f"unsupported field source {type(source).__name__}")


def lorentz_force(q: float, v, E, B) -> np.ndarray:
    """Symmetrized Lorentz force F = q[E + (v x B - B x v)/(2c)] in dyne.

    For classical 3-vectors the magnetic term equals q (v x B)/c; the
    symmetrized form is kept as written.
    """
    import numpy as np

    vx, vy, vz = _vec3(v, "v")
    E = np.array(_vec3(E, "E"))
    bx, by, bz = _vec3(B, "B")
    # v x B and B x v from scalars, in the operations np.cross runs.
    cross = np.array([vy * bz - vz * by, vz * bx - vx * bz, vx * by - vy * bx])
    cross -= np.array([by * vz - bz * vy, bz * vx - bx * vz, bx * vy - by * vx])
    return q * (E + cross / (2.0 * CGS.c))


def _acceleration_fn(particle: TestParticle, source: FieldSource):
    """Specialized scalar acceleration a(r, v) of a field source, for :func:`_rk4_run`.

    Each branch is the scalar expansion of lorentz_force(q, v,
    *eval_fields(source, r)) / m, a point charge's k d / |d|^3 (k = q Q / m,
    d = r - source); the equivalence is pinned by the test suite.
    """
    qm = particle.q / particle.m
    if isinstance(source, PointCharge):
        k = qm * source.q
        sx, sy, sz = source.position

        def accel(x, y, z, vx, vy, vz):
            dx, dy, dz = x - sx, y - sy, z - sz
            inv = (dx * dx + dy * dy + dz * dz) ** -1.5
            return k * dx * inv, k * dy * inv, k * dz * inv

        return accel
    if isinstance(source, UniformERegion):
        ax0, ay0, az0 = (qm * c for c in source.E)
        lx, ly, lz = source.box_min
        hx, hy, hz = source.box_max

        def accel(x, y, z, vx, vy, vz):
            if lx <= x <= hx and ly <= y <= hy and lz <= z <= hz:
                return ax0, ay0, az0
            return 0.0, 0.0, 0.0

        return accel
    if isinstance(source, UniformBRegion):
        s = qm / CGS.c
        bx, by, bz = source.B
        lx, ly, lz = source.box_min
        hx, hy, hz = source.box_max

        def accel(x, y, z, vx, vy, vz):
            if lx <= x <= hx and ly <= y <= hy and lz <= z <= hz:
                return (
                    s * (vy * bz - vz * by),
                    s * (vz * bx - vx * bz),
                    s * (vx * by - vy * bx),
                )
            return 0.0, 0.0, 0.0

        return accel
    raise TypeError(f"unsupported field source {type(source).__name__}")


def _plus_zero(*values: float) -> bool:
    """True if every value is +0.0 (a -0.0 fails)."""
    return all(v == 0.0 and math.copysign(1.0, v) > 0.0 for v in values)


def _rk4_run(particle: TestParticle, source: FieldSource, guard):
    """The classical RK4 loop, run(x, y, z, vx, vy, vz, h, n, exit_x, direction, times, states).

    ``run`` takes up to ``n`` steps of ``h`` and returns the state before the
    first step whose x is not short of ``exit_x`` (nor is a NaN x), that
    step's result (None if all ``n`` fall short) and the steps before it; a
    zero ``direction`` stops at the first step.  Given ``times``, each step
    appends its time there and its state to ``states``.  For a point charge,
    ``guard`` = (reach2, cutoff, dt) runs the singularity test of
    :func:`integrate_trajectory` before a step from within sqrt(reach2).

    There are two stage sets.  Every pass but one steps through the
    :func:`_acceleration_fn` closure of its source.  The exception is a
    planar Coulomb pass: when k = q Q / m is finite and the call's z and vz
    and the source's z are all +0.0, every z term of the 3-D stages is +0.0
    (k times a zero d_z is +-0.0, and +0.0 + -0.0 is +0.0), so z and vz stay
    +0.0 and |d|^2 gains only an exact +0.0.  Its stages write k d / |d|^3
    out without the z terms and keep every x/y operation in order, so a step
    is bit for bit the 3-D step.  An infinite k would turn z into NaN (inf *
    0), and the 3-D stages keep a vz of -0.0 as it is; the source's z must be
    +0.0 too.  The digests of the test suite pin both stage sets and these
    edges.
    """
    accel = _acceleration_fn(particle, source)
    reach2, cutoff, dt = guard or (0.0, 0.0, 0.0)
    # A box takes no planar stages and meets no guard: no r2 is below a reach2 of 0.
    sx = sy = sz = k = 0.0
    flat = False
    if isinstance(source, PointCharge):
        k = particle.q / particle.m * source.q
        sx, sy, sz = source.position
        flat = math.isfinite(k) and _plus_zero(sz)

    def check(dx, dy, dz, vx, vy, vz):
        # Closest approach of the step's segment r + s*v*dt, 0 <= s <= 1.
        ux, uy, uz = vx * dt, vy * dt, vz * dt
        s = -(dx * ux + dy * uy + dz * uz) / ((ux * ux + uy * uy + uz * uz) or 1.0)
        s = min(max(s, 0.0), 1.0)
        px, py, pz = dx + s * ux, dy + s * uy, dz + s * uz
        if px * px + py * py + pz * pz < cutoff * cutoff:
            raise SingularityError(f"trajectory within {cutoff} cm of the point source")

    def run(x, y, z, vx, vy, vz, h, n, exit_x, direction, times, states):
        half, six = 0.5 * h, h / 6.0
        planar = flat and _plus_zero(z, vz)
        for i in range(n):
            if planar:
                dx, dy = x - sx, y - sy
                r2 = dx * dx + dy * dy
                if r2 < reach2:
                    check(dx, dy, 0.0, vx, vy, 0.0)
                inv = r2 ** -1.5
                a1x, a1y = k * dx * inv, k * dy * inv
                dx, dy = x + half * vx - sx, y + half * vy - sy
                v2x, v2y = vx + half * a1x, vy + half * a1y
                inv = (dx * dx + dy * dy) ** -1.5
                a2x, a2y = k * dx * inv, k * dy * inv
                dx, dy = x + half * v2x - sx, y + half * v2y - sy
                v3x, v3y = vx + half * a2x, vy + half * a2y
                inv = (dx * dx + dy * dy) ** -1.5
                a3x, a3y = k * dx * inv, k * dy * inv
                dx, dy = x + h * v3x - sx, y + h * v3y - sy
                v4x, v4y = vx + h * a3x, vy + h * a3y
                inv = (dx * dx + dy * dy) ** -1.5
                a4x, a4y = k * dx * inv, k * dy * inv
                nx = x + six * (vx + 2.0 * (v2x + v3x) + v4x)
                ny = y + six * (vy + 2.0 * (v2y + v3y) + v4y)
                nvx = vx + six * (a1x + 2.0 * (a2x + a3x) + a4x)
                nvy = vy + six * (a1y + 2.0 * (a2y + a3y) + a4y)
                nz = nvz = 0.0
            else:
                dx, dy, dz = x - sx, y - sy, z - sz
                if dx * dx + dy * dy + dz * dz < reach2:
                    check(dx, dy, dz, vx, vy, vz)
                a1x, a1y, a1z = accel(x, y, z, vx, vy, vz)
                v2x, v2y, v2z = vx + half * a1x, vy + half * a1y, vz + half * a1z
                a2x, a2y, a2z = accel(x + half * vx, y + half * vy, z + half * vz, v2x, v2y, v2z)
                v3x, v3y, v3z = vx + half * a2x, vy + half * a2y, vz + half * a2z
                a3x, a3y, a3z = accel(x + half * v2x, y + half * v2y, z + half * v2z, v3x, v3y, v3z)
                v4x, v4y, v4z = vx + h * a3x, vy + h * a3y, vz + h * a3z
                a4x, a4y, a4z = accel(x + h * v3x, y + h * v3y, z + h * v3z, v4x, v4y, v4z)
                nx = x + six * (vx + 2.0 * (v2x + v3x) + v4x)
                ny = y + six * (vy + 2.0 * (v2y + v3y) + v4y)
                nz = z + six * (vz + 2.0 * (v2z + v3z) + v4z)
                nvx = vx + six * (a1x + 2.0 * (a2x + a3x) + a4x)
                nvy = vy + six * (a1y + 2.0 * (a2y + a3y) + a4y)
                nvz = vz + six * (a1z + 2.0 * (a2z + a3z) + a4z)
            # Written so that a NaN x also ends the loop: the test costs nothing extra.
            if not (exit_x - nx) * direction > 0.0:
                return (x, y, z, vx, vy, vz), (nx, ny, nz, nvx, nvy, nvz), i
            x, y, z = nx, ny, nz
            vx, vy, vz = nvx, nvy, nvz
            if times is not None:
                times.append(times[-1] + h)
                states.extend((x, y, z, vx, vy, vz))
        return (x, y, z, vx, vy, vz), None, n

    return run


def _turn_angle(vx: float, vy: float, vz: float, dvx: float, dvy: float, dvz: float) -> float:
    """Angle between v and v + dv, from dv itself so that a small turn keeps its digits."""
    cross = math.hypot(vy * dvz - vz * dvy, vz * dvx - vx * dvz, vx * dvy - vy * dvx)
    dot = vx * vx + vy * vy + vz * vz + vx * dvx + vy * dvy + vz * dvz
    return math.atan2(cross, dot)


def _check_launch(x0: float, vx: float, exit_plane_x: float) -> float:
    """Sign (+1 or -1) of the direction from ``x0`` to the exit plane.

    Raises ``ValueError`` unless the particle starts before the plane, moving
    toward it.
    """
    direction = 1.0 if exit_plane_x >= x0 else -1.0
    if vx * direction <= 0.0 or (exit_plane_x - x0) * direction <= 0.0:
        raise ValueError("particle must start before the exit plane, moving toward it")
    return direction


def _rk4_exit(particle: TestParticle, source: FieldSource, exit_plane_x: float, dt: float,
              max_steps: int, singularity_cutoff: float, times=None, states=None):
    """Exit angle of :func:`integrate_trajectory`; samples go to ``times``/``states``."""
    _require_positive(dt, "dt")
    x, y, z, vx, vy, vz = particle.r0 + particle.v0
    direction = _check_launch(x, vx, exit_plane_x)

    guard = None
    if isinstance(source, PointCharge):
        # No step starting beyond ``reach`` gets within the cutoff: energy
        # bounds the speed at distance r by sqrt(V^2 + 2|k|/r) (k = q*Q/m,
        # V^2 = v0^2 + 2|k|/r0), and beyond reach 2*dt times that is < r - cutoff.
        k = abs(particle.q * source.q / particle.m)
        r0 = max(math.dist(particle.r0, source.position), singularity_cutoff)
        speed = math.sqrt(vx * vx + vy * vy + vz * vz + 2.0 * k / r0)
        reach = max(2.0 * (singularity_cutoff + 2.0 * dt * speed),
                    (4.0 * dt) ** (2.0 / 3.0) * (2.0 * k) ** (1.0 / 3.0))
        guard = (reach * reach, singularity_cutoff, dt)
    run = _rk4_run(particle, source, guard)

    start, state, steps = run(x, y, z, vx, vy, vz, dt, max_steps, exit_plane_x, direction,
                              times, states)
    if state is None:
        raise StepLimitError(f"exit plane not reached within {max_steps} steps")
    if not math.isfinite(state[0]):
        raise FloatingPointError(f"trajectory state not finite after {steps + 1} steps")
    # Crossed the plane inside this step: refine the substep onto it in three
    # Newton passes, and step once more if none converged.
    h = dt * (exit_plane_x - start[0]) / (state[0] - start[0])
    for i in range(4):
        h = min(max(h, 1e-15 * dt), dt)
        state = run(*start, h, 1, exit_plane_x, 0.0, None, None)[1]
        miss, nvx = exit_plane_x - state[0], state[3]
        if i == 3 or nvx == 0.0 or abs(miss) <= 1e-15 * (abs(exit_plane_x) + dt * abs(nvx)):
            break
        h += miss / nvx
    if not all(map(math.isfinite, state)):
        raise FloatingPointError("trajectory state not finite on the exit plane")
    if times is not None:
        times.append(times[-1] + h)
        states.extend(state)
    return _turn_angle(vx, vy, vz, state[3] - vx, state[4] - vy, state[5] - vz)


def integrate_trajectory(
    particle: TestParticle,
    source: FieldSource,
    exit_plane_x: float,
    dt: float,
    *,
    max_steps: int = MAX_STEPS,
    singularity_cutoff: float = SINGULARITY_CUTOFF,
) -> TrajectoryResult:
    """RK4 integration of the particle through the source's field.

    Steps come from :func:`_rk4_run`; SHA-256 digests of t, r and v in the
    test suite pin its two stage sets and the choice between them.  The
    deflection is the turn from v0 to the exit velocity (:func:`_turn_angle`).
    ``dt`` must be finite and positive.  Integration runs until the x
    coordinate crosses ``exit_plane_x`` (the final partial step is refined
    onto the plane).  The particle must initially move toward the plane
    (:func:`_check_launch`).  A step whose segment r + s*v*dt (0 <= s <= 1)
    passes within ``singularity_cutoff`` cm of a point source raises
    :class:`SingularityError`, so no step jumps over the charge; exhausting
    ``max_steps`` raises :class:`StepLimitError`.  A non-finite x raises
    ``FloatingPointError`` at the step that produced it (a NaN anywhere in a
    point charge's state reaches x within two steps), and so does any
    non-finite component on the exit plane.
    """
    import numpy as np

    times, states = [0.0], list(particle.r0 + particle.v0)
    angle = _rk4_exit(particle, source, exit_plane_x, dt, max_steps, singularity_cutoff,
                      times, states)
    samples = np.array(states).reshape(-1, 6)
    return TrajectoryResult(
        t=np.array(times),
        r=samples[:, :3],
        v=samples[:, 3:],
        deflection_angle=angle,
    )


def _first_root(a: float, b: float, c: float, c_minus_a: float) -> float:
    """Smallest theta in (0, 2*pi] with a*cos(theta) + b*sin(theta) = c; inf if none.

    In t = tan(theta/2) the equation reads (a + c) t^2 - 2 b t + (c - a) = 0.
    Its roots are taken in the stable forms q / (a + c) and (c - a) / q, with
    q = b + sign(b) sqrt(a^2 + b^2 - c^2), so a small theta keeps its relative
    precision; atan2(b, a) - acos(c / |(a, b)|) would lose it to the
    difference of two angles of order 1.  The caller passes ``c_minus_a``,
    which it knows without that cancellation.  A vanishing a + c puts the
    first root at theta = pi.
    """
    amp = math.hypot(a, b)
    if amp == 0.0 or abs(c) > amp:
        return math.inf
    q = b + math.copysign(math.sqrt((amp - c) * (amp + c)), b)
    roots = [math.pi if a + c == 0.0 else 2.0 * math.atan(q / (a + c))]
    if q != 0.0:
        roots.append(2.0 * math.atan(c_minus_a / q))
    return min(theta if theta > 0.0 else theta + _TWO_PI for theta in roots)


def coulomb_deflection(
    particle: TestParticle,
    charge: PointCharge,
    exit_plane_x: float,
    *,
    singularity_cutoff: float = SINGULARITY_CUTOFF,
) -> float:
    """Deflection angle at the exit plane on the exact Coulomb orbit, in O(1).

    The orbit is the Kepler/Rutherford conic (Goldstein, *Classical
    Mechanics*, §3.10).  With u = 1/r about the charge and theta the angle
    swept from the launch direction r0_hat in the sense of motion, Binet's
    equation gives u(theta) = mu/h^2 + A cos(theta) + B sin(theta), where
    mu = -q Q / m (positive when attractive), h = |r0 x v0|, A = 1/r0 - mu/h^2
    and B = -(dr/dt)_0 / h; any 3-D launch and either charge sign works.  The
    particle reaches the plane at the first theta_1 > 0, on the branch where
    u > 0, that solves a cos(theta) + b sin(theta) = c.  Its velocity has
    then changed by (mu/h) h_hat x (r_hat(theta_1) - r0_hat), evaluated in
    half-angle form so that a 1e-3 rad deflection keeps full precision.

    Raises what :func:`integrate_trajectory` raises for the same orbit:
    :class:`SingularityError` when the closest approach before the plane is
    below ``singularity_cutoff`` (a head-on launch, h = 0, included),
    :class:`StepLimitError` at once when the orbit turns back before reaching
    the plane, and ``ValueError`` unless the particle starts before the plane
    moving toward it (:func:`_check_launch`).
    """
    x0 = particle.r0[0]
    vx, vy, vz = particle.v0
    _check_launch(x0, vx, exit_plane_x)
    sx = charge.position[0]
    rx, ry, rz = (a - b for a, b in zip(particle.r0, charge.position))
    r0 = math.hypot(rx, ry, rz)
    if r0 < singularity_cutoff:  # also keeps r0 = 0 out of the divisions below
        raise SingularityError(f"trajectory within {singularity_cutoff} cm of the point source")
    mu = -particle.q * charge.q / particle.m
    # r0_hat, and l = r0_hat x v0, so that h = r0 |l| and no product of r0
    # with a speed overflows before it is needed.
    ux, uy, uz = rx / r0, ry / r0, rz / r0
    lx, ly, lz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    ell = math.hypot(lx, ly, lz)
    h = r0 * ell
    radial_speed = ux * vx + uy * vy + uz * vz

    if ell == 0.0:
        # Radial line through the charge: the velocity keeps its direction, so
        # the particle leaves undeflected unless it falls in or turns back.
        rho_plane = (exit_plane_x - sx) * r0 / rx
        energy = 0.5 * radial_speed * radial_speed - mu / r0
        if radial_speed < 0.0:
            turn = -mu / energy if mu < 0.0 else 0.0
            reached = rho_plane > turn
            closest = rho_plane if reached else turn
        else:
            reached = energy >= 0.0 or -mu / energy > rho_plane
            closest = r0 if reached else 0.0
    else:
        p = mu / (h * h)
        A = 1.0 / r0 - p
        B = -radial_speed / h
        # r0_hat and t0_hat = h_hat x r0_hat span the orbital plane.
        tx, ty, tz = (ly * uz - lz * uy) / ell, (lz * ux - lx * uz) / ell, (lx * uy - ly * ux) / ell
        # x(theta) = X  <=>  u(theta) (X - sx) = cos(theta) ux + sin(theta) tx,
        # and there c - a = (X - x0) / r0 exactly.
        offset = exit_plane_x - sx
        theta_exit = _first_root(
            (x0 - exit_plane_x) / r0 + offset * p, tx - offset * B, offset * p,
            (exit_plane_x - x0) / r0,
        )
        # Where u reaches 0, with c - a = -1/r0; inf on a bound orbit.
        theta_escape = _first_root(A, B, -p, -1.0 / r0)
        reached = theta_exit < theta_escape
        theta_end = theta_exit if reached else min(theta_escape, _TWO_PI)
        # u = p + |(A, B)| cos(theta - periapsis) peaks at the periapsis.
        if math.atan2(B, A) % _TWO_PI <= theta_end:
            u_max = p + math.hypot(A, B)
        else:
            u_max = max(1.0 / r0, p + A * math.cos(theta_end) + B * math.sin(theta_end))
        closest = 1.0 / u_max
    if closest < singularity_cutoff:
        raise SingularityError(f"trajectory within {singularity_cutoff} cm of the point source")
    if not reached:
        raise StepLimitError("exit plane not reached: the orbit turns back before it")
    if ell == 0.0:
        return 0.0

    # dv = (mu/h) (t_hat(theta) - t0_hat)
    #    = -(2 mu/h) sin(theta/2) (cos(theta/2) r0_hat + sin(theta/2) t0_hat).
    s, co = math.sin(0.5 * theta_exit), math.cos(0.5 * theta_exit)
    k = -2.0 * mu / h * s
    dvx, dvy, dvz = k * (co * ux + s * tx), k * (co * uy + s * ty), k * (co * uz + s * tz)
    return _turn_angle(vx, vy, vz, dvx, dvy, dvz)


def _brent(f, a: float, fa: float, b: float, fb: float, rel_tol: float) -> float:
    """Root of ``f`` between ``a`` and ``b``, where fa = f(a) and fb = f(b) differ in sign.

    Brent's method (R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4) mixes inverse quadratic interpolation, secant
    steps and bisection while always keeping the root bracketed.  It stops
    once the half-bracket is at most max(0.25 * ``rel_tol``, 2 eps) * |b|,
    where b is the current estimate, or once f(b) is exactly 0.
    """
    c, fc = a, fa
    step = prev_step = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            # The root now lies between a and b.
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            # Keep b the end with the smaller residual.
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(0.25 * rel_tol, 2.0 * _EPS) * abs(b)
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return b
        if abs(prev_step) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # Secant step.
                p = 2.0 * half * s
                q = 1.0 - s
            else:
                # Inverse quadratic interpolation through a, b and c.
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # Accept the step only if it stays well inside the bracket and
            # shrinks faster than the step before last; otherwise bisect.
            if 2.0 * p < 3.0 * half * q - abs(tol * q) and p < abs(0.5 * prev_step * q):
                prev_step, step = step, p / q
            else:
                step = prev_step = half
        else:
            step = prev_step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = f(b)


def _quadratic_exit(c0: float, c1: float, c2: float) -> float:
    """First t >= 0 at which c0 + c1*t + c2*t^2 turns positive, given c0 <= 0; inf if never."""
    if c0 == 0.0 and (c1 > 0.0 or (c1 == 0.0 and c2 > 0.0)):
        return 0.0
    if c2 == 0.0:
        return -c0 / c1 if c1 > 0.0 else math.inf
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc <= 0.0:  # only with c2 < 0: the parabola at most touches 0
        return math.inf
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    roots = (q / c2, c0 / q)
    # Opening upward it turns positive at the larger root, downward at the smaller.
    t = max(roots) if c2 > 0.0 else min(roots)
    return t if t > 0.0 else math.inf


def _helix_crossing(c: float, beta: float, p: float, q: float, limit: float) -> float:
    """First theta >= 0 at which F(theta) turns positive, or ``limit`` if that comes first.

    F(theta) = c + beta*theta + p*sin(theta) + q*(1 - cos(theta)), with
    F(0) = c <= 0, is one helix coordinate measured against a plane.  Its
    derivative vanishes where A cos(theta - atan2(q, p)) = -beta, A =
    hypot(p, q), and those analytic roots split theta into monotone pieces;
    Brent's method runs on the first piece whose end is positive.  Only a
    window of two turns is searched.  With beta > 0, F <= c + beta*theta + q + A
    stays negative before theta_min = -(c + q + A)/beta and exceeds that bound
    at the top of its oscillation in the turn after the one holding theta_min.
    With beta <= 0 each turn repeats the one before, lowered by -2*pi*beta, so
    only the first can cross.  A crossing more than 1e12 turns away, where a
    float theta no longer resolves a turn, counts as none.
    """
    amp = math.hypot(p, q)
    if beta > 0.0:
        turns = max(0.0, -(c + q + amp) / beta) / _TWO_PI
        if turns > 1e12:
            return limit
        start = _TWO_PI * math.floor(turns)
        end = start + 2.0 * _TWO_PI
    else:
        start, end = 0.0, _TWO_PI
    if start >= limit:
        return limit
    points = [end]
    if amp > abs(beta):
        phase, spread = math.atan2(q, p), math.acos(-beta / amp)
        for base in (phase - spread, phase + spread):
            theta = start + (base - start) % _TWO_PI
            while theta < end:
                points.append(theta)
                theta += _TWO_PI
        points.sort()

    def f(theta: float) -> float:
        half = math.sin(0.5 * theta)
        return c + beta * theta + p * math.sin(theta) + 2.0 * q * half * half

    a, fa = start, f(start) if start else c
    for b in points:
        b = min(b, limit)
        fb = f(b)
        if fb > 0.0:
            return a if fa >= 0.0 else _brent(f, a, fa, b, fb, 0.0)
        if b >= limit:
            break
        a, fa = b, fb
    return limit


def _box_exit(
    particle: TestParticle,
    box: UniformBRegion | UniformERegion,
    exit_plane_x: float,
):
    """End of the field segment of the exact path through ``box``.

    The launch line r0 + v0*t meets the closed box, by the slab test, for
    t_in <= t <= t_out; it misses when that range is empty or starts at or
    beyond the exit plane, and then None is returned, as it is for a zero
    field.  From the entry point the path is a parabola (E) or a helix (B)
    until it first leaves the box or reaches the plane.  Returns that point r
    and the velocity change dv along the way, as lists of floats.
    """
    if not isinstance(box, (UniformBRegion, UniformERegion)):
        raise TypeError(f"unsupported field box {type(box).__name__}")
    q_m = particle.q / particle.m
    r0, v0 = particle.r0, particle.v0
    lo, hi = box.box_min, box.box_max
    direction = _check_launch(r0[0], v0[0], exit_plane_x)

    # Slab test (Williams et al., J. Graphics Tools 10:49, 2005).
    t_plane = (exit_plane_x - r0[0]) / v0[0]
    t_in, t_out = 0.0, t_plane
    for i in range(3):
        if v0[i] == 0.0:
            if not lo[i] <= r0[i] <= hi[i]:
                return None
            continue
        near, far = (lo[i], hi[i]) if v0[i] > 0.0 else (hi[i], lo[i])
        t_in = max(t_in, (near - r0[i]) / v0[i])
        t_out = min(t_out, (far - r0[i]) / v0[i])
    if t_in > t_out or t_in >= t_plane:
        return None
    # Entry point, clamped onto the closed box against rounding.
    p = [min(max(r0[i] + v0[i] * t_in, lo[i]), hi[i]) for i in range(3)]
    # Outward-signed offsets s*(p_i - face) <= 0 of the six faces, the face
    # ahead of the launch first, then of the exit plane.
    planes = []
    for i in range(3):
        s, ahead, behind = (1.0, hi[i], lo[i]) if v0[i] >= 0.0 else (-1.0, lo[i], hi[i])
        planes += [(i, s, s * (p[i] - ahead)), (i, -s, s * (behind - p[i]))]
    planes.append((0, direction, direction * (p[0] - exit_plane_x)))

    if isinstance(box, UniformERegion):
        a = [q_m * e for e in box.E]
        if not all(map(math.isfinite, a)):
            raise ValueError("q E / m is not finite")
        if not any(a):
            return None
        # A nonzero a bends some coordinate out of the box: t is finite.
        t = min(_quadratic_exit(g, s * v0[i], 0.5 * s * a[i]) for i, s, g in planes)
        dv = [ai * t for ai in a]
        r = [p[i] + (v0[i] + 0.5 * a[i] * t) * t for i in range(3)]
    else:
        # dv/dt = w x v with w = -q B / (m c): v turns about w_hat at rate |w|.
        wx, wy, wz = (-q_m / CGS.c * b for b in box.B)
        omega = math.hypot(wx, wy, wz)
        if not math.isfinite(omega):
            raise ValueError("the gyrofrequency |q B| / (m c) is not finite")
        if omega == 0.0:
            return None
        nx, ny, nz = wx / omega, wy / omega, wz / omega
        vx, vy, vz = v0
        along = vx * nx + vy * ny + vz * nz
        drift = (along * nx, along * ny, along * nz)
        perp = (vx - drift[0], vy - drift[1], vz - drift[2])
        turn = (ny * vz - nz * vy, nz * vx - nx * vz, nx * vy - ny * vx)
        # Rodrigues: at theta = omega*t, v = drift + perp cos(theta) + turn sin(theta)
        # and omega (r - p) = drift theta + perp sin(theta) + turn (1 - cos(theta)).
        theta = math.inf
        for i, s, g in planes:
            theta = _helix_crossing(omega * g, s * drift[i], s * perp[i], s * turn[i], theta)
        if theta == math.inf:
            raise StepLimitError("exit plane not reached: the orbit stays inside the field box")
        sin_t, half = math.sin(theta), math.sin(0.5 * theta)
        one_minus_cos = 2.0 * half * half
        dv = [turn[i] * sin_t - perp[i] * one_minus_cos for i in range(3)]
        r = [p[i] + (drift[i] * theta + perp[i] * sin_t + turn[i] * one_minus_cos) / omega
             for i in range(3)]
    # On the plane x moves toward it; at a face it must, or the line out never gets there.
    if (v0[0] + dv[0]) * direction <= 0.0:
        raise StepLimitError("exit plane not reached: the path turns back in the field box")
    return r, dv


def box_deflection(
    particle: TestParticle,
    box: UniformBRegion | UniformERegion,
    exit_plane_x: float,
) -> float:
    """Deflection angle at the exit plane on the exact path through a field box, in O(1).

    The path is a straight line to the closed box, a parabola in uniform E
    or a helix in uniform B (Jackson, *Classical Electrodynamics*, §12.2)
    inside it, then a straight line to the plane; a line that leaves a convex
    box never re-enters it.  The path stops at the exit plane even where that
    plane cuts the box.  A launch line that misses the box, or meets it only
    at or beyond the plane, gives exactly 0.0.

    Raises what :func:`coulomb_deflection` raises: :class:`StepLimitError` at
    once when the path never reaches the plane (an orbit trapped in the box,
    or a turn back inside it), and ``ValueError`` for a bad launch
    (:func:`_check_launch`) or a field whose q E/m or |q B|/(m c) overflows.
    """
    end = _box_exit(particle, box, exit_plane_x)
    if end is None:
        return 0.0
    return _turn_angle(*particle.v0, *end[1])


@dataclass(frozen=True, eq=False)
class BeamGeometry:
    """Geometry tying a nominal beam path to the source-approach line.

    ``source_anchor`` is the point on the undeflected beam path closest to the
    source positions; moving the source to distance d places it at
    anchor + d * approach_direction.  ``exit_plane_x`` is the plane where the
    deflection is read off (the second-grating plane).
    """

    exit_plane_x: float
    source_anchor: Vec3
    approach_direction: Vec3

    def __post_init__(self) -> None:
        if not _finite(self.exit_plane_x):
            raise ValueError("exit_plane_x must be finite")
        object.__setattr__(self, "source_anchor", _vec3(self.source_anchor, "source_anchor"))
        d = _vec3(self.approach_direction, "approach_direction")
        norm = math.hypot(*d)
        if not sys.float_info.min <= norm < math.inf:  # else d / norm is no unit vector
            raise ValueError(f"approach_direction norm {norm} must be a normal, finite float")
        object.__setattr__(self, "approach_direction", tuple(c / norm for c in d))

    def source_position(self, distance: float) -> Vec3:
        return tuple(a + distance * u for a, u in zip(self.source_anchor, self.approach_direction))


def with_position(source: FieldSource, position) -> FieldSource:
    """Copy of ``source`` relocated so its reference position is ``position``.

    Box sources are translated rigidly so their center lands on the target.
    """
    position = _vec3(position, "position")
    if isinstance(source, PointCharge):
        return dataclasses.replace(source, position=position)
    if isinstance(source, (UniformBRegion, UniformERegion)):
        shift = [p - c for p, c in zip(position, source.position)]
        lo, hi = ([a + s for a, s in zip(box, shift)] for box in (source.box_min, source.box_max))
        return dataclasses.replace(source, box_min=lo, box_max=hi)
    raise TypeError(f"unsupported field source {type(source).__name__}")


def deflection_at_distance(
    particle: TestParticle,
    source_template: FieldSource,
    geometry: BeamGeometry,
    distance: float,
) -> float:
    """Deflection angle with the source placed ``distance`` cm from the beam.

    A point charge takes the exact orbit (:func:`coulomb_deflection`), a box
    source the exact piecewise path (:func:`box_deflection`), so it
    integrates nothing.
    """
    source = with_position(source_template, geometry.source_position(distance))
    if isinstance(source, PointCharge):
        return coulomb_deflection(particle, source, geometry.exit_plane_x)
    return box_deflection(particle, source, geometry.exit_plane_x)


def scan_row(
    particle: TestParticle,
    source_template: FieldSource,
    geometry: BeamGeometry,
    distance: float,
    dt: float,
) -> tuple[float, float]:
    """Deflection angle and field magnitude |E| + |B| of one scan position.

    The source is placed ``distance`` cm from the beam.  A box source takes
    the exact piecewise path (:func:`box_deflection`).  A point charge takes
    RK4 at ``dt`` with :data:`MAX_STEPS` and :data:`SINGULARITY_CUTOFF`,
    through the sample-free :func:`_rk4_exit` of its loop: bit for bit the
    deflection of :func:`integrate_trajectory` at its defaults, until the
    exact orbit replaces it (ROADMAP item 2).  The magnitude is read where
    the launch line passes closest to the source's reference position; |v0|
    comes from ``math.hypot``, so neither a tiny |v0| nor a far source
    under- or overflows.
    """
    source = with_position(source_template, geometry.source_position(distance))
    exit_x = geometry.exit_plane_x
    if isinstance(source, PointCharge):
        deflection = _rk4_exit(particle, source, exit_x, dt, MAX_STEPS, SINGULARITY_CUTOFF)
    else:
        deflection = box_deflection(particle, source, exit_x)
    speed = math.hypot(*particle.v0)
    u = [v / speed for v in particle.v0]
    s = sum((p - r) * c for p, r, c in zip(source.position, particle.r0, u))
    E, B = eval_fields(source, [r + s * c for r, c in zip(particle.r0, u)])
    return deflection, math.hypot(*E) + math.hypot(*B)


def critical_distance(
    particle: TestParticle,
    source_template: FieldSource,
    geometry: BeamGeometry,
    phi_c: float,
    bracket: tuple[float, float],
    dt: float,
    *,
    rel_tol: float = 1e-6,
) -> float:
    """Source distance at which the deflection angle equals ``phi_c``.

    Deflection must decrease monotonically with distance over ``bracket`` =
    (near, far): a coarse scan of five evenly spaced distances checks that,
    and that the bracket straddles ``phi_c``.  The adjacent pair of scan
    samples that straddles ``phi_c`` then seeds Brent's method
    (:func:`_brent`).  It stops once the half-bracket is at most 0.25 *
    ``rel_tol`` * |b|, where b is the current estimate, so the returned
    distance lies within 0.5 * ``rel_tol`` * d of the root d (``rel_tol`` is
    floored at 8 machine epsilons).  If ``phi_c`` equals a sample's
    deflection exactly, that sample's distance is returned without further
    evaluation.  Each deflection comes from :func:`deflection_at_distance`,
    which is exact for every source, so a solve integrates nothing; ``dt``
    must be finite and positive, but no deflection reads it.
    """
    _require_positive(dt, "dt")
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError(f"bracket must satisfy 0 < near < far, got {bracket}")

    def deflection(d: float) -> float:
        return deflection_at_distance(particle, source_template, geometry, d)

    step = (hi - lo) / 4
    samples = [lo + i * step for i in range(4)] + [hi]
    angles = [deflection(d) for d in samples]
    slack = 1e-12 * max(angles)
    for a, b in zip(angles, angles[1:]):
        if b > a + slack:
            raise ProtocolError("deflection is not monotone decreasing in source distance")
    if not angles[0] >= phi_c >= angles[-1]:
        raise BracketError(
            f"deflection range [{angles[-1]:.3e}, {angles[0]:.3e}] does not straddle {phi_c:.3e}"
        )

    for d, angle in zip(samples, angles):
        if angle == phi_c:
            return d
    # First adjacent pair that straddles phi_c; f = deflection - phi_c is > 0
    # at its near end and < 0 at its far end.
    i = next(k for k in range(len(angles) - 1) if angles[k + 1] < phi_c)
    a, fa = samples[i], angles[i] - phi_c
    b, fb = samples[i + 1], angles[i + 1] - phi_c
    return _brent(lambda d: deflection(d) - phi_c, a, fa, b, fb, rel_tol)


def light_deflection(M: float, b: float) -> float:
    """First-order bending angle 4GM/(b c^2) of a light ray passing a mass.

    M in g, impact parameter b in cm; returns radians.  A bending angle past
    the float range raises ``ValueError``.
    """
    _require_positive(b, "impact parameter")
    if not 0.0 <= M <= sys.float_info.max:
        raise ValueError("mass must be finite and nonnegative")
    return _finite_result(4.0 * CGS.G * M / (b * CGS.c**2), "the deflection 4GM/(b c^2)")


def sphere_radius_for_deflection(delta_phi: float, density: float) -> float:
    """Radius of a uniform sphere whose grazing rays bend by ``delta_phi``.

    Inverts delta_phi = (16/3) pi G rho R^2 / c^2 (mass (4/3) pi R^3 rho at
    impact parameter R), giving R = sqrt(3 delta_phi c^2 / (16 pi G rho)) cm.
    A radius past the float range raises ``ValueError``.
    """
    _require_positive(delta_phi, "target deflection")
    _require_positive(density, "density")
    denominator = 16.0 * math.pi * CGS.G * density  # 0.0 at a subnormal density
    radius = math.sqrt(3.0 * delta_phi * CGS.c**2 / denominator) if denominator else math.inf
    return _finite_result(radius, "the sphere radius sqrt(3 delta_phi c^2/(16 pi G rho))")
