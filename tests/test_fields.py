"""Field evaluation, Lorentz-force numerics, trajectory bending, gravity formulas."""

import decimal
import hashlib
import math
import sys
import time

import numpy as np
import pytest

import ifmsim.fields
from ifmsim.fields import (
    CGS,
    BeamGeometry,
    BracketError,
    PointCharge,
    ProtocolError,
    SingularityError,
    StepLimitError,
    TestParticle,
    UniformBRegion,
    UniformERegion,
    critical_distance,
    deflection_at_distance,
    eval_fields,
    integrate_trajectory,
    light_deflection,
    lorentz_force,
    scan_row,
    sphere_radius_for_deflection,
    with_position,
    _acceleration_fn,
    _rk4_exit,
    _rk4_run,
    _box_exit,
    _brent,
    _quadratic_exit,
    box_deflection,
    _check_launch,
    coulomb_deflection,
)

ELECTRON_Q = -4.80e-10  # statC
ELECTRON_M = 9.11e-28  # g
BEAM_SPEED = 1.0e8  # cm/s


def beam_particle(q=ELECTRON_Q) -> TestParticle:
    return TestParticle(q=q, m=ELECTRON_M, r0=[-0.5, 0.0, 0.0], v0=[BEAM_SPEED, 0.0, 0.0])


def beam_geometry() -> BeamGeometry:
    return BeamGeometry(
        exit_plane_x=0.5, source_anchor=[0.0, 0.0, 0.0], approach_direction=[0.0, 1.0, 0.0]
    )


class TestEvalFields:
    def test_unit_coulomb(self):
        src = PointCharge(q=1.0, position=[0.0, 0.0, 0.0])
        E, B = eval_fields(src, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(E, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(B, [0.0, 0.0, 0.0])

    def test_inverse_square(self):
        src = PointCharge(q=3.0, position=[0.0, 0.0, 0.0])
        E1, _ = eval_fields(src, [1.0, 0.0, 0.0])
        E2, _ = eval_fields(src, [2.0, 0.0, 0.0])
        assert np.linalg.norm(E2) == pytest.approx(np.linalg.norm(E1) / 4.0, rel=1e-12)

    def test_singular_point_rejected(self):
        src = PointCharge(q=1.0, position=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            eval_fields(src, [1.0, 2.0, 3.0])

    def test_uniform_regions_outside_box(self):
        b = UniformBRegion(B=[0, 0, 2.0], box_min=[-1, -1, -1], box_max=[1, 1, 1])
        e = UniformERegion(E=[5.0, 0, 0], box_min=[-1, -1, -1], box_max=[1, 1, 1])
        for src in (b, e):
            E, B = eval_fields(src, [3.0, 0.0, 0.0])
            assert not E.any() and not B.any()

    def test_uniform_regions_inside_box(self):
        b = UniformBRegion(B=[0, 0, 2.0], box_min=[-1, -1, -1], box_max=[1, 1, 1])
        E, B = eval_fields(b, [0.5, 0.5, 0.5])
        np.testing.assert_allclose(B, [0, 0, 2.0])
        assert not E.any()

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            UniformBRegion(B=[0, 0, 1.0], box_min=[0, 0, 0], box_max=[0, 1, 1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "q, y", [(5e-6, 1e200), (1e290, 1e150), (1e300, 1e10), (1.0, 2e100), (-3.0, 1e99)]
    )
    def test_far_point_charge_is_inverse_square_without_overflow(self, q, y):
        # (1e200)^2 overflowed in the squared offset, and 1e300 * 1e10 in q*d,
        # each with a RuntimeWarning.
        E, B = eval_fields(PointCharge(q=q, position=[0.0, y, 0.0]), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(E, [0.0, -q / y / y, 0.0], rtol=1e-15, atol=0.0)
        assert not B.any()


class TestLorentzForce:
    def test_electrostatic_limit(self):
        F = lorentz_force(2.0, [0, 0, 0], [3.0, 0, 0], [0, 1.0, 5.0])
        np.testing.assert_allclose(F, [6.0, 0, 0], atol=1e-15)

    def test_velocity_parallel_to_field(self):
        F = lorentz_force(1.0, [0, 0, 2e5], [0, 0, 0], [0, 0, 7.0])
        np.testing.assert_allclose(F, [0, 0, 0], atol=1e-20)

    def test_hand_evaluated_cross_product(self):
        # v = (v,0,0), B = (0,0,B0): v x B = (0, -v*B0, 0), so F_y = -q*v*B0/c.
        q, v, b0 = 4.8e-10, 1e8, 2.0
        F = lorentz_force(q, [v, 0, 0], [0, 0, 0], [0, 0, b0])
        np.testing.assert_allclose(F, [0.0, -q * v * b0 / CGS.c, 0.0], rtol=1e-12)

    def test_symmetrized_form_equals_classical(self):
        """q[(v x B - B x v)/(2c)] equals q(v x B)/c on 1e4 random inputs."""
        rng = np.random.default_rng(100)
        cases = [(float(rng.standard_normal()), rng.standard_normal(3) * BEAM_SPEED,
                  rng.standard_normal(3)) for _ in range(10_000)]
        forces = [lorentz_force(q, v, [0, 0, 0], B) for q, v, B in cases]
        q, v, B = (np.array(column) for column in zip(*cases))
        classical = q[:, None] * np.cross(v, B) / CGS.c
        np.testing.assert_allclose(forces, classical, rtol=1e-12, atol=1e-30)

    def test_matches_np_cross_form_bit_for_bit(self):
        """The scalar cross products give the bits of q(E + (v x B - B x v)/(2c)) with np.cross."""
        rng = np.random.default_rng(101)
        n = 10_000

        def spread(shape):  # magnitudes from 1e-5 to 1e9, either sign
            return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5.0, 9.0, shape)

        q, v, E, B = spread(n), spread((n, 3)), spread((n, 3)), spread((n, 3))
        forces = np.array([lorentz_force(*case) for case in zip(q.tolist(), v, E, B)])
        expected = q[:, None] * (E + (np.cross(v, B) - np.cross(B, v)) / (2.0 * CGS.c))
        assert forces.tobytes() == expected.tobytes()

    def test_fast_accelerations_match_force_api(self):
        """Specialized integrator closures reproduce lorentz_force(eval_fields)/m."""
        rng = np.random.default_rng(8)
        particle = beam_particle()
        sources = [
            PointCharge(q=5e-6, position=[0.0, 0.2, 0.0]),
            UniformBRegion(B=[0.3, -0.2, 1.0], box_min=[-1, -1, -1], box_max=[1, 1, 1]),
            UniformERegion(E=[1e-5, 2e-5, -3e-6], box_min=[-1, -1, -1], box_max=[1, 1, 1]),
        ]
        for src in sources:
            accel = _acceleration_fn(particle, src)
            for _ in range(200):
                r = rng.uniform(-2, 2, 3)
                v = rng.uniform(-1, 1, 3) * BEAM_SPEED
                fast = np.array(accel(*r, *v))
                E, B = eval_fields(src, r)
                slow = lorentz_force(particle.q, v, E, B) / particle.m
                np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-30)

    @pytest.mark.parametrize(
        "source",
        [
            PointCharge(q=5e-6, position=[0.0, 0.2, 0.0]),
            UniformBRegion(B=[0.3, -0.2, 1.0], box_min=[-1, -1, -1], box_max=[1, 1, 1]),
            UniformERegion(E=[1e-5, 2e-5, -3e-6], box_min=[-1, -1, -1], box_max=[1, 1, 1]),
        ],
        ids=["point-charge", "B-box", "E-box"],
    )
    def test_rk4_step_matches_force_api(self, source):
        """One step of the fused RK4 loop equals an RK4 step over lorentz_force(eval_fields)/m."""
        rng = np.random.default_rng(9)
        particle = beam_particle()

        def accel(r, v):
            return lorentz_force(particle.q, v, *eval_fields(source, r)) / particle.m

        run = _rk4_run(particle, source, None)
        for _ in range(200):
            r = rng.uniform(-2, 2, 3)
            v = rng.uniform(-1, 1, 3) * BEAM_SPEED
            h = float(rng.uniform(0.1, 1.0)) * 1e-11
            a1 = accel(r, v)
            v2 = v + 0.5 * h * a1
            a2 = accel(r + 0.5 * h * v, v2)
            v3 = v + 0.5 * h * a2
            a3 = accel(r + 0.5 * h * v2, v3)
            v4 = v + h * a3
            a4 = accel(r + h * v3, v4)
            slow_r = r + h / 6.0 * (v + 2.0 * (v2 + v3) + v4)
            slow_v = v + h / 6.0 * (a1 + 2.0 * (a2 + a3) + a4)
            # A zero direction ends the loop at its first step and returns that step.
            fast = np.array(run(*r, *v, h, 1, 0.0, 0.0, None, None)[1])
            np.testing.assert_allclose(fast[:3], slow_r, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(fast[3:], slow_v, rtol=1e-12, atol=1e-30)

    def test_overflowing_k_keeps_the_3d_stages(self):
        # q Q / m overflows to -inf: the 3-D stages turn a planar z and vz
        # into NaN (inf * 0), and the planar stages would keep them at 0.0.
        run = _rk4_run(beam_particle(), PointCharge(q=1e300, position=[0.0, 0.2, 0.0]), None)
        step = run(-0.5, 0.0, 0.0, BEAM_SPEED, 0.0, 0.0, 1e-11, 1, 0.0, 0.0, None, None)[1]
        assert math.isnan(step[2]) and math.isnan(step[5])


class TestIntegrateTrajectory:
    def test_free_particle_goes_straight(self):
        src = PointCharge(q=0.0, position=[0.0, 0.3, 0.0])
        result = integrate_trajectory(beam_particle(), src, 0.5, 1e-11)
        assert result.deflection_angle < 1e-12
        assert result.r_final[0] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(result.v_final, beam_particle().v0)

    def test_times_strictly_increasing(self):
        src = PointCharge(q=5e-6, position=[0.0, 0.2, 0.0])
        result = integrate_trajectory(beam_particle(), src, 0.5, 1e-11)
        assert np.all(np.diff(result.t) > 0)

    def test_uniform_transverse_field_matches_closed_form(self):
        """Constant transverse force over length L: angle = qEL/(mv^2) to 1e-6."""
        length = 0.2
        angle_target = 1e-4
        e0 = angle_target * ELECTRON_M * BEAM_SPEED**2 / (abs(ELECTRON_Q) * length)
        # Box extends past the exit plane so the force is constant over the
        # whole integrated path.
        box = UniformERegion(E=[0, e0, 0], box_min=[0, -1, -1], box_max=[1, 1, 1])
        particle = TestParticle(
            q=abs(ELECTRON_Q), m=ELECTRON_M, r0=[0, 0, 0], v0=[BEAM_SPEED, 0, 0]
        )
        result = integrate_trajectory(particle, box, length, 1e-12)
        closed_form = abs(ELECTRON_Q) * e0 * length / (ELECTRON_M * BEAM_SPEED**2)
        assert result.deflection_angle == pytest.approx(closed_form, rel=1e-6)

    def test_halving_dt_is_self_consistent(self):
        length = 0.2
        e0 = 1e-4 * ELECTRON_M * BEAM_SPEED**2 / (abs(ELECTRON_Q) * length)
        box = UniformERegion(E=[0, e0, 0], box_min=[0, -1, -1], box_max=[1, 1, 1])
        particle = TestParticle(
            q=abs(ELECTRON_Q), m=ELECTRON_M, r0=[0, 0, 0], v0=[BEAM_SPEED, 0, 0]
        )
        a1 = integrate_trajectory(particle, box, length, 1e-12).deflection_angle
        a2 = integrate_trajectory(particle, box, length, 5e-13).deflection_angle
        assert abs(a1 - a2) / a1 < 1e-8

    def test_rk4_global_error_scales_as_dt4(self):
        """Halving dt cuts the point-charge flyby error by ~16 (smooth field)."""
        particle = beam_particle()
        geom = beam_geometry()
        src = with_position(PointCharge(q=5e-6, position=[0, 1, 0]), geom.source_position(0.12))
        ref = integrate_trajectory(particle, src, 0.5, 5e-12).deflection_angle
        errors = [
            abs(integrate_trajectory(particle, src, 0.5, dt).deflection_angle - ref)
            for dt in (1.6e-10, 8e-11, 4e-11)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert 8.0 < coarse / fine < 32.0

    def test_magnetic_field_does_no_work(self):
        """Kinetic energy along a magnetic-only trajectory is conserved to 1e-9."""
        box = UniformBRegion(B=[0, 0, 1.0], box_min=[-1, -1, -1], box_max=[1, 1, 1])
        result = integrate_trajectory(beam_particle(), box, 0.5, 1e-12)
        speeds = np.linalg.norm(result.v, axis=1)
        assert np.max(np.abs(speeds - BEAM_SPEED)) / BEAM_SPEED < 1e-9
        assert result.deflection_angle > 1e-3  # the field actually bent the path

    def test_singularity_aborts(self):
        src = PointCharge(q=5e-6, position=[0.0, 1e-4, 0.0])
        with pytest.raises(SingularityError):
            integrate_trajectory(
                beam_particle(), src, 0.5, 1e-11, singularity_cutoff=1e-3
            )

    def test_step_cap_aborts(self):
        src = PointCharge(q=0.0, position=[0.0, 1.0, 0.0])
        with pytest.raises(StepLimitError):
            integrate_trajectory(beam_particle(), src, 0.5, 1e-13, max_steps=100)

    @pytest.mark.parametrize("dt", [0.0, -1e-11, math.nan, math.inf])
    def test_bad_dt_rejected(self, dt):
        # NaN and inf ran one step and ended in "trajectory state not finite".
        src = PointCharge(q=5e-6, position=[0.0, 0.2, 0.0])
        with pytest.raises(ValueError, match="^dt must be finite and positive"):
            integrate_trajectory(beam_particle(), src, 0.5, dt)

    def test_moving_away_rejected(self):
        particle = TestParticle(
            q=ELECTRON_Q, m=ELECTRON_M, r0=[-0.5, 0, 0], v0=[-BEAM_SPEED, 0, 0]
        )
        src = PointCharge(q=0.0, position=[0, 1, 0])
        with pytest.raises(ValueError):
            integrate_trajectory(particle, src, 0.5, 1e-11)

    @pytest.mark.parametrize(
        "position", [[0.0, 0.0, 0.0], [0.0, 3e-7, 0.0], [0.2, 0.0, -1e-7]]
    )
    def test_launch_at_the_charge_cannot_step_over_it(self, position):
        # A step starting 6e-4 cm short of the charge lands beyond it; only
        # the segment test sees the crossing (a start-point test ran 2M steps).
        start = time.perf_counter()
        with pytest.raises(SingularityError):
            integrate_trajectory(
                beam_particle(), PointCharge(q=5e-6, position=position), 0.5, 1e-11
            )
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "source",
        [PointCharge(q=1e300, position=[0.0, 0.2, 0.0]),
         PointCharge(q=5e-6, position=[0.0, 1e300, 0.0]),
         # v turns infinite inside the box; only the state on the plane shows it.
         UniformERegion(E=[0.0, 1e308, 0.0], box_min=[-0.2, -1, -1], box_max=[0.2, 1, 1])],
        ids=["q-overflow", "far-source", "box-overflow"],
    )
    def test_non_finite_state_raises_at_once(self, source):
        # q*Q/m overflows, or (1e300)^2 does: the accelerations turn NaN, and
        # the exit test never fired, so all 2,000,000 steps ran.
        start = time.perf_counter()
        with pytest.raises(FloatingPointError):
            integrate_trajectory(beam_particle(), source, 0.5, 1e-11)
        assert time.perf_counter() - start < 1.0

    def test_samples_match_recorded_digest(self):
        """t, r and v of a fixed Coulomb pass, pinned bit for bit."""
        result = integrate_trajectory(
            beam_particle(), PointCharge(q=5e-6, position=[0.0, 0.2, 0.0]), 0.5, 1e-11
        )
        digest = hashlib.sha256()
        for samples in (result.t, result.r, result.v):
            digest.update(np.ascontiguousarray(samples, dtype="<f8").tobytes())
        assert result.r.shape == result.v.shape == (1001, 3)
        assert digest.hexdigest() == (
            "1ae1255711bfe771e46c8902e4d33fd71cb0b5ab0d24d13a31b93ce10579c9ea"
        )

    @pytest.mark.parametrize(
        "source, n, expected",
        [
            (PointCharge(q=5e-6, position=[0.05, 0.2, 0.1]), 1001,
             "ffbff908fef6baf5f8e2c603e2558493be75c6b4a71dfca8e3c24b3c17c1a36c"),
            (UniformBRegion(B=[0.3, -0.2, 1.0], box_min=[-0.2, -0.1, -0.15],
                            box_max=[0.25, 0.1, 0.1]), 1003,
             "b07066c853d45ba55dd422a943fa2bb5aefff00ff9b4fffcada8920d3e1979ef"),
            (UniformERegion(E=[1e-3, 2e-3, -3e-4], box_min=[-0.2, -0.1, -0.15],
                            box_max=[0.25, 0.1, 0.1]), 1013,
             "cd00651b9133d4540339abb2bae33f55eee74591e011036386ed6d6ebd37f05a"),
        ],
        ids=["coulomb-3d", "oblique-B-box", "oblique-E-box"],
    )
    def test_3d_samples_match_recorded_digest(self, source, n, expected):
        """A non-planar pass, every z term nonzero, pinned bit for bit for each source kind."""
        particle = TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=[-0.5, 0.01, -0.02],
                                v0=[BEAM_SPEED, 2e5, -3e5])
        result = integrate_trajectory(particle, source, 0.5, 1e-11)
        digest = hashlib.sha256()
        for samples in (result.t, result.r, result.v):
            digest.update(np.ascontiguousarray(samples, dtype="<f8").tobytes())
        assert result.r.shape == result.v.shape == (n, 3)
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize(
        "r0, v0, q, position, n, expected",
        [
            ([-0.5, 0.0, 0.01], [BEAM_SPEED, 0.0, 0.0], 5e-6, [0.0, 0.2, 0.0], 1001,
             "08c32d26f25fb9f1e922b29ae9a3b85b4840bed5e8d387fbc69f897e1fe4b7a6"),
            ([-0.5, 0.0, 0.0], [BEAM_SPEED, 0.0, 2e5], 5e-6, [0.0, 0.2, 0.0], 1001,
             "f7208b93d1ed52bb385acffee456d1b6ffa4b48e45c2eab2c6bbc092c351f177"),
            ([-0.5, 0.0, 0.0], [BEAM_SPEED, 0.0, 0.0], 5e-6, [0.0, 0.2, 0.05], 1001,
             "276a009a667fee8fa96d0199a9bbbb0c8d948f7bd76279f6aac4864e9581a679"),
            ([-0.5, 0.0, -0.0], [BEAM_SPEED, 0.0, 0.0], 5e-6, [0.0, 0.2, 0.0], 1001,
             "82d863fa57d265f6b962a909ee9f5691348289c3cc503ea1cba1637f21040f3b"),
            ([-0.5, 0.0, 0.0], [BEAM_SPEED, 0.0, -0.0], 5e-6, [0.0, 0.2, 0.0], 1001,
             "9001830f62730245caf7cfdafd3bed7eb4df6139338d948fa575010c4b9402dd"),
            ([-0.5, 0.0, 0.0], [BEAM_SPEED, 0.0, 0.0], 5e-6, [0.0, 0.2, -0.0], 1001,
             "1ae1255711bfe771e46c8902e4d33fd71cb0b5ab0d24d13a31b93ce10579c9ea"),
            ([-0.5, 0.0, 0.0], [BEAM_SPEED, 0.0, 0.0], -5e-6, [0.0, 0.2, 0.0], 1002,
             "2411415e115fcd556bdf601602620c1fcc283aec6324b17b5adb80a81c9a2bbd"),
        ],
        ids=["z0", "vz0", "source-z", "z0-minus-zero", "vz0-minus-zero",
             "source-z-minus-zero", "repulsive-planar"],
    )
    def test_planar_edge_samples_match_recorded_digest(self, r0, v0, q, position, n, expected):
        """Launches at the edges of the planar stage set, signed zeros included, pinned bit for bit.

        The six launches just off the condition (z, vz and source z all
        +0.0) take the 3-D stages, the repulsive planar pass the planar ones;
        every digest was recorded on the 3-D stages alone.  A -0.0 source z
        gives the bits of the +0.0 pass in test_samples_match_recorded_digest.
        """
        particle = TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=r0, v0=v0)
        result = integrate_trajectory(particle, PointCharge(q=q, position=position), 0.5, 1e-11)
        digest = hashlib.sha256()
        for samples in (result.t, result.r, result.v):
            digest.update(np.ascontiguousarray(samples, dtype="<f8").tobytes())
        assert result.r.shape == result.v.shape == (n, 3)
        assert digest.hexdigest() == expected

    def test_relativistic_particle_rejected(self):
        with pytest.raises(ValueError):
            TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=[0, 0, 0], v0=[0.02 * CGS.c, 0, 0])


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name) -> list that gains one entry per ``ifmsim.fields.<name>`` call."""

    def patch(name):
        calls = []
        original = getattr(ifmsim.fields, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ifmsim.fields, name, counting)
        return calls

    return patch


def hyperbola_deflection(source_charge: float, distance: float) -> float:
    """Deflection of the default beam by a source at (0, distance), from the 2-D conic.

    The electron starts at (-0.5, 0) moving along +x and leaves at x = 0.5.
    About the source the attractive orbit is r = (h^2/mu) / (1 + e . r_hat),
    with eccentricity vector e = (v x h)/mu - r_hat, so the exit angle phi
    solves (h^2/mu - 0.5 e_x) cos(phi) - 0.5 e_y sin(phi) = 0.5.  The velocity
    change along the orbit is (mu/h) z_hat x (r_hat(phi) - r_hat(phi0)).
    """
    mu = -ELECTRON_Q * source_charge / ELECTRON_M
    x0, y0 = -0.5, -distance
    r0 = math.hypot(x0, y0)
    h = -y0 * BEAM_SPEED
    e_x, e_y = -x0 / r0, -BEAM_SPEED * h / mu - y0 / r0
    p, q = h * h / mu - 0.5 * e_x, -0.5 * e_y
    phi0 = math.atan2(y0, x0)
    phi1 = None
    base, spread = math.atan2(q, p), math.acos(0.5 / math.hypot(p, q))
    for phi in (base + spread, base - spread):
        cos_phi, sin_phi = math.cos(phi), math.sin(phi)
        if cos_phi > 0.0 and sin_phi < 0.0 and 1.0 + e_x * cos_phi + e_y * sin_phi > 0.0:
            phi1 = math.atan2(sin_phi, cos_phi)
    mean, half = 0.5 * (phi1 + phi0), 0.5 * (phi1 - phi0)
    dv_x = -2.0 * mu / h * math.cos(mean) * math.sin(half)
    dv_y = -2.0 * mu / h * math.sin(mean) * math.sin(half)
    return math.atan2(abs(dv_y), BEAM_SPEED + dv_x)


def _decimal_sin_cos(x: decimal.Decimal) -> tuple[decimal.Decimal, decimal.Decimal]:
    """Taylor series for sin(x) and cos(x), |x| <= 4, in the current decimal context."""
    sin, cos, term, n = decimal.Decimal(0), decimal.Decimal(0), decimal.Decimal(1), 0
    while True:
        if n % 2:
            sin += term if n % 4 == 1 else -term
        else:
            cos += term if n % 4 == 0 else -term
        n += 1
        term = term * x / n
        if abs(term) <= abs(x) * decimal.Decimal(10) ** -(decimal.getcontext().prec + 5):
            return sin, cos


def _decimal_atan(z: decimal.Decimal) -> decimal.Decimal:
    """atan(z) for z >= 0: halve the angle until z < 0.1, then sum the series."""
    halvings = 0
    while z >= decimal.Decimal("0.1"):
        z = z / (1 + (1 + z * z).sqrt())
        halvings += 1
    total, term, n = decimal.Decimal(0), z, 1
    while abs(term) > abs(z) * decimal.Decimal(10) ** -(decimal.getcontext().prec + 5):
        total += term / n if n % 4 == 1 else -term / n
        term, n = term * z * z, n + 2
    return total * 2**halvings


def decimal_coulomb_deflection(source_charge: float, distance: float) -> decimal.Decimal:
    """The default beam's deflection by a charge at (0, distance, 0), in 40-digit decimal.

    The same Binet orbit as :func:`coulomb_deflection`, u(theta) = p + A cos(theta)
    + B sin(theta), in the plane z = 0, for the exact binary values of the
    float inputs.  The exit angle comes from Newton's method on a cos(theta) +
    b sin(theta) = c, started from the straight line's sweep 2 atan(0.5/d),
    with decimal Taylor series for sin and cos: no closed-form root.
    """
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=40, Emin=-99999, Emax=99999)):
        speed, d = D(BEAM_SPEED), D(distance)
        mu = -D(ELECTRON_Q) * D(source_charge) / D(ELECTRON_M)
        rx, ry = D("-0.5"), -d  # launch point minus charge
        r0 = (rx * rx + ry * ry).sqrt()
        ux, uy = rx / r0, ry / r0
        h = -ry * speed  # (r x v)_z > 0, so t0_hat = z_hat x r0_hat = (-uy, ux)
        tx, ty = -uy, ux
        p = mu / (h * h)
        B = -(rx * speed / r0) / h
        offset = D("0.5")
        a, b, c = (D(-1) / r0 + offset * p), tx - offset * B, offset * p
        theta = 2 * _decimal_atan(D("0.5") / d)
        for _ in range(100):
            sin, cos = _decimal_sin_cos(theta)
            step = (a * cos + b * sin - c) / (b * cos - a * sin)
            theta -= step
            if abs(step) <= abs(theta) * D(10) ** -42:
                break
        sin, cos = _decimal_sin_cos(theta / 2)
        k = -2 * mu / h * sin
        dvx, dvy = k * (cos * ux + sin * tx), k * (cos * uy + sin * ty)
        return _decimal_atan(abs(speed * dvy) / (speed * (speed + dvx)))


def binding_charge(particle: TestParticle, position) -> float:
    """The attracting charge at ``position`` that just binds ``particle``: mu = v0^2 r0 / 2."""
    r0 = math.dist(particle.r0, position)
    return 0.5 * speed(particle.v0) ** 2 * r0 / abs(particle.q / particle.m)


class TestCoulombDeflection:
    def test_matches_inline_hyperbola(self):
        rng = np.random.default_rng(55)
        particle = beam_particle()
        worst = 0.0
        for _ in range(2000):
            q = float(rng.uniform(2.6e-6, 7.8e-6))
            d = float(rng.uniform(0.1, 0.4))
            angle = coulomb_deflection(particle, PointCharge(q=q, position=[0, d, 0]), 0.5)
            worst = max(worst, abs(angle / hyperbola_deflection(q, d) - 1.0))
        assert worst <= 1e-14

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q", [5e-6, -5e-6], ids=["attractive", "repulsive"])
    def test_far_field_matches_40_digit_orbit(self, q):
        """0.1 to 1e300 cm: 1e-13 where the exact angle is a normal float, 0.0 where it underflows.

        The exit angle was base +- half, two angles of order 1 whose difference
        is a sweep of about 1/d: 3.5e-12 relative error at 4e4 cm, and the
        orbit "turned back" from 1e20 cm on.
        """
        particle = beam_particle()
        tiny = 2.2250738585072014e-308  # smallest normal float
        for d in np.geomspace(0.1, 1e300, 64):
            angle = coulomb_deflection(particle, PointCharge(q=q, position=[0, d, 0]), 0.5)
            exact = decimal_coulomb_deflection(q, float(d))
            if float(exact) >= tiny:
                assert abs(decimal.Decimal(angle) / exact - 1) <= decimal.Decimal("1e-13"), d
            elif float(exact) == 0.0:
                assert angle == 0.0, d
            else:
                assert abs(decimal.Decimal(angle) - exact) <= decimal.Decimal(1e-13 * tiny), d

    @pytest.mark.parametrize("d", [4e4, 4e6])
    def test_far_field_matches_rk4(self, d):
        src = PointCharge(q=5e-6, position=[0.0, d, 0.0])
        rk4 = integrate_trajectory(beam_particle(), src, 0.5, 1e-11).deflection_angle
        assert abs(coulomb_deflection(beam_particle(), src, 0.5) / rk4 - 1.0) <= 1e-13

    def test_matches_rk4_on_random_3d_launches(self):
        """Tilted launches in both directions, attractive and repulsive sources."""
        rng = np.random.default_rng(31)
        for k in range(16):
            sense = -1.0 if k % 4 >= 2 else 1.0
            heading = np.array([sense, 0.0, 0.0]) + rng.normal(size=3) * 0.05
            particle = TestParticle(
                q=ELECTRON_Q, m=ELECTRON_M,
                r0=[-0.5 * sense, rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)],
                v0=BEAM_SPEED * rng.uniform(0.8, 1.2) * heading / np.linalg.norm(heading),
            )
            around, rho = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 0.4)
            src = PointCharge(
                q=(1.0 if k % 2 else -1.0) * rng.uniform(2.6e-6, 7.8e-6),
                position=[rng.uniform(-0.3, 0.3), rho * math.cos(around), rho * math.sin(around)],
            )
            exact = coulomb_deflection(particle, src, 0.5 * sense)
            rk4 = integrate_trajectory(particle, src, 0.5 * sense, 2.5e-12).deflection_angle
            assert exact > 1e-4
            assert abs(exact / rk4 - 1.0) <= 1e-10

    def test_zero_charge_is_exactly_straight(self):
        src = PointCharge(q=0.0, position=[0.0, 0.3, 0.0])
        assert coulomb_deflection(beam_particle(), src, 0.5) == 0.0

    @pytest.mark.parametrize(
        "q, position, cutoff",
        [
            (5e-6, [0.0, 1e-4, 0.0], 1e-3),  # near miss
            (5e-6, [0.0, 0.0, 0.0], 1e-6),  # head-on, h = 0
            (5e-6, [-0.5, 0.0, 0.0], 1e-6),  # launched at the charge
        ],
    )
    def test_singularity_aborts(self, q, position, cutoff):
        with pytest.raises(SingularityError):
            coulomb_deflection(
                beam_particle(), PointCharge(q=q, position=position), 0.5,
                singularity_cutoff=cutoff,
            )

    def test_close_approach_past_the_plane_is_harmless(self):
        particle = beam_particle()
        near_miss = PointCharge(q=5e-6, position=[0.8, 1e-4, 0.0])
        angle = coulomb_deflection(particle, near_miss, 0.5, singularity_cutoff=1e-3)
        rk4 = integrate_trajectory(particle, near_miss, 0.5, 1e-11, singularity_cutoff=1e-3)
        assert angle == pytest.approx(rk4.deflection_angle, rel=1e-10)
        head_on = PointCharge(q=5e-6, position=[1.0, 0.0, 0.0])
        assert coulomb_deflection(particle, head_on, 0.5) == 0.0

    @pytest.mark.parametrize(
        "position, q",
        [([0.0, 0.01, 0.0], -1e-3), ([1.0, 0.0, 0.0], -1e-2)],  # glancing, head-on
    )
    def test_orbit_turning_back_raises_step_limit(self, position, q):
        src = PointCharge(q=q, position=position)
        with pytest.raises(StepLimitError):
            coulomb_deflection(beam_particle(), src, 0.5)
        with pytest.raises(StepLimitError):
            integrate_trajectory(beam_particle(), src, 0.5, 1e-11, max_steps=20_000)

    @pytest.mark.parametrize("factor", [1.02, 1.1, 1.3])
    @pytest.mark.parametrize("position", [[0.45, 0.5, 0.0], [0.45, -0.4, 0.2]],
                             ids=["planar", "3d"])
    def test_bound_orbit_crossing_the_plane_matches_rk4(self, position, factor):
        # Past the binding charge the orbit is an ellipse; it crosses the plane
        # before it closes, so the exact angle comes from the ellipse.
        particle = beam_particle()
        src = PointCharge(q=factor * binding_charge(particle, position), position=position)
        exact = coulomb_deflection(particle, src, 0.5)
        rk4 = integrate_trajectory(particle, src, 0.5, 1e-12).deflection_angle
        assert abs(exact / rk4 - 1.0) <= 1e-9

    def test_bound_orbit_short_of_the_plane_raises_step_limit_at_once(self):
        # u never reaches 0 on an ellipse, so no escape angle bounds the search.
        particle = beam_particle()
        position = [0.3, 0.1, 0.0]
        src = PointCharge(q=1.5 * binding_charge(particle, position), position=position)
        start = time.perf_counter()
        with pytest.raises(StepLimitError, match="turns back"):
            coulomb_deflection(particle, src, 0.5)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("q", [-1e-6, 1e-4], ids=["repelled", "slowed"])
    def test_outward_radial_launch_is_undeflected(self, q):
        # Launched straight away from the charge, the particle keeps its line.
        src = PointCharge(q=q, position=[-1.0, 0.0, 0.0])
        assert coulomb_deflection(beam_particle(), src, 0.5) == 0.0
        assert integrate_trajectory(beam_particle(), src, 0.5, 1e-11).deflection_angle == 0.0

    def test_outward_radial_launch_falling_back_is_singular(self):
        src = PointCharge(q=3e-2, position=[-1.0, 0.0, 0.0])
        with pytest.raises(SingularityError):
            coulomb_deflection(beam_particle(), src, 0.5)
        with pytest.raises(SingularityError):
            integrate_trajectory(beam_particle(), src, 0.5, 1e-11)

    @pytest.mark.parametrize(
        "r0, v0",
        [([-0.5, 0, 0], [-BEAM_SPEED, 0, 0]), ([0.6, 0, 0], [BEAM_SPEED, 0, 0])],
    )
    def test_must_start_before_plane_moving_toward_it(self, r0, v0):
        particle = TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=r0, v0=v0)
        with pytest.raises(ValueError, match="exit plane"):
            coulomb_deflection(particle, PointCharge(q=5e-6, position=[0, 0.2, 0]), 0.5)

    @pytest.mark.parametrize("dt", [0.0, -1e-11, math.nan, math.inf])
    def test_nonpositive_dt_rejected(self, dt):
        # deflection_at_distance takes no dt; critical_distance still checks its own.
        src = PointCharge(q=5e-6, position=[0, 1, 0])
        with pytest.raises(ValueError, match="dt"):
            critical_distance(beam_particle(), src, beam_geometry(), 2e-3, (0.10, 0.40), dt)


def random_box_case(kind: str, k: int, inside: bool):
    """A seeded 3-D launch through a field box of random direction.

    ``inside``: the launch point and the exit plane both lie inside a large
    box, so the whole path is in the field and RK4 sees no face.  Otherwise
    the beam crosses a small box's faces, and the plane lies beyond the box
    or, for every third case, cuts it.
    """
    rng = np.random.default_rng([ord(kind), k, inside])
    sense = -1.0 if k % 2 else 1.0
    heading = np.array([sense, 0.0, 0.0]) + rng.normal(size=3) * 0.15
    v0 = BEAM_SPEED * rng.uniform(0.8, 1.2) * heading / np.linalg.norm(heading)
    if inside:
        r0 = [-0.05 * sense, *rng.uniform(-0.02, 0.02, 2)]
        box_min, box_max, plane = [-0.3] * 3, [0.3] * 3, 0.1 * sense
    else:
        r0 = [-0.13 * sense, *rng.uniform(-0.02, 0.02, 2)]
        box_min, box_max = rng.uniform(-0.1, -0.04, 3), rng.uniform(0.04, 0.1, 3)
        plane = (0.13 if k % 3 else 0.02) * sense
    particle = TestParticle(q=ELECTRON_Q * (1 if k % 4 < 2 else -1), m=ELECTRON_M, r0=r0, v0=v0)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    if kind == "B":  # 1..30 G turn the beam by up to about 0.8 rad
        box = UniformBRegion(B=axis * rng.uniform(1.0, 30.0), box_min=box_min, box_max=box_max)
    else:
        box = UniformERegion(E=axis * rng.uniform(1e-4, 3e-3), box_min=box_min, box_max=box_max)
    return particle, box, plane


def speed(v) -> float:
    return math.hypot(*(float(c) for c in v))


class TestBoxDeflection:
    @pytest.mark.parametrize("bz", [1e-3, 1e-2, 0.1, -0.1, 1.0])
    def test_perpendicular_pass_is_the_exact_arc(self, bz):
        """Crossing L = 0.4 cm of uniform Bz turns the beam by asin(L/R), R = m v c / (|q| B)."""
        box = UniformBRegion(B=[0, 0, bz], box_min=[-0.2, -1, -1], box_max=[0.2, 1, 1])
        radius = ELECTRON_M * BEAM_SPEED * CGS.c / (abs(ELECTRON_Q) * abs(bz))
        exact = math.asin(0.4 / radius)
        assert abs(box_deflection(beam_particle(), box, 0.5) / exact - 1.0) <= 1e-12

    def test_parabola_matches_criterion_5(self):
        """Criterion 5's setup: the plane cuts the E box, and the path stops on it."""
        length = 0.2
        e0 = 1e-4 * ELECTRON_M * BEAM_SPEED**2 / (abs(ELECTRON_Q) * length)
        box = UniformERegion(E=[0, e0, 0], box_min=[0, -1, -1], box_max=[1, 1, 1])
        particle = TestParticle(q=abs(ELECTRON_Q), m=ELECTRON_M, r0=[0, 0, 0],
                                v0=[BEAM_SPEED, 0, 0])
        closed = abs(ELECTRON_Q) * e0 * length / (ELECTRON_M * BEAM_SPEED**2)
        exact = box_deflection(particle, box, length)
        assert abs(exact - closed) / closed < 1e-6
        # The transit time L/v is exact, so the turn is atan(a_y T / v).
        assert exact == pytest.approx(math.atan(closed), rel=1e-14)

    @pytest.mark.parametrize("kind", ["B", "E"])
    @pytest.mark.parametrize("k", range(8))
    def test_matches_rk4_where_the_field_is_smooth(self, kind, k):
        particle, box, plane = random_box_case(kind, k, inside=True)
        exact = box_deflection(particle, box, plane)
        rk4 = integrate_trajectory(particle, box, plane, 1e-12)
        assert exact > 1e-5
        assert abs(exact / rk4.deflection_angle - 1.0) <= 1e-10

    @pytest.mark.parametrize("kind", ["B", "E"])
    @pytest.mark.parametrize("k", range(8))
    def test_matches_rk4_across_faces_within_its_edge_error(self, kind, k):
        """At a face RK4 misplaces up to one step dt of field: |dv| error <= 2 |a| dt."""
        particle, box, plane = random_box_case(kind, k, inside=False)
        dt = 1e-13
        _, dv = _box_exit(particle, box, plane)
        rk4 = integrate_trajectory(particle, box, plane, dt)
        v = speed(particle.v0)
        if kind == "B":
            accel = abs(particle.q) * speed(box.B) * v / (particle.m * CGS.c)
        else:
            accel = abs(particle.q) * speed(box.E) / particle.m
        assert speed(dv) > 1e-3 * v
        assert speed(rk4.v_final - particle.v0 - dv) <= 2.0 * accel * dt

    @pytest.mark.parametrize("across_a_face", [False, True], ids=["to-the-plane", "out-a-side"])
    def test_helix_of_several_turns_matches_rk4(self, across_a_face):
        """800 G at 20 degrees to the beam: about 3.5 turns (R = 7e-3 cm) before the
        plane, or before the drift carries the path out through the y face."""
        axis = [math.cos(math.radians(20)), math.sin(math.radians(20)), 0.0]
        top, plane, dt = (0.05, 0.35, 1e-13) if across_a_face else (0.3, 0.1, 2.5e-13)
        box = UniformBRegion(B=[800.0 * c for c in axis], box_min=[-0.3, -0.3, -0.3],
                             box_max=[0.3, top, 0.3])
        particle = TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=[-0.05, 0, 0],
                                v0=[BEAM_SPEED, 0, 0])
        r, dv = _box_exit(particle, box, plane)
        rk4 = integrate_trajectory(particle, box, plane, dt)
        if across_a_face:
            accel = abs(ELECTRON_Q) * 800.0 * BEAM_SPEED / (ELECTRON_M * CGS.c)
            assert r[1] == pytest.approx(top, abs=1e-15)
            assert speed(rk4.v_final - particle.v0 - dv) <= 2.0 * accel * dt
        else:
            assert r[0] == pytest.approx(plane, abs=1e-15)
            exact = box_deflection(particle, box, plane)
            assert abs(exact / rk4.deflection_angle - 1.0) <= 1e-9

    @pytest.mark.parametrize("k", range(8))
    @pytest.mark.parametrize("inside", [True, False])
    def test_magnetic_speed_is_conserved(self, k, inside):
        particle, box, plane = random_box_case("B", k, inside)
        _, dv = _box_exit(particle, box, plane)
        v = speed(particle.v0)
        assert abs(speed(particle.v0 + np.array(dv)) / v - 1.0) <= 1e-15

    @pytest.mark.parametrize("kind", ["B", "E"])
    @pytest.mark.parametrize("k", range(8))
    def test_exit_point_lies_on_its_face(self, kind, k):
        particle, box, plane = random_box_case(kind, k, inside=False)
        r, _ = _box_exit(particle, box, plane)
        faces = [(float(r[i]), float(f))
                 for i in range(3) for f in (box.box_min[i], box.box_max[i])]
        faces.append((float(r[0]), plane))
        inside = [lo <= x <= hi for x, lo, hi in zip(r, box.box_min, box.box_max)]
        assert min(abs(x - f) for x, f in faces) <= 1e-15
        assert sum(inside) >= 2  # on a face, not beyond an edge

    @pytest.mark.parametrize(
        "box_min, box_max",
        [
            ([-0.2, 0.01, -0.2], [0.2, 0.2, 0.2]),  # beside the beam
            ([0.6, -0.1, -0.1], [0.8, 0.1, 0.1]),  # beyond the exit plane
            ([0.5, -0.1, -0.1], [0.8, 0.1, 0.1]),  # touching the exit plane
            ([-0.9, -0.1, -0.1], [-0.6, 0.1, 0.1]),  # behind the launch point
        ],
    )
    def test_a_miss_is_exactly_zero(self, box_min, box_max):
        for box in (UniformBRegion(B=[0.3, -0.2, 1.0], box_min=box_min, box_max=box_max),
                    UniformERegion(E=[1e-3, 2e-3, -3e-4], box_min=box_min, box_max=box_max)):
            assert _box_exit(beam_particle(), box, 0.5) is None
            assert box_deflection(beam_particle(), box, 0.5) == 0.0

    def test_zero_field_is_exactly_straight(self):
        for box in (UniformBRegion(B=[0, 0, 0], box_min=[-1] * 3, box_max=[1] * 3),
                    UniformERegion(E=[0, 0, 0], box_min=[-1] * 3, box_max=[1] * 3)):
            assert box_deflection(beam_particle(), box, 0.5) == 0.0

    def test_trapped_orbit_raises_at_once(self):
        # R = 0.057 cm: the orbit circles inside the box and never reaches the plane.
        box = UniformBRegion(B=[0, 0, 1e4], box_min=[-1, -1, -1], box_max=[1, 1, 1])
        start = time.perf_counter()
        with pytest.raises(StepLimitError, match="inside the field box"):
            box_deflection(beam_particle(), box, 0.5)
        assert time.perf_counter() - start < 0.1
        with pytest.raises(StepLimitError):
            integrate_trajectory(beam_particle(), box, 0.5, 1e-11, max_steps=20_000)

    @pytest.mark.parametrize("bx", [2.2e-162, 1e-100])
    def test_a_drift_of_1e12_turns_counts_as_trapped(self, bx):
        # B almost across v: the drift along the beam is 1e8 * (bx/1e4)^2 cm/s,
        # which underflows to 5e-324 at bx = 2.2e-162 (1/beta overflowed).
        box = UniformBRegion(B=[bx, 0, 1e4], box_min=[-2, -2, -2], box_max=[2, 2, 2])
        with pytest.raises(StepLimitError, match="inside the field box"):
            box_deflection(beam_particle(), box, 0.5)

    @pytest.mark.parametrize(
        "box",
        [
            UniformERegion(E=[1.0, 0, 0], box_min=[-0.2, -1, -1], box_max=[0.2, 1, 1]),
            UniformBRegion(B=[0, 0, 1e4], box_min=[-0.2, -1, -1], box_max=[0.2, 1, 1]),
        ],
        ids=["E-reverses", "B-half-circle"],
    )
    def test_turning_back_in_the_box_raises_step_limit(self, box):
        with pytest.raises(StepLimitError, match="turns back"):
            box_deflection(beam_particle(), box, 0.5)
        with pytest.raises(StepLimitError):
            integrate_trajectory(beam_particle(), box, 0.5, 1e-11, max_steps=20_000)

    def test_overflowing_field_rejected(self):
        box = UniformERegion(E=[0, 1e300, 0], box_min=[-0.2, -1, -1], box_max=[0.2, 1, 1])
        with pytest.raises(ValueError, match="not finite"):
            box_deflection(beam_particle(), box, 0.5)

    def test_overflowing_gyrofrequency_rejected(self):
        particle = TestParticle(q=-1e300, m=1e-300, r0=[-0.5, 0, 0], v0=[BEAM_SPEED, 0, 0])
        box = UniformBRegion(B=[0, 0, 1e300], box_min=[-0.2, -1, -1], box_max=[0.2, 1, 1])
        with pytest.raises(ValueError, match="^the gyrofrequency .* is not finite$"):
            box_deflection(particle, box, 0.5)

    def test_start_on_a_face_moving_out_exits_at_once(self):
        assert _quadratic_exit(0.0, 1.0, 0.0) == 0.0


BAD_LAUNCHES = [([-0.5, 0, 0], [-BEAM_SPEED, 0, 0]), ([0.6, 0, 0], [BEAM_SPEED, 0, 0]),
                ([-0.5, 0, 0], [0, BEAM_SPEED, 0])]


class TestLaunchCheck:
    """One launch rule, raised alike by RK4, the Coulomb orbit and the box path."""

    def test_direction_sign(self):
        assert _check_launch(-0.5, BEAM_SPEED, 0.5) == 1.0
        assert _check_launch(0.5, -BEAM_SPEED, -0.5) == -1.0

    @pytest.mark.parametrize("r0, v0", BAD_LAUNCHES)
    @pytest.mark.parametrize(
        "deflect",
        [
            lambda p: integrate_trajectory(
                p, PointCharge(q=5e-6, position=[0, 0.2, 0]), 0.5, 1e-11),
            lambda p: coulomb_deflection(p, PointCharge(q=5e-6, position=[0, 0.2, 0]), 0.5),
            lambda p: box_deflection(
                p, UniformBRegion(B=[0, 0, 1e-3], box_min=[-1] * 3, box_max=[1] * 3), 0.5),
        ],
        ids=["rk4", "coulomb", "box"],
    )
    def test_bad_launch_rejected(self, deflect, r0, v0):
        particle = TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=r0, v0=v0)
        with pytest.raises(ValueError, match="^particle must start before the exit plane, moving"):
            deflect(particle)


class TestScanRow:
    def test_point_charge_row_is_rk4_at_dt(self, count_calls):
        # The row takes the sample-free exit of the same RK4 loop, not
        # integrate_trajectory, and gets its deflection bit for bit.
        trajectories = count_calls("integrate_trajectory")
        src = PointCharge(q=5e-6, position=[0, 1, 0])
        deflection, magnitude = scan_row(beam_particle(), src, beam_geometry(), 0.2, 1e-11)
        placed = with_position(src, [0.0, 0.2, 0.0])
        assert trajectories == []
        assert deflection == integrate_trajectory(beam_particle(), placed, 0.5, 1e-11).deflection_angle
        assert magnitude == pytest.approx(5e-6 / 0.2**2, rel=1e-12)

    @pytest.mark.parametrize("oblique", [False, True], ids=["planar", "oblique-3d"])
    def test_point_charge_rows_equal_integrate_trajectory(self, oblique):
        """10 charges of each sign at three distances, each row bit for bit RK4's deflection."""
        particle, geometry = beam_particle(), beam_geometry()
        if oblique:
            particle = TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=[-0.5, 0.01, -0.02],
                                    v0=[BEAM_SPEED, 2e5, -3e5])
            geometry = BeamGeometry(exit_plane_x=0.5, source_anchor=[0.02, 0.0, 0.01],
                                    approach_direction=[0.1, 1.0, 0.3])
        charges = np.linspace(1e-6, 8e-6, 10)
        for q in np.concatenate([charges, -charges]).tolist():
            src = PointCharge(q=q, position=[0, 1, 0])
            for distance in (0.1, 0.2, 0.35):
                placed = with_position(src, geometry.source_position(distance))
                rk4 = integrate_trajectory(particle, placed, 0.5, 1e-11).deflection_angle
                assert scan_row(particle, src, geometry, distance, 1e-11)[0] == rk4

    @pytest.mark.parametrize(
        "q, distance, speed",
        [(5e-6, 1e-7, BEAM_SPEED), (5e-6, 1e300, BEAM_SPEED), (-5e-6, 0.01, 1e6)],
        ids=["singular", "far-position", "turned-back"],
    )
    def test_row_raises_what_integrate_trajectory_raises(self, q, distance, speed):
        # A turned-back orbit runs to the step cap, so the row's exit runs at a
        # small cap; the other two end within 1,000 steps in scan_row itself.
        particle = TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=[-0.5, 0, 0], v0=[speed, 0, 0])
        src = PointCharge(q=q, position=[0, 1, 0])
        placed = with_position(src, beam_geometry().source_position(distance))
        runs = [lambda: integrate_trajectory(particle, placed, 0.5, 1e-11, max_steps=20_000),
                lambda: _rk4_exit(particle, placed, 0.5, 1e-11, 20_000, 1e-6)]
        if speed == BEAM_SPEED:
            runs.append(lambda: scan_row(particle, src, beam_geometry(), distance, 1e-11))
        raised = []
        for run in runs:
            with pytest.raises((RuntimeError, ArithmeticError)) as info:
                run()
            raised.append((info.type, str(info.value)))
        assert raised == [raised[0]] * len(runs)

    @pytest.mark.parametrize("distance, inside", [(0.06, True), (0.3, False)])
    def test_box_row_is_the_exact_path(self, count_calls, distance, inside):
        trajectories = count_calls("integrate_trajectory")
        src = UniformBRegion(B=[0, 0, 1e-3], box_min=[-0.2, -0.08, -0.2], box_max=[0.2, 0.08, 0.2])
        deflection, magnitude = scan_row(beam_particle(), src, beam_geometry(), distance, 1e-11)
        placed = with_position(src, [0.0, distance, 0.0])
        assert trajectories == []
        assert deflection == box_deflection(beam_particle(), placed, 0.5)
        assert (deflection > 0.0) == inside
        assert magnitude == (1e-3 if inside else 0.0)

    def test_magnitude_on_an_oblique_launch_line(self):
        # The line r0 + s*v0 passes (1, 1, 0) nearest to the charge at (2, 0, d).
        particle = TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=[-1.0, -1.0, 0.0],
                                v0=[3e7, 3e7, 0.0])
        geometry = BeamGeometry(exit_plane_x=5.0, source_anchor=[2.0, 0.0, 0.0],
                                approach_direction=[0.0, 0.0, 1.0])
        src = PointCharge(q=1e-12, position=[0.0, 0.0, 0.0])
        _, magnitude = scan_row(particle, src, geometry, 0.5, 1e-10)
        assert magnitude == pytest.approx(1e-12 / (2.0 + 0.5**2), rel=1e-14)

    def test_unit_vectors_need_a_normal_finite_norm(self):
        # These passed, and rows ran on (0, 0, 0), (1, 1, 0) and (1, 0.5, 0).
        for direction in ([1.7e308, 1.7e308, 0.0], [5e-324, 5e-324, 0.0]):
            with pytest.raises(ValueError, match="^approach_direction norm"):
                BeamGeometry(exit_plane_x=0.5, source_anchor=[0, 0, 0],
                             approach_direction=direction)
        with pytest.raises(ValueError, match="must be 0 or a normal float"):
            TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=[-0.5, 0, 0], v0=[1e-323, 5e-324, 0])
        tiny = sys.float_info.min
        geometry = BeamGeometry(exit_plane_x=0.5, source_anchor=[0, 0, 0],
                                approach_direction=[tiny, 0.0, 0.0])
        assert geometry.approach_direction == (1.0, 0.0, 0.0)
        assert TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=[0, 0, 0], v0=[0, 0, 0]).v0 == (0.0,) * 3

    @pytest.mark.filterwarnings("error")
    def test_far_source_and_tiny_speed_do_not_overflow(self):
        # The numpy approach point divided by a |v0| that underflowed to 0.
        far = scan_row(beam_particle(), PointCharge(q=5e-6, position=[0, 0, 0]),
                       beam_geometry(), 1e200, 1e-11)
        assert far == (0.0, 0.0)
        slow = TestParticle(q=ELECTRON_Q, m=ELECTRON_M, r0=[-0.5, 0.0, 0.0], v0=[1e-300, 0, 0])
        src = UniformBRegion(B=[0, 0, 1e-3], box_min=[-0.2, -0.08, -0.2], box_max=[0.2, 0.08, 0.2])
        assert scan_row(slow, src, beam_geometry(), 0.3, 1e-11) == (0.0, 0.0)


class TestCriticalDistance:
    def test_resubstitution(self):
        """The distance returned reproduces phi_c when integrated directly."""
        particle = beam_particle()
        geom = beam_geometry()
        src = PointCharge(q=5e-6, position=[0, 1, 0])
        phi_c = 2e-3
        d_c = critical_distance(particle, src, geom, phi_c, (0.10, 0.40), 1e-11)
        angle = deflection_at_distance(particle, src, geom, d_c)
        assert angle == pytest.approx(phi_c, rel=1e-4)

    def test_few_trajectories_per_solve(self, count_calls):
        """5 monotonicity samples plus a handful of Brent steps (bisection took 26)."""
        evaluations = count_calls("deflection_at_distance")
        src = PointCharge(q=5e-6, position=[0, 1, 0])
        critical_distance(beam_particle(), src, beam_geometry(), 2e-3, (0.10, 0.40), 1e-11)
        assert len(evaluations) <= 12

    def test_point_charge_solve_does_not_integrate(self, count_calls):
        trajectories = count_calls("integrate_trajectory")
        src = PointCharge(q=5e-6, position=[0, 1, 0])
        critical_distance(beam_particle(), src, beam_geometry(), 2e-3, (0.10, 0.40), 1e-11)
        assert trajectories == []

    def test_box_source_solve_does_not_integrate(self, count_calls):
        trajectories = count_calls("integrate_trajectory")
        # The beam crosses the whole box while the source is nearer than its
        # 0.08 cm half-width, and misses it beyond: the root is that edge.
        src = UniformBRegion(B=[0, 0, 1e-3], box_min=[-0.2, -0.08, -0.2], box_max=[0.2, 0.08, 0.2])
        rel_tol = 1e-6
        d_c = critical_distance(
            beam_particle(), src, beam_geometry(), 1e-5, (0.02, 0.20), 1e-11, rel_tol=rel_tol
        )
        assert abs(d_c / 0.08 - 1.0) <= rel_tol
        assert trajectories == []

    def test_box_source_solve_costs_less_than_one_trajectory(self, count_calls):
        # It took 32 RK4 trajectories, about 0.25 s.  Now it makes 35 exact
        # box evaluations (5 scan samples, then Brent's steps) and no RK4
        # step.  Counted, not timed, so that load on the host cannot flip it.
        boxes, trajectories = count_calls("box_deflection"), count_calls("integrate_trajectory")
        src = UniformBRegion(B=[0, 0, 1e-3], box_min=[-0.2, -0.08, -0.2], box_max=[0.2, 0.08, 0.2])
        critical_distance(beam_particle(), src, beam_geometry(), 1e-5, (0.02, 0.20), 1e-11)
        assert 0 < len(boxes) <= 40
        assert trajectories == []

    @pytest.mark.parametrize("q", np.linspace(2.6e-6, 7.8e-6, 5))
    def test_within_tolerance_of_tight_reference(self, q):
        particle = beam_particle()
        geom = beam_geometry()
        src = PointCharge(q=float(q), position=[0, 1, 0])
        rel_tol = 1e-6
        d_c = critical_distance(particle, src, geom, 2e-3, (0.10, 0.40), 1e-11, rel_tol=rel_tol)
        ref = critical_distance(particle, src, geom, 2e-3, (0.10, 0.40), 1e-11, rel_tol=1e-12)
        assert abs(d_c - ref) <= 0.5 * rel_tol * ref

    @pytest.mark.parametrize(
        "q, rk4_solve",
        [
            (2.6e-6, 0.1324571052090216),
            (3.9e-6, 0.19190732174666797),
            (5.2e-6, 0.24594835068356474),
            (6.5e-6, 0.2950772664156576),
            (7.8e-6, 0.3400042765249899),
        ],
    )
    def test_matches_recorded_rk4_solve(self, q, rk4_solve):
        """Distances solved on RK4 trajectories at dt=1e-11, rel_tol=1e-6."""
        src = PointCharge(q=q, position=[0, 1, 0])
        d_c = critical_distance(beam_particle(), src, beam_geometry(), 2e-3, (0.10, 0.40), 1e-11)
        assert abs(d_c / rk4_solve - 1.0) <= 1e-6

    def test_threshold_at_a_sample_returns_that_sample(self, count_calls):
        particle = beam_particle()
        geom = beam_geometry()
        src = PointCharge(q=5e-6, position=[0, 1, 0])
        sample = float(np.linspace(0.10, 0.40, 5)[1])
        phi_c = deflection_at_distance(particle, src, geom, sample)
        evaluations = count_calls("deflection_at_distance")
        assert critical_distance(particle, src, geom, phi_c, (0.10, 0.40), 1e-11) == sample
        assert len(evaluations) == 5

    def test_deflection_monotone_in_distance_by_direct_scan(self):
        particle = beam_particle()
        geom = beam_geometry()
        src = PointCharge(q=5e-6, position=[0, 1, 0])
        angles = [
            deflection_at_distance(particle, src, geom, d)
            for d in np.linspace(0.1, 0.4, 7)
        ]
        assert all(a > b for a, b in zip(angles, angles[1:]))

    def test_doubling_charge_pushes_critical_distance_out(self):
        particle = beam_particle()
        geom = beam_geometry()
        phi_c = 2e-3
        d1 = critical_distance(
            particle, PointCharge(q=5e-6, position=[0, 1, 0]), geom, phi_c, (0.10, 0.45), 1e-11
        )
        d2 = critical_distance(
            particle, PointCharge(q=1e-5, position=[0, 1, 0]), geom, phi_c, (0.10, 0.45), 1e-11
        )
        assert d2 > d1

    def test_vanishing_threshold_drives_distance_to_far_edge(self):
        particle = beam_particle()
        geom = beam_geometry()
        src = PointCharge(q=5e-6, position=[0, 1, 0])
        far = 0.40
        angle_far = deflection_at_distance(particle, src, geom, far)
        d_c = critical_distance(
            particle, src, geom, angle_far * 1.0001, (0.10, far), 1e-11
        )
        assert d_c > 0.95 * far

    @pytest.mark.parametrize("dt", [0.0, math.nan, math.inf])
    def test_bad_dt_rejected(self, dt):
        # A NaN dt returned a distance.
        src = PointCharge(q=5e-6, position=[0, 1, 0])
        with pytest.raises(ValueError, match="^dt must be finite and positive"):
            critical_distance(beam_particle(), src, beam_geometry(), 2e-3, (0.10, 0.40), dt)

    def test_reversed_bracket_rejected(self):
        src = PointCharge(q=5e-6, position=[0, 1, 0])
        with pytest.raises(ValueError, match="^bracket must satisfy 0 < near < far"):
            critical_distance(beam_particle(), src, beam_geometry(), 2e-3, (0.40, 0.10), 1e-11)

    def test_brent_bisects_where_interpolation_stalls(self):
        # A triple root is flat: Brent refuses the interpolated steps and bisects.
        def f(x):
            return (0.3 - x) ** 3

        assert abs(_brent(f, 0.1, f(0.1), 0.4, f(0.4), 1e-12) - 0.3) <= 0.5e-12 * 0.3

    def test_bracket_must_straddle(self):
        particle = beam_particle()
        geom = beam_geometry()
        src = PointCharge(q=5e-6, position=[0, 1, 0])
        with pytest.raises(BracketError):
            critical_distance(particle, src, geom, 1.0, (0.10, 0.40), 1e-11)

    def test_non_monotone_profile_rejected(self):
        # A rigid field box carried across the beam line: deflection rises and
        # then falls again as the box moves past, violating monotonicity.
        particle = beam_particle()
        geom = BeamGeometry(
            exit_plane_x=0.5, source_anchor=[0.0, -0.2, 0.0], approach_direction=[0, 1, 0]
        )
        src = UniformBRegion(
            B=[0, 0, 5e-3], box_min=[-0.2, -0.05, -0.2], box_max=[0.2, 0.05, 0.2]
        )
        with pytest.raises(ProtocolError):
            critical_distance(particle, src, geom, 1e-7, (0.10, 0.30), 1e-11)


class TestGravity:
    def test_zero_mass(self):
        assert light_deflection(0.0, 1.0) == 0.0

    def test_nonpositive_impact_parameter_rejected(self):
        with pytest.raises(ValueError):
            light_deflection(1.0, 0.0)
        with pytest.raises(ValueError):
            light_deflection(1.0, -2.0)

    def test_solar_grazing(self):
        """Textbook solar constants give ~8.5e-6 rad within 1%."""
        m_sun, r_sun = 1.989e33, 6.96e10
        angle = light_deflection(m_sun, r_sun)
        inline = 4.0 * 6.67e-8 * m_sun / (r_sun * (3.00e10) ** 2)
        assert angle == pytest.approx(inline, rel=1e-12)
        assert angle == pytest.approx(8.5e-6, rel=0.01)

    def test_linearity_in_mass_and_inverse_impact(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            m = float(rng.uniform(1e20, 1e35))
            b = float(rng.uniform(1e5, 1e12))
            base = light_deflection(m, b)
            assert light_deflection(2 * m, b) == pytest.approx(2 * base, rel=1e-12)
            assert light_deflection(m, 2 * b) == pytest.approx(base / 2, rel=1e-12)

    def test_sphere_radius_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            delta = float(10 ** rng.uniform(-12, -6))
            rho = float(rng.uniform(0.5, 25.0))
            radius = sphere_radius_for_deflection(delta, rho)
            mass = 4.0 / 3.0 * math.pi * radius**3 * rho
            assert light_deflection(mass, radius) == pytest.approx(delta, rel=1e-12)

    def test_sphere_radius_scaling(self):
        r1 = sphere_radius_for_deflection(1e-9, 22.6)
        r4 = sphere_radius_for_deflection(4e-9, 22.6)
        assert r4 == pytest.approx(2 * r1, rel=1e-12)

    def test_dense_sphere_case_pins_reference_discrepancy(self):
        """Computed radius for 1e-9 rad at density 22.6 is ~1888 km, about one
        tenth of the commonly quoted 18,900 km figure for this setup."""
        radius_cm = sphere_radius_for_deflection(1e-9, 22.6)
        oracle = math.sqrt(3 * 1e-9 * (3.00e10) ** 2 / (16 * math.pi * 6.67e-8 * 22.6))
        assert radius_cm == pytest.approx(oracle, rel=1e-12)
        ratio = (radius_cm / 1e5) / 18_900.0
        assert 0.09 < ratio < 0.11

    def test_underflowing_denominator_is_rejected(self):
        # 16 pi G rho underflows to 0 at a subnormal density; dividing raised
        # ZeroDivisionError, and an infinite radius was returned after that.
        with pytest.raises(ValueError, match=r"^the sphere radius .* is inf, not a finite float$"):
            sphere_radius_for_deflection(1e-9, 5e-324)

    def test_nonpositive_sphere_inputs_rejected(self):
        with pytest.raises(ValueError):
            sphere_radius_for_deflection(0.0, 22.6)
        with pytest.raises(ValueError):
            sphere_radius_for_deflection(1e-9, -1.0)


NONFINITE_INPUTS = {
    # A NaN q or m made coulomb_deflection raise StepLimitError and a scan row
    # FloatingPointError; an infinite m read every deflection as 0.0.
    "TestParticle-q": (lambda v: beam_particle(q=v), "charge must be finite"),
    "TestParticle-m": (
        lambda v: TestParticle(q=ELECTRON_Q, m=v, r0=[-0.5, 0, 0], v0=[BEAM_SPEED, 0, 0]),
        "mass must be finite and positive",
    ),
    # These two returned a number for a NaN or +inf input.
    "light_deflection-M": (lambda v: light_deflection(v, 1.0), "mass must be finite and nonnegative"),
    "light_deflection-b": (lambda v: light_deflection(1.0, v),
                           "impact parameter must be finite and positive"),
    "sphere_radius_for_deflection-delta_phi": (lambda v: sphere_radius_for_deflection(v, 22.6),
                                               "target deflection must be finite and positive"),
    "sphere_radius_for_deflection-density": (lambda v: sphere_radius_for_deflection(1e-9, v),
                                             "density must be finite and positive"),
    "PointCharge-q": (lambda v: PointCharge(q=v, position=[0.0, 0.2, 0.0]),
                      "charge must be finite"),
    "PointCharge-position": (lambda v: PointCharge(q=1e-6, position=[v, 0.0, 0.0]),
                             "position must be finite"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("argument", list(NONFINITE_INPUTS))
def test_nonfinite_input_rejected(argument, value):
    build, message = NONFINITE_INPUTS[argument]
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(value)


def vector_holders():
    """Each domain type with 3-vector fields, built from lists and a numpy array."""
    box = {"box_min": [-1.0, -1.0, -1.0], "box_max": np.array([1.0, 1.0, 1.0])}
    return {
        "TestParticle": (beam_particle(), ("r0", "v0")),
        "PointCharge": (PointCharge(q=1.0, position=np.array([0.0, 1.0, 0.0])), ("position",)),
        "UniformBRegion": (UniformBRegion(B=[0.0, 0.0, 1.0], **box), ("B", "box_min", "box_max")),
        "UniformERegion": (UniformERegion(E=[1.0, 0.0, 0.0], **box), ("E", "box_min", "box_max")),
        "BeamGeometry": (beam_geometry(), ("source_anchor", "approach_direction")),
    }


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_fields(object(), [0.0, 0.0, 0.0]),
        lambda: integrate_trajectory(beam_particle(), object(), 0.5, 1e-11),
        lambda: with_position(object(), [0.0, 0.2, 0.0]),
        # _box_exit read box.box_min first and raised AttributeError.
        lambda: box_deflection(beam_particle(), PointCharge(q=1e-6, position=[0, 0.2, 0]), 0.5),
    ],
    ids=["eval_fields", "integrate_trajectory", "with_position", "box_deflection"],
)
def test_unsupported_source_rejected(call):
    with pytest.raises(TypeError, match="^unsupported field (source|box) "):
        call()


@pytest.mark.parametrize("kind", list(vector_holders()))
def test_vector_fields_are_immutable(kind):
    # With arrays, p.v0[0] = 1e20 got past the nonrelativistic bound, and a
    # write into approach_direction left it no longer a unit vector.
    holder, names = vector_holders()[kind]
    for name in names:
        vector = getattr(holder, name)
        assert type(vector) is tuple and all(type(c) is float for c in vector)
        with pytest.raises(TypeError):
            vector[0] = 1e20
        assert getattr(holder, name) is vector


@pytest.mark.parametrize("value", ["123", [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], 5.0, None,
                                   [[1.0, 2.0, 3.0]], np.zeros((1, 3))])
def test_vector_must_be_three_numbers(value):
    with pytest.raises(ValueError, match="^position must be a 3-vector"):
        PointCharge(q=1.0, position=value)
