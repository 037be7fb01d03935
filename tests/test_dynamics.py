"""Rigid-body dynamics: vector field, integrator, and rotation utilities."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import quadsafe
from quadsafe.dynamics import (
    NonFiniteState,
    QuadParams,
    QuadState,
    R_of_euler,
    advance,
    deriv,
    flat_of,
    project_flat,
    roll_pitch_of_R,
    yaw_of_R,
)

from conftest import check_refusals


def euler(x):
    """Roll, pitch and yaw of the flat state x, as sim.run records them."""
    (phi,), (theta,) = (col.tolist() for col in roll_pitch_of_R(np.array([x[3:12]])))
    return phi, theta, yaw_of_R(x)


def project(R):
    """R projected onto SO(3) by project_flat, as a 3x3 array."""
    return np.array(project_flat([0.0] * 3 + R.ravel().tolist() + [0.0] * 6)[3:12]).reshape(3, 3)


def random_state(rng, angle_scale=0.5):
    return QuadState(
        r=rng.normal(size=3),
        R=R_of_euler(*rng.uniform(-angle_scale, angle_scale, size=3)),
        v=rng.normal(size=3),
        omega=rng.normal(size=3),
    )


class TestParams:
    def test_defaults_match_physical_platform(self):
        p = QuadParams()
        assert p.g == 9.81 and p.m == 0.45
        assert p.Ix == p.Iy == 0.091 and p.Iz == 0.182
        assert p.f_max == 36.0 and p.tau_max == (20.0, 20.0)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            QuadParams(m=0.0)

    def test_rejects_thrust_below_hover(self):
        with pytest.raises(ValueError):
            QuadParams(f_max=0.45 * 9.81 * 0.5)

    def test_every_field_refuses_non_finite_values_and_wrong_sizes(self):
        # The actuator bounds may be infinite (no bound), never NaN.
        for name in ("g", "m", "Ix", "Iy", "Iz", "f_max", "tau_max"):
            check_refusals(QuadParams, name, infinite=name in ("f_max", "tau_max"))
        QuadParams(f_max=math.inf, tau_max=(math.inf, math.inf))


class TestStateValidation:
    def test_default_state_is_valid(self):
        QuadState().validate()

    def test_rejects_non_rotation(self):
        s = QuadState(R=np.eye(3) * 1.1)
        with pytest.raises(ValueError):
            s.validate()

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            QuadState(R=R).validate()


class TestVectorField:
    """The flat vector field; layout [r, R row-major, v, omega]."""

    @staticmethod
    def field(state, f, tau, p):
        return np.array(deriv(flat_of(state), f, list(tau), p))

    def test_free_fall_accelerates_along_world_z(self):
        # Sign convention: vdot = g z_w - R z_w f/m, so zero thrust gives +g.
        p = QuadParams()
        d = self.field(QuadState(), 0.0, np.zeros(3), p)
        assert np.allclose(d[12:15], [0.0, 0.0, p.g])

    def test_hover_thrust_cancels_gravity(self):
        p = QuadParams()
        d = self.field(QuadState(), p.m * p.g, np.zeros(3), p)
        assert np.allclose(d[12:15], 0.0, atol=1e-12)
        assert np.allclose(d[3:12], 0.0)
        assert np.allclose(d[15:], 0.0)

    def test_tilt_produces_lateral_acceleration(self):
        p = QuadParams()
        theta = 0.3
        s = QuadState(R=R_of_euler(0.0, theta, 0.0))
        d = self.field(s, p.m * p.g, np.zeros(3), p)
        # Pitch forward: thrust axis tips, x picks up -R13 f/m.
        assert d[12] == pytest.approx(-np.sin(theta) * p.g, rel=1e-12)

    def test_torque_maps_through_inertia(self):
        p = QuadParams()
        tau = np.array([0.5, -0.3, 0.2])
        d = self.field(QuadState(), 0.0, tau, p)
        assert np.allclose(d[15:], tau / np.array([p.Ix, p.Iy, p.Iz]))

    def test_gyroscopic_coupling(self):
        p = QuadParams()
        w = np.array([1.0, 2.0, 3.0])
        d = self.field(QuadState(omega=w), 0.0, np.zeros(3), p)
        Iw = np.array([p.Ix, p.Iy, p.Iz]) * w
        expected = -np.cross(w, Iw) / np.array([p.Ix, p.Iy, p.Iz])
        assert np.allclose(d[15:], expected)

    def test_rotation_block_is_R_times_skew_omega(self):
        # Rdot = R [w]x, where [w]x x = w x x: column j of [w]x is w x e_j.
        p = QuadParams()
        rng = np.random.default_rng(7)
        for _ in range(10):
            s = random_state(rng)
            w_hat = np.cross(s.omega, np.eye(3)).T
            assert np.allclose(w_hat, -w_hat.T)
            d = self.field(s, 4.0, rng.normal(size=3), p)
            assert np.allclose(d[3:12].reshape(3, 3), s.R @ w_hat, atol=1e-12)
            assert np.array_equal(d[:3], s.v)


class TestStep:
    """advance: one RK4 step of the flat state, R re-projected."""

    def test_rotation_stays_orthonormal(self):
        p = QuadParams()
        x = flat_of(QuadState(omega=np.array([2.0, -1.5, 1.0])))
        for _ in range(500):
            x = advance(x, p.m * p.g, [0.3, -0.2, 0.1], p, 1e-3)
        R = np.array(x[3:12]).reshape(3, 3)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)

    def test_fourth_order_convergence(self):
        # Halving dt should shrink the one-interval error by about 2^4.
        p = QuadParams()
        rng = np.random.default_rng(3)
        x0 = flat_of(random_state(rng))
        tau = [0.4, -0.6, 0.2]

        def integrate(n, dt):
            x = x0
            for _ in range(n):
                x = advance(x, 5.0, tau, p, dt)
            return np.array(x)

        ref = integrate(256, 0.04 / 256)
        errs = []
        for n in (2, 4):
            x = integrate(n, 0.04 / n)
            errs.append(
                np.linalg.norm(x[12:15] - ref[12:15]) + np.linalg.norm(x[:3] - ref[:3])
                + np.linalg.norm(x[15:] - ref[15:])
            )
        assert errs[1] < errs[0] / 10.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            advance(flat_of(QuadState()), 1.0, [0.0, 0.0, 0.0], QuadParams(), 0.0)

    def test_nonfinite_input_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteState):
            advance(flat_of(QuadState()), float("inf"), [0.0, 0.0, 0.0], QuadParams(), 1e-3)

    def test_bitwise_equal_to_array_rk4(self):
        # The float kernel keeps numpy's operation order, so trajectories
        # match the array formulation of the same RK4 step exactly.
        p = QuadParams()
        rng = np.random.default_rng(17)

        def vector_field(x, f, tau):
            R = x[3:12].reshape(3, 3)
            pw, qw, rw = x[15], x[16], x[17]
            out = np.empty(18)
            out[:3] = x[12:15]
            out[3:12:3] = R[:, 1] * rw - R[:, 2] * qw
            out[4:12:3] = R[:, 2] * pw - R[:, 0] * rw
            out[5:12:3] = R[:, 0] * qw - R[:, 1] * pw
            fm = f / p.m
            out[12:15] = -R[:, 2] * fm
            out[14] = p.g - R[2, 2] * fm
            out[15] = (tau[0] - (p.Iz - p.Iy) * qw * rw) / p.Ix
            out[16] = (tau[1] - (p.Ix - p.Iz) * pw * rw) / p.Iy
            out[17] = (tau[2] - (p.Iy - p.Ix) * pw * qw) / p.Iz
            return out

        for _ in range(50):
            s = random_state(rng)
            f, tau = float(rng.uniform(0.0, 36.0)), rng.normal(size=3)
            dt = float(rng.uniform(1e-4, 1e-2))
            x0 = np.concatenate([s.r, s.R.ravel(), s.v, s.omega])
            k1 = vector_field(x0, f, tau)
            k2 = vector_field(x0 + 0.5 * dt * k1, f, tau)
            k3 = vector_field(x0 + 0.5 * dt * k2, f, tau)
            k4 = vector_field(x0 + dt * k3, f, tau)
            x1 = x0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            new = np.array(advance(flat_of(s), f, tau.tolist(), p, dt))
            assert np.array_equal(new[:3], x1[:3]) and np.array_equal(new[12:15], x1[12:15])
            assert np.array_equal(new[15:], x1[15:])
            assert np.array_equal(new, project_flat(x1.tolist()))


class TestRotationUtilities:
    def test_project_returns_rotation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            R = R_of_euler(*rng.uniform(-1, 1, size=3)) + 1e-3 * rng.normal(size=(3, 3))
            Q = project(R)
            assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)

    def test_project_fixes_rotations(self):
        R = R_of_euler(0.3, -0.4, 1.2)
        assert np.allclose(project(R), R, atol=1e-12)

    def test_euler_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi, theta, psi = rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4), rng.uniform(-3.1, 3.1)
            R = R_of_euler(phi, theta, psi)
            phi2, theta2, psi2 = euler(flat_of(QuadState(R=R)))
            assert np.allclose(R_of_euler(phi2, theta2, psi2), R, atol=1e-9)

    def test_euler_bitwise_equal_to_array_form(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            R = R_of_euler(*rng.uniform(-1.5, 1.5, size=3))
            theta = float(-np.arcsin(np.clip(R[2, 0], -1.0, 1.0)))
            expected = (float(np.arctan2(R[2, 1], R[2, 2])), theta,
                        float(np.arctan2(R[1, 0], R[0, 0])))
            assert euler(flat_of(QuadState(R=R))) == expected

    def test_euler_gimbal_branch(self):
        R = R_of_euler(0.0, np.pi / 2, 0.0)
        phi, theta, psi = euler(flat_of(QuadState(R=R)))
        assert theta == pytest.approx(np.pi / 2, abs=1e-6)
        assert np.isfinite(phi) and np.isfinite(psi)


# Steps one state with a non-finite entry in a fresh interpreter and prints
# the name of what it raised. LAPACK may not return on an infinite entry, so
# the test runs it under a timeout: a lost check fails instead of hanging
# the suite.
_NON_FINITE_CHILD = """
import sys
import numpy as np
from quadsafe.dynamics import QuadParams, advance
from quadsafe.oracle import flow

value, form = float(sys.argv[1]), sys.argv[2]
try:
    if form == "single":  # advance refuses the stepped state before the SVD
        x = [0.0] * 18
        x[3] = x[7] = x[11] = 1.0
        x[8] = value
        advance(x, 4.0, [0.0, 0.0, 0.0], QuadParams(), 1e-3)
    else:  # an oracle flow whose stencil end state is not finite
        x = np.zeros((4, 18))
        x[:, [3, 7, 11]] = 1.0
        x[2, 15] = value
        with np.errstate(all="ignore"):  # RK4 on columns forms inf - inf
            flow(x, np.full(4, 4.0), np.zeros((4, 3)), QuadParams(), np.full(4, 1e-4))
except Exception as exc:
    print(type(exc).__name__)
else:
    print("returned")
"""


@pytest.mark.parametrize("form", ["single", "flow"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_projection_raises_before_the_svd(value, form):
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadsafe.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _NON_FINITE_CHILD, value, form],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "NonFiniteState"
