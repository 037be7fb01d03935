"""Cascaded controller loops: acceleration, thrust, attitude, body rates."""

import struct

import numpy as np
import pytest

from quadsafe.controller import (
    R33_MIN,
    SIN_THETA_MAX,
    THRUST_FLOOR_FRAC,
    AttitudeSingular,
    ControllerGains,
    Reference,
    ThrustTooSmall,
    _wrap_angle,
    attitude_loop,
    body_rate_loop,
    position_loop,
    thrust_from_accel,
)
from quadsafe.dynamics import QuadParams, QuadState, R_of_euler, flat_of, yaw_of_R

from conftest import check_refusals

HOVER = flat_of(QuadState())


# Verbatim copies of the array forms the float loops replaced (reference
# fields, commands and returns as numpy arrays); the float loops must
# return their values bit for bit.
def old_position_loop(x, ref, gains):
    return np.array([
        a + kp * (rd - r) + kd * (vd - v)
        for a, kp, rd, r, kd, vd, v in zip(
            ref.a_d.tolist(), gains.Kp, ref.r_d.tolist(), x[:3],
            gains.Kd, ref.v_d.tolist(), x[12:15],
        )
    ])


def old_attitude_loop(x, r_ddot_cmd, f, psi, psi_d, gains, params):
    R11, R12, R13, R21, R22, R23, _, _, R33 = x[3:12]
    if R33 < R33_MIN:
        raise AttitudeSingular(f"R33 = {R33:.3f} below {R33_MIN}")
    f_min = THRUST_FLOOR_FRAC * params.m * params.g
    if f < f_min:
        raise ThrustTooSmall(f"f = {f:.3f} N below attitude-inversion floor")
    R13_cmd = min(max(-float(r_ddot_cmd[0]) * params.m / f, -SIN_THETA_MAX), SIN_THETA_MAX)
    R23_cmd = min(max(-float(r_ddot_cmd[1]) * params.m / f, -SIN_THETA_MAX), SIN_THETA_MAX)
    Rdot13_cmd = gains.k_R * (R13_cmd - R13)
    Rdot23_cmd = gains.k_R * (R23_cmd - R23)
    W = np.array([[R21, -R11], [R22, -R12]])
    p_cmd, q_cmd = W.dot(np.array([Rdot13_cmd, Rdot23_cmd])).tolist()
    err = _wrap_angle(psi_d - psi)
    r_cmd = gains.k_psi * err
    return np.array([p_cmd / R33, q_cmd / R33, r_cmd])


def old_body_rate_loop(x, omega_cmd, gains, params):
    p, q, r = x[15:18]
    kp, kq, kr = gains.k_omega
    p_cmd, q_cmd, r_cmd = np.asarray(omega_cmd, float).tolist()
    Ix, Iy, Iz = params.Ix, params.Iy, params.Iz
    bound_x, bound_y = params.tau_max
    tau_x = Ix * (kp * (p_cmd - p)) + (Iz - Iy) * q * r
    tau_y = Iy * (kq * (q_cmd - q)) + (Ix - Iz) * p * r
    tau_z = Iz * (kr * (r_cmd - r)) + (Iy - Ix) * p * q
    return np.array([
        min(max(tau_x, -bound_x), bound_x),
        min(max(tau_y, -bound_y), bound_y),
        min(max(tau_z, -bound_y), bound_y),
    ])


def packed(values):
    return struct.pack(f"<{len(values)}d", *values)


def hover_ref():
    return Reference(r_d=np.zeros(3), v_d=np.zeros(3), a_d=np.zeros(3), psi_d=0.0)


class TestGains:
    def test_defaults(self):
        g = ControllerGains()
        assert np.allclose(g.Kp, [8.0, 8.0, 12.0])
        assert np.allclose(g.Kd, [5.0, 5.0, 7.0])

    def test_zero_kp_allowed_for_velocity_tracking(self):
        ControllerGains(Kp=np.array([0.0, 0.0, 12.0]))

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            ControllerGains(Kp=np.array([-1.0, 8.0, 12.0]))
        with pytest.raises(ValueError):
            ControllerGains(k_R=0.0)

    def test_every_field_refuses_non_finite_values_and_wrong_sizes(self):
        for name in ("Kp", "Kd", "k_R", "k_psi", "k_omega"):
            check_refusals(ControllerGains, name)


class TestPositionLoop:
    def test_zero_error_gives_feedforward(self):
        ref = Reference(r_d=np.zeros(3), v_d=np.zeros(3),
                        a_d=np.array([0.1, 0.2, 0.3]), psi_d=0.0)
        out = position_loop(HOVER, ref, ControllerGains())
        assert np.allclose(out, ref.a_d)

    def test_error_sign_is_stabilizing(self):
        # Quad below the reference: commanded acceleration points up the error.
        g = ControllerGains()
        ref = Reference(r_d=np.array([1.0, 0.0, 0.0]), v_d=np.zeros(3),
                        a_d=np.zeros(3), psi_d=0.0)
        out = position_loop(HOVER, ref, g)
        assert out[0] == pytest.approx(g.Kp[0] * 1.0)


class TestThrustFromAccel:
    def test_hover(self):
        p = QuadParams()
        assert thrust_from_accel(0.0, 1.0, p) == pytest.approx(p.m * p.g)

    def test_paper_sign_upward_command_reduces_thrust(self):
        # vdot_z = g - R33 f/m: requesting zddot > 0 (downward in this frame
        # is positive z? no: +zddot means accelerate along +z_w, which gravity
        # already provides), so thrust decreases.
        p = QuadParams()
        assert thrust_from_accel(2.0, 1.0, p) < p.m * p.g

    def test_clamped_to_box(self):
        p = QuadParams()
        assert thrust_from_accel(-1e3, 1.0, p) == p.f_max
        assert thrust_from_accel(1e3, 1.0, p) == 0.0

    def test_tilt_compensation(self):
        p = QuadParams()
        assert thrust_from_accel(0.0, 0.5, p) == pytest.approx(2 * p.m * p.g)

    def test_singular_attitude_raises(self):
        with pytest.raises(AttitudeSingular):
            thrust_from_accel(0.0, 0.1, QuadParams())


class TestAttitudeLoop:
    def test_hover_equilibrium_commands_zero_rates(self):
        p = QuadParams()
        w = attitude_loop(HOVER, np.zeros(3), p.m * p.g, 0.0, 0.0,
                          ControllerGains(), p)
        assert np.allclose(w, 0.0, atol=1e-12)

    def test_lateral_command_tilts_correct_way(self):
        # Want xddot > 0 -> need R13 < 0 (x picks up -R13 f/m), and
        # Rdot13 = q R11 - p R12 = q at identity, so pitch rate q < 0.
        p = QuadParams()
        w = attitude_loop(HOVER, np.array([2.0, 0.0, 0.0]), p.m * p.g,
                          0.0, 0.0, ControllerGains(), p)
        assert w[1] < 0.0
        assert abs(w[0]) < 1e-12

    def test_yaw_error_commands_yaw_rate(self):
        p = QuadParams()
        g = ControllerGains()
        w = attitude_loop(HOVER, np.zeros(3), p.m * p.g, 0.0, 0.5, g, p)
        assert w[2] == pytest.approx(g.k_psi * 0.5)

    def test_tilt_command_saturates(self):
        # Huge lateral demand must clamp the commanded sin(tilt) at 0.9.
        p = QuadParams()
        g = ControllerGains()
        w = attitude_loop(HOVER, np.array([1e4, 0.0, 0.0]), p.m * p.g, 0.0, 0.0, g, p)
        w_bigger = attitude_loop(HOVER, np.array([1e6, 0.0, 0.0]),
                                 p.m * p.g, 0.0, 0.0, g, p)
        assert np.allclose(w, w_bigger)

    def test_thrust_floor_raises(self):
        p = QuadParams()
        with pytest.raises(ThrustTooSmall):
            attitude_loop(HOVER, np.zeros(3), 0.01, 0.0, 0.0, ControllerGains(), p)

    def test_steep_tilt_raises(self):
        p = QuadParams()
        x = flat_of(QuadState(R=R_of_euler(0.0, 1.5, 0.0)))
        with pytest.raises(AttitudeSingular):
            attitude_loop(x, np.zeros(3), p.m * p.g, yaw_of_R(x), 0.0,
                          ControllerGains(), p)


class TestBodyRateLoop:
    def test_zero_error_zero_torque(self):
        tau = body_rate_loop(HOVER, np.zeros(3), ControllerGains(), QuadParams())
        assert np.allclose(tau, 0.0)

    def test_proportional_on_rate_error(self):
        p = QuadParams()
        g = ControllerGains()
        tau = body_rate_loop(HOVER, np.array([1.0, 0.0, 0.0]), g, p)
        assert tau[0] == pytest.approx(p.Ix * g.k_omega[0] * 1.0)

    def test_clamped_to_actuator_bounds(self):
        p = QuadParams()
        tau = body_rate_loop(HOVER, np.array([1e4, -1e4, 0.0]),
                             ControllerGains(), p)
        assert tau[0] == p.tau_max[0] and tau[1] == -p.tau_max[1]

    def test_yaw_shares_y_bound(self):
        # tau_z is clamped with tau_max[1]; there is no separate yaw bound.
        p = QuadParams(tau_max=(1.0, 2.0))
        tau = body_rate_loop(HOVER, np.array([0.0, 0.0, 1e4]), ControllerGains(), p)
        assert tau[2] == 2.0
        tau = body_rate_loop(HOVER, np.array([0.0, 0.0, -1e4]), ControllerGains(), p)
        assert tau[2] == -2.0


class TestNominalCommand:
    def test_hover_fixed_point(self):
        p = QuadParams()
        g = ControllerGains()
        ref = hover_ref()
        acc = position_loop(HOVER, ref, g)
        f_hat = thrust_from_accel(acc[2], HOVER[11], p)
        omega_cmd = attitude_loop(HOVER, acc, f_hat, yaw_of_R(HOVER), ref.psi_d, g, p)
        tau_hat = body_rate_loop(HOVER, omega_cmd, g, p)
        assert f_hat == pytest.approx(p.m * p.g)
        assert np.allclose(tau_hat, 0.0, atol=1e-12)


class TestWrapAngle:
    @pytest.mark.parametrize("a,expected", [
        (0.0, 0.0),
        (np.pi / 2, np.pi / 2),
        (np.pi, np.pi),
        (-np.pi, np.pi),
        (3 * np.pi / 2, -np.pi / 2),
        (2 * np.pi, 0.0),
    ])
    def test_cases(self, a, expected):
        assert _wrap_angle(a) == pytest.approx(expected, abs=1e-12)


class TestArrayFormulation:
    """The loops run on floats but keep numpy's operation order: their
    outputs equal the array formulation of the same control law exactly."""

    def test_bitwise_equal(self):
        p = QuadParams()
        g = ControllerGains()
        rng = np.random.default_rng(29)
        for _ in range(100):
            s = QuadState(r=rng.normal(size=3), R=R_of_euler(*rng.uniform(-0.5, 0.5, size=3)),
                          v=rng.normal(size=3), omega=rng.normal(size=3))
            ref = Reference(r_d=rng.normal(size=3), v_d=rng.normal(size=3),
                            a_d=rng.normal(size=3), psi_d=float(rng.uniform(-3, 3)))
            x = flat_of(s)
            acc = position_loop(x, ref, g)
            assert np.array_equal(
                acc, ref.a_d + g.Kp * (ref.r_d - s.r) + g.Kd * (ref.v_d - s.v))

            f = float(rng.uniform(1.0, 30.0))
            R = np.reshape(s.R, (3, 3))
            R13_cmd = np.clip(-acc[0] * p.m / f, -0.9, 0.9)
            R23_cmd = np.clip(-acc[1] * p.m / f, -0.9, 0.9)
            W = np.array([[R[1, 0], -R[0, 0]], [R[1, 1], -R[0, 1]]])
            pq = (W @ np.array([g.k_R * (R13_cmd - R[0, 2]),
                                g.k_R * (R23_cmd - R[1, 2])])) / R[2, 2]
            psi = float(np.arctan2(R[1, 0], R[0, 0]))
            w_cmd = attitude_loop(x, acc, f, yaw_of_R(x), ref.psi_d, g, p)
            assert np.array_equal(
                w_cmd, [pq[0], pq[1], g.k_psi * _wrap_angle(ref.psi_d - psi)])

            w = np.array(s.omega)
            gyro = np.array([(p.Iz - p.Iy) * w[1] * w[2], (p.Ix - p.Iz) * w[0] * w[2],
                             (p.Iy - p.Ix) * w[0] * w[1]])
            tau = np.array([p.Ix, p.Iy, p.Iz]) * (g.k_omega * (w_cmd - w)) + gyro
            bound = np.array([p.tau_max[0], p.tau_max[1], p.tau_max[1]])
            assert np.array_equal(body_rate_loop(x, w_cmd, g, p),
                                  np.clip(tau, -bound, bound))


class TestFloatLoopsAreTheArrayForms:
    """position_loop, attitude_loop and body_rate_loop take and return
    floats; on random states they give the array forms' bits, and every
    value they return is a float."""

    def test_bitwise_equal_to_the_array_forms(self):
        p = QuadParams()
        rng = np.random.default_rng(31)
        for i in range(100):
            g = ControllerGains()
            if i % 2:
                g = ControllerGains(Kp=rng.uniform(0.0, 20.0, size=3),
                                    Kd=rng.uniform(0.0, 10.0, size=3),
                                    k_omega=rng.uniform(1.0, 30.0, size=3))
            s = QuadState(r=rng.normal(size=3), R=R_of_euler(*rng.uniform(-0.6, 0.6, size=3)),
                          v=rng.normal(size=3), omega=rng.normal(size=3) * 3.0)
            r_d, v_d, a_d = rng.normal(size=(3, 3)) * 3.0
            psi_d = float(rng.uniform(-3.2, 3.2))
            x = flat_of(s)
            acc = position_loop(x, Reference(tuple(r_d.tolist()), tuple(v_d.tolist()),
                                             tuple(a_d.tolist()), psi_d), g)
            old_acc = old_position_loop(x, Reference(r_d, v_d, a_d, psi_d), g)
            assert all(type(v) is float for v in acc)
            assert packed(acc) == packed(old_acc.tolist())

            f = float(rng.uniform(0.5, 36.0))
            psi = yaw_of_R(x)
            w_cmd = attitude_loop(x, acc, f, psi, psi_d, g, p)
            old_w_cmd = old_attitude_loop(x, old_acc, f, psi, psi_d, g, p)
            assert all(type(v) is float for v in w_cmd)
            assert packed(w_cmd) == packed(old_w_cmd.tolist())

            tau = body_rate_loop(x, w_cmd, g, p)
            old_tau = old_body_rate_loop(x, old_w_cmd, g, p)
            assert all(type(v) is float for v in tau)
            assert packed(tau) == packed(old_tau.tolist())
