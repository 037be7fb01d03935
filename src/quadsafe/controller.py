"""Nominal cascaded flight controller.

Position loop -> commanded accelerations and thrust; attitude loop ->
commanded body rates via first-order regulation of the R13/R23 entries;
body-rate loop -> nominal moments by inverting the Euler equation. Each
loop reads the flat state x = [r, R row-major, v, omega] and takes and
returns plain floats; only the attitude loop's W product stays a numpy
call, because float arithmetic does not round it as numpy does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import QuadParams, check_fields

R33_MIN = 0.2
SIN_THETA_MAX = 0.9
THRUST_FLOOR_FRAC = 0.05  # of hover thrust, for attitude inversion


class AttitudeSingular(ValueError):
    """R33 too small to invert the thrust/attitude relation."""


class ThrustTooSmall(ValueError):
    """Applied thrust too small to back out commanded tilt entries."""


@dataclass(frozen=True)
class ControllerGains:
    # check_fields stores each vector as 3 floats, which the per-step loops read.
    Kp: tuple[float, ...] = (8.0, 8.0, 12.0)
    Kd: tuple[float, ...] = (5.0, 5.0, 7.0)
    k_R: float = 8.0
    k_psi: float = 2.0
    k_omega: tuple[float, ...] = (25.0, 25.0, 10.0)

    def __post_init__(self) -> None:
        check_fields(self, {"Kp": 3, "Kd": 3, "k_R": 0, "k_psi": 0, "k_omega": 3})
        # Kp = 0 on an axis gives pure velocity tracking there, which the
        # velocity-barrier scenarios rely on; the inner-loop gains need > 0.
        for names, rule, bad in ((("Kp", "Kd"), ">= 0", np.less),
                                 (("k_R", "k_psi", "k_omega"), "> 0", np.less_equal)):
            for name in names:
                gain = np.asarray(getattr(self, name))
                if np.any(bad(gain, 0)):
                    raise ValueError(f"{name} must be {rule}, got {gain.tolist()}")


class Reference(NamedTuple):
    """Desired position, velocity and acceleration (3 floats each) and yaw."""

    r_d: tuple[float, float, float]
    v_d: tuple[float, float, float]
    a_d: tuple[float, float, float]
    psi_d: float = 0.0


def position_loop(x: list[float], ref: Reference, gains: ControllerGains) -> list[float]:
    """Commanded acceleration: feedforward plus PD on (desired - actual)."""
    return [
        a + kp * (rd - r) + kd * (vd - v)
        for a, kp, rd, r, kd, vd, v in zip(
            ref.a_d, gains.Kp, ref.r_d, x[:3], gains.Kd, ref.v_d, x[12:15],
        )
    ]


def thrust_from_accel(z_ddot_cmd: float, R33: float, params: QuadParams) -> float:
    """Nominal thrust f = (m/R33)(g - z_ddot_cmd), clamped to [0, f_max]."""
    if R33 < R33_MIN:
        raise AttitudeSingular(f"R33 = {R33:.3f} below {R33_MIN}")
    f = (params.m / R33) * (params.g - z_ddot_cmd)
    return min(max(f, 0.0), params.f_max)


def attitude_loop(
    x: list[float],
    r_ddot_cmd: list[float],
    f: float,
    psi: float,
    psi_d: float,
    gains: ControllerGains,
    params: QuadParams,
) -> list[float]:
    """Commanded body rates [p_cmd, q_cmd, r_cmd].

    Lateral: commanded R13/R23 from inverting the translational dynamics
    (xddot = -R13 f/m), regulated first-order with gain k_R, then mapped to
    (p, q) through W/R33. Yaw: proportional on the wrapped error between the
    desired yaw psi_d and the current yaw psi.
    """
    R11, R12, R13, R21, R22, R23, _, _, R33 = x[3:12]
    if R33 < R33_MIN:
        raise AttitudeSingular(f"R33 = {R33:.3f} below {R33_MIN}")
    f_min = THRUST_FLOOR_FRAC * params.m * params.g
    if f < f_min:
        raise ThrustTooSmall(f"f = {f:.3f} N below attitude-inversion floor")
    R13_cmd = min(max(-r_ddot_cmd[0] * params.m / f, -SIN_THETA_MAX), SIN_THETA_MAX)
    R23_cmd = min(max(-r_ddot_cmd[1] * params.m / f, -SIN_THETA_MAX), SIN_THETA_MAX)
    Rdot13_cmd = gains.k_R * (R13_cmd - R13)
    Rdot23_cmd = gains.k_R * (R23_cmd - R23)
    W = np.array([[R21, -R11], [R22, -R12]])
    p_cmd, q_cmd = W.dot(np.array([Rdot13_cmd, Rdot23_cmd])).tolist()
    err = _wrap_angle(psi_d - psi)
    r_cmd = gains.k_psi * err
    return [p_cmd / R33, q_cmd / R33, r_cmd]


def body_rate_loop(
    x: list[float],
    omega_cmd: list[float],
    gains: ControllerGains,
    params: QuadParams,
) -> list[float]:
    """Nominal moments: tau = I*wdot_cmd + w x I w, clamped to actuator
    bounds; tau_z shares the y bound tau_max[1]."""
    p, q, r = x[15:18]
    kp, kq, kr = gains.k_omega
    p_cmd, q_cmd, r_cmd = omega_cmd
    Ix, Iy, Iz = params.Ix, params.Iy, params.Iz
    bound_x, bound_y = params.tau_max
    tau_x = Ix * (kp * (p_cmd - p)) + (Iz - Iy) * q * r
    tau_y = Iy * (kq * (q_cmd - q)) + (Ix - Iz) * p * r
    tau_z = Iz * (kr * (r_cmd - r)) + (Iy - Ix) * p * q
    return [
        min(max(tau_x, -bound_x), bound_x),
        min(max(tau_y, -bound_y), bound_y),
        min(max(tau_z, -bound_y), bound_y),
    ]


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = (a + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.pi) if a == -np.pi else float(a)
