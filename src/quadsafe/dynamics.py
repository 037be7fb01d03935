"""Rigid-body quadrotor dynamics on SE(3) with a fixed-step RK4 integrator.

State is (position r, rotation R, inertial velocity v, body rates omega).
Attitude is kept as a rotation matrix and re-orthonormalized by polar
projection after every step; Euler angles are a derived view only.

Sign convention: translational acceleration is g*z_w - R*z_w*f/m, so the
free-fall acceleration is +g along the world z axis and hover requires
f = m*g/R33.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg._umath_linalg import svd_f


class NonFiniteState(RuntimeError):
    """Raised when an integration step produces NaN or Inf."""


def check_fields(obj, sizes: dict[str, int], infinite: tuple[str, ...] = ()) -> None:
    """Refuse, by a ValueError naming it, a field of obj that is not sizes[name]
    numbers (a number if 0) or holds a NaN, or an infinity unless in infinite."""
    for name, size in sizes.items():
        value = np.asarray(getattr(obj, name), dtype=float)
        got = value.tolist()
        if value.shape != ((size,) if size else ()):
            what = f"{size} numbers" if size else "a number"
            raise ValueError(f"{name} must be {what}, got {got}")
        for v in got if size else [got]:
            if math.isnan(v) or (math.isinf(v) and name not in infinite):
                rule = "not be NaN" if name in infinite else "be finite"
                raise ValueError(f"{name} must {rule}, got {got}")


@dataclass(frozen=True)
class QuadParams:
    """Physical parameters of the quadrotor (defaults: desk-scale platform).

    tau_max bounds the moments about x_B and y_B; the yaw moment tau_z
    shares the y bound tau_max[1].
    """

    g: float = 9.81          # m/s^2
    m: float = 0.45          # kg
    Ix: float = 0.091        # kg m^2
    Iy: float = 0.091        # kg m^2
    Iz: float = 0.182        # kg m^2
    f_max: float = 36.0      # N, total thrust bound
    tau_max: tuple[float, float] = (20.0, 20.0)  # N m, bounds about x_B, y_B

    def __post_init__(self) -> None:
        check_fields(self, {"g": 0, "m": 0, "Ix": 0, "Iy": 0, "Iz": 0, "f_max": 0, "tau_max": 2},
                     infinite=("f_max", "tau_max"))
        for name in ("g", "m", "Ix", "Iy", "Iz"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.f_max < 0.0 or min(self.tau_max) < 0.0:
            raise ValueError("actuator bounds must be nonnegative")
        if self.f_max <= self.m * self.g:
            raise ValueError("f_max must exceed hover thrust m*g")


@dataclass(frozen=True)
class QuadState:
    """Full rigid-body state: r [m], R (body-to-world), v [m/s], omega [rad/s].

    The validated initial state of a scenario; the step loop and its
    kernels run on its flat form (flat_of).
    """

    r: np.ndarray = field(default_factory=lambda: np.zeros(3))
    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    omega: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def validate(self, tol: float = 1e-9) -> None:
        for arr in (self.r, self.R, self.v, self.omega):
            if not np.all(np.isfinite(arr)):
                raise NonFiniteState("non-finite state field")
        err = np.max(np.abs(self.R.T @ self.R - np.eye(3)))
        if err > tol:
            raise ValueError(f"R not orthonormal: max |R'R - I| = {err:.3e}")
        if abs(np.linalg.det(self.R) - 1.0) > tol:
            raise ValueError("det(R) != 1")


def deriv(
    x: list[float], f: float, tau: list[float], params: QuadParams,
    k: list[float] | None = None, h: float = 0.0,
) -> list[float]:
    """Vector field at x + h * k (at x if k is None) under thrust f and
    moments tau, in plain float arithmetic on the flat state [r, R row-major,
    v, omega]: rdot = v, Rdot = R [omega]x, vdot = g z_w - R z_w f/m,
    omegadot = I^-1 (tau - omega x I omega). r does not enter it, so its
    stage value is never formed.

    Every entry of x, k, tau and f, and h, may be a float or an equal-length
    float64 column (one column per state of a batch). The body uses only
    + - * /, which numpy rounds on float64 columns exactly as on floats, so
    each column entry gets the bits the float call would give."""
    (_, _, _, R00, R01, R02, R10, R11, R12, R20, R21, R22, vx, vy, vz, p, q, r) = x
    if k is not None:
        (_, _, _, k00, k01, k02, k10, k11, k12, k20, k21, k22, kx, ky, kz, kp, kq, kr) = k
        R00, R01, R02 = R00 + h * k00, R01 + h * k01, R02 + h * k02
        R10, R11, R12 = R10 + h * k10, R11 + h * k11, R12 + h * k12
        R20, R21, R22 = R20 + h * k20, R21 + h * k21, R22 + h * k22
        vx, vy, vz = vx + h * kx, vy + h * ky, vz + h * kz
        p, q, r = p + h * kp, q + h * kq, r + h * kr
    fm = f / params.m
    Ix, Iy, Iz = params.Ix, params.Iy, params.Iz
    return [
        vx, vy, vz,
        R01 * r - R02 * q, R02 * p - R00 * r, R00 * q - R01 * p,
        R11 * r - R12 * q, R12 * p - R10 * r, R10 * q - R11 * p,
        R21 * r - R22 * q, R22 * p - R20 * r, R20 * q - R21 * p,
        -R02 * fm, -R12 * fm, params.g - R22 * fm,
        (tau[0] - (Iz - Iy) * q * r) / Ix,
        (tau[1] - (Ix - Iz) * p * r) / Iy,
        (tau[2] - (Iy - Ix) * p * q) / Iz,
    ]


def rk4_flat(
    x0: list[float], f: float, tau: list[float], params: QuadParams, dt: float
) -> list[float]:
    """One classical RK4 step of the flat state under zero-order-hold thrust f
    and moments tau.

    dt may be negative (backward flow for finite-difference stencils).
    As in deriv, the entries of x0, tau, f and dt may be floats or
    equal-length float64 columns, with the same bits per entry either way.
    """
    h2 = 0.5 * dt
    k1 = deriv(x0, f, tau, params)
    k2 = deriv(x0, f, tau, params, k1, h2)
    k3 = deriv(x0, f, tau, params, k2, h2)
    k4 = deriv(x0, f, tau, params, k3, dt)
    dt6 = dt / 6.0
    return [
        a + dt6 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
        for a, b1, b2, b3, b4 in zip(x0, k1, k2, k3, k4)
    ]


def flat_of(state: QuadState) -> list[float]:
    """The 18 state floats [r, R row-major, v, omega]."""
    return np.concatenate([state.r, state.R.ravel(), state.v, state.omega], dtype=float).tolist()


def project_flat(x: list[float]) -> list[float]:
    """The flat state x, every entry finite (advance checks them: LAPACK may
    not return on an infinite entry), with its R block projected onto SO(3)
    as U Vt of its SVD by svd_f, the LAPACK gufunc np.linalg.svd runs for
    float64 with full matrices, without the wrapper's per-call cost."""
    U, _, Vt = svd_f(np.array(x[3:12]).reshape(3, 3), signature="d->ddd")
    Q = U.dot(Vt)
    # Only det(Q)'s sign is used: Q is orthogonal, so det is +-1 up to round-off.
    (a, b, c), (d, e, f), (g, h, i) = Q.tolist()
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) < 0.0:
        U = U.copy()
        U[:, -1] = -U[:, -1]
        Q = U.dot(Vt)
    return x[:3] + Q.ravel().tolist() + x[12:]


def advance(
    x: list[float], f: float, tau: list[float], params: QuadParams, dt: float
) -> list[float]:
    """One classical RK4 step of the flat state under zero-order-hold thrust f
    and moments tau; R re-projected to SO(3)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    x1 = rk4_flat(x, f, tau, params, dt)
    if not all(map(math.isfinite, x1)):
        raise NonFiniteState("integration produced non-finite values")
    return project_flat(x1)


_GIMBAL_TOL = 1.0 - 1e-9


def yaw_of_R(x: list[float]) -> float:
    """The yaw of the flat state's R, with one scalar np.arctan2 call."""
    if abs(x[9]) > _GIMBAL_TOL:  # |R31|, clamped to 1 or not
        return float(np.arctan2(-x[4], x[7]))
    return float(np.arctan2(x[6], x[3]))


def roll_pitch_of_R(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Z-Y-X roll and pitch columns (R = Rz Ry Rx) of a block of flat R
    rows (n, 9); near |R31| = 1 roll is 0 and yaw_of_R takes the in-plane
    rotation. numpy's arcsin and arctan2 (not math's, which can round
    differently) on columns round as on each single state's entries."""
    r31 = np.minimum(np.maximum(R[:, 6], -1.0), 1.0)
    gimbal = np.abs(r31) > _GIMBAL_TOL
    theta = np.where(gimbal, -np.copysign(math.pi / 2.0, r31), -np.arcsin(r31))
    phi = np.where(gimbal, 0.0, np.arctan2(R[:, 7], R[:, 8]))
    return phi, theta


def R_of_euler(phi: float | np.ndarray, theta: float | np.ndarray, psi: float | np.ndarray
               ) -> np.ndarray:
    """Rotation matrix Rz(psi) Ry(theta) Rx(phi); for arrays of angles of
    one shape, the stack of each triple's matrix along the leading axes,
    which the stacked products round as the single ones."""
    cf, sf = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(psi), np.sin(psi)
    one, zero = np.ones_like(cf), np.zeros_like(cf)

    def matrix(*entries):
        return np.stack(entries, axis=-1).reshape(*np.shape(cf), 3, 3)

    Rx = matrix(one, zero, zero, zero, cf, -sf, zero, sf, cf)
    Ry = matrix(ct, zero, st, zero, one, zero, -st, zero, ct)
    Rz = matrix(cp, -sp, zero, sp, cp, zero, zero, zero, one)
    return Rz @ Ry @ Rx
