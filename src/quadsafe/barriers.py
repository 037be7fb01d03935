"""Rectellipse barrier functions and their exact Lie-derivative chains.

Four barrier families are supported:

* altitude position (relative degree 2, input = thrust)
* altitude position+velocity (relative degree 1, input = thrust)
* lateral position (relative degree 4, input = [tau_x, tau_y])
* lateral velocity (relative degree 3, input = [tau_x, tau_y])

Both levels build one row shape, (a, b, h, H): the linear constraint
a . u + b >= 0 encoding the (E)CBF condition
L_f^d h + L_g L_f^(d-1) h . u + K' H >= 0, the barrier value h and the
chain H = [h, L_f h, ..., L_f^(d-1) h]. altitude_row builds it over the
thrust, lateral_row over [tau_x, tau_y] (with the kinematic terms of
lateral_chain_terms, shared by both lateral barriers). All higher
derivatives of position are closed-form functions of the flat rigid-body
state; no numerical differentiation is involved.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .dynamics import QuadParams

DET_MIN = 1e-3  # lower bound on |det W| before the lateral map is declared singular


class LateralSingular(ValueError):
    """W (lateral rate map) is numerically singular, e.g. near 90 deg tilt."""


class InvalidPoles(ValueError):
    """ECBF pole placement requires strictly negative real poles."""


class BarrierDomain(enum.Enum):
    ALTITUDE_POSITION = "altitude_position"
    ALTITUDE_POSVEL = "altitude_posvel"
    LATERAL_POSITION = "lateral_position"
    LATERAL_VELOCITY = "lateral_velocity"


#: Relative degree of each barrier family.
RELATIVE_DEGREE = {
    BarrierDomain.ALTITUDE_POSITION: 2,
    BarrierDomain.ALTITUDE_POSVEL: 1,
    BarrierDomain.LATERAL_POSITION: 4,
    BarrierDomain.LATERAL_VELOCITY: 3,
}


@dataclass(frozen=True)
class BarrierSpec:
    """One rectellipse safety region.

    ``center`` and ``half_width`` are per constrained state, in the order
    the domain lists them: (z,) / (z, zdot) / (x, y) / (xdot, ydot).
    Velocity states in mixed barriers are always centered at zero.
    """

    domain: BarrierDomain
    center: np.ndarray
    half_width: np.ndarray
    active_from: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "half_width", np.asarray(self.half_width, dtype=float))
        if np.any(self.half_width <= 0.0):
            raise ValueError("half_width must be strictly positive")
        n_expected = {
            BarrierDomain.ALTITUDE_POSITION: 1,
            BarrierDomain.ALTITUDE_POSVEL: 2,
            BarrierDomain.LATERAL_POSITION: 2,
            BarrierDomain.LATERAL_VELOCITY: 2,
        }[self.domain]
        if len(self.center) != n_expected or len(self.half_width) != n_expected:
            raise ValueError(
                f"{self.domain.value} expects {n_expected} constrained state(s)"
            )


@dataclass(frozen=True)
class EcbfGains:
    """Gain vector K for one ECBF chain (or the class-kappa slope for delta=1).

    ``K[j]`` is the coefficient of s^j in prod(s - pole_i); for delta=1 the
    constraint reduces to hdot + alpha*h >= 0 with alpha = K[0].
    """

    delta: int
    poles: tuple[float, ...]
    K: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.delta not in (1, 2, 3, 4):
            raise ValueError("relative degree must be in 1..4")
        if len(self.poles) != self.delta:
            raise ValueError("need one pole per relative degree")
        K = pole_place(self.delta, self.poles) if self.K is None else np.asarray(self.K)
        object.__setattr__(self, "K", K)

    @property
    def alpha(self) -> float:
        return float(self.K[0])


@dataclass(frozen=True)
class LateralChainTerms:
    """Shared kinematic terms for the lateral chains (paper's W, V, A, J, L)."""

    W: np.ndarray
    V: np.ndarray
    A: np.ndarray
    Vdot: np.ndarray
    R33dot: float
    J: np.ndarray
    L_mat: np.ndarray


def pole_place(delta: int, poles) -> np.ndarray:
    """Chain gains from desired closed-loop poles.

    Returns K with K[j] = coefficient of s^j in prod_i (s - pole_i),
    excluding the leading s^delta term, so that the companion matrix of
    s^delta + K[delta-1] s^(delta-1) + ... + K[0] has exactly these poles.
    """
    poles = tuple(float(p) for p in poles)
    if len(poles) != delta or delta < 1:
        raise InvalidPoles("need exactly delta poles")
    if any(p >= 0.0 for p in poles):
        raise InvalidPoles("all poles must be strictly negative")
    coeffs = np.poly(poles)  # highest degree first, leading 1
    return coeffs[1:][::-1].copy()  # [k0, ..., k_{delta-1}]


def rectellipse_h(values: Sequence[float], spec: BarrierSpec) -> float:
    """h = 1 - sum_j ((x_j - c_j)/p_j)^4 ; >= 0 inside the safe region."""
    total = 0.0
    for x, c, p in zip(values, spec.center.tolist(), spec.half_width.tolist(), strict=True):
        # numpy's pow, not float ** 4: the two can round differently.
        total += float(np.power((x - c) / p, 4.0))
    return 1.0 - total


def altitude_row(
    spec: BarrierSpec, gains: EcbfGains, z: float, zd: float, R33: float, params: QuadParams
) -> tuple[float, float, float, np.ndarray]:
    """Float core of the two altitude chains: (a, b, h, H) of the row
    a * f + b >= 0 at altitude z, climb rate zd and attitude entry R33."""
    if spec.domain is BarrierDomain.ALTITUDE_POSITION:
        # ECBF, delta=2, h(z) = 1 - ((z-c)/p_z)^4.
        c, pz = float(spec.center[0]), float(spec.half_width[0])
        s = z - c
        pz4 = pz**4
        h = 1.0 - (s / pz) ** 4
        s3 = s**3
        Lfh = -4.0 * s3 * zd / pz4
        Lf2h = -4.0 * s3 * params.g / pz4 - 12.0 * s**2 * zd**2 / pz4
        a = 4.0 * s3 * R33 / (pz4 * params.m)
        H = np.array([h, Lfh])
        return a, Lf2h + float(gains.K.dot(H)), h, H
    if spec.domain is BarrierDomain.ALTITUDE_POSVEL:
        # CBF, delta=1, h(z, zdot) = 1 - ((z-c)/p_z)^4 - (zdot/v_z)^4.
        cz, pz, vz = float(spec.center[0]), float(spec.half_width[0]), float(spec.half_width[1])
        s = z - cz
        h = 1.0 - (s / pz) ** 4 - (zd / vz) ** 4
        Lfh = -4.0 * s**3 * zd / pz**4 - 4.0 * zd**3 * params.g / vz**4
        a = 4.0 * zd**3 * R33 / (vz**4 * params.m)
        return a, Lfh + gains.alpha * h, h, np.array([h])
    raise ValueError(f"not an altitude barrier: {spec.domain}")


def lateral_chain_terms(x: list[float], params: QuadParams) -> LateralChainTerms:
    """Kinematic terms shared by both lateral chains, at the flat state x.

    W maps (Rdot13, Rdot23) to R33*(p, q); its inverse V, the exact Vdot
    (from Rdot = R [w]x), and the drift/input maps J, L of the second
    derivative of (R13, R23).
    """
    R11, R12, R13, R21, R22, R23, R31, R32, R33 = x[3:12]
    p, q, r_rate = x[15:18]
    W = np.array([[R21, -R11], [R22, -R12]])
    detW = W[0, 0] * W[1, 1] - W[0, 1] * W[1, 0]
    if abs(detW) < DET_MIN:
        raise LateralSingular(f"|det W| = {abs(detW):.2e} below {DET_MIN}")
    V = np.array([[W[1, 1], -W[0, 1]], [-W[1, 0], W[0, 0]]]) / detW
    # Entry-wise Rdot from Rdot = R [w]x.
    Rd11 = R12 * r_rate - R13 * q
    Rd21 = R22 * r_rate - R23 * q
    Rd12 = -R11 * r_rate + R13 * p
    Rd22 = -R21 * r_rate + R23 * p
    R33dot = R31 * q - R32 * p
    Wdot = np.array([[Rd21, -Rd11], [Rd22, -Rd12]])
    Vdot = -V @ Wdot @ V
    A = np.array([p, q])
    gyro = np.array(
        [
            (params.Iy - params.Iz) / params.Ix * q * r_rate,
            (params.Iz - params.Ix) / params.Iy * p * r_rate,
        ]
    )
    J = R33dot * (V @ A) + R33 * (Vdot @ A) + R33 * (V @ gyro)
    L_mat = R33 * V @ np.diag([1.0 / params.Ix, 1.0 / params.Iy])
    return LateralChainTerms(W=W, V=V, A=A, Vdot=Vdot, R33dot=R33dot, J=J, L_mat=L_mat)


def lateral_row(
    spec: BarrierSpec,
    gains: EcbfGains,
    x: list[float],
    f: float,
    terms: LateralChainTerms,
    params: QuadParams,
) -> tuple[np.ndarray, float, float, np.ndarray]:
    """Core of the two lateral chains: (a, b, h, H) of the row
    a . [tau_x, tau_y] + b >= 0 at the flat state x, with the kinematic
    terms of lateral_chain_terms(x, params).

    The thrust f already fixed for this step enters the drift; the chain is
    exact for zero-order-hold thrust.
    """
    # First three time derivatives of (x, y) under frozen thrust f.
    xy_d = np.array(x[12:14])
    xy_dd = -(f / params.m) * np.array([x[5], x[8]])
    xy_ddd = -(f / params.m) * x[11] * (terms.V @ terms.A)
    fm4 = 4.0 * f / params.m
    cx, cy = spec.center
    px4, py4 = spec.half_width**4
    if spec.domain is BarrierDomain.LATERAL_POSITION:
        sx, sy = x[0] - cx, x[1] - cy
    elif spec.domain is BarrierDomain.LATERAL_VELOCITY:
        sx, sy = x[12] - cx, x[13] - cy
    else:
        raise ValueError(f"not a lateral barrier: {spec.domain}")
    eta = [np.array([sx**i / px4, sy**i / py4]) for i in range(4)]
    h = 1.0 - sx**4 / px4 - sy**4 / py4
    a = fm4 * (eta[3] @ terms.L_mat)

    if spec.domain is BarrierDomain.LATERAL_POSITION:
        # ECBF, delta=4, h(x, y) = 1 - ((x-c_x)/p_x)^4 - ((y-c_y)/p_y)^4.
        Lfh = -4.0 * eta[3] @ xy_d
        Lf2h = -4.0 * eta[3] @ xy_dd - 12.0 * eta[2] @ xy_d**2
        Lf3h = (
            -4.0 * eta[3] @ xy_ddd
            - 36.0 * eta[2] @ (xy_d * xy_dd)
            - 24.0 * eta[1] @ xy_d**3
        )
        Lf4h = (
            fm4 * eta[3] @ terms.J
            - 48.0 * eta[2] @ (xy_d * xy_ddd)
            - 36.0 * eta[2] @ xy_dd**2
            - 144.0 * eta[1] @ (xy_d**2 * xy_dd)
            - 24.0 * eta[0] @ xy_d**4
        )
        H = np.array([h, Lfh, Lf2h, Lf3h])
        return a, Lf4h + float(gains.K @ H), h, H
    # ECBF, delta=3, h(xdot, ydot) = 1 - ((xdot-c_x)/v_x)^4 - ((ydot-c_y)/v_y)^4.
    Lfh = -4.0 * eta[3] @ xy_dd
    Lf2h = -4.0 * eta[3] @ xy_ddd - 12.0 * eta[2] @ xy_dd**2
    Lf3h = (
        fm4 * eta[3] @ terms.J
        - 36.0 * eta[2] @ (xy_dd * xy_ddd)
        - 24.0 * eta[1] @ xy_dd**3
    )
    H = np.array([h, Lfh, Lf2h])
    return a, Lf3h + float(gains.K @ H), h, H


def barrier_h(x: list[float], spec: BarrierSpec) -> float:
    """Current barrier value for any domain at the flat state x."""
    domain = spec.domain
    if domain is BarrierDomain.ALTITUDE_POSITION:
        values = x[2:3]
    elif domain is BarrierDomain.ALTITUDE_POSVEL:
        values = (x[2], x[14])
    elif domain is BarrierDomain.LATERAL_POSITION:
        values = x[0:2]
    else:
        values = x[12:14]
    return rectellipse_h(values, spec)
