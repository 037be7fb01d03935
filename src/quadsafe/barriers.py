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
thrust; lateral_rows builds the rows of all active lateral barriers over
[tau_x, tau_y] at once, from one set of shared kinematic terms, with each
family of small products (2x2 matrix, matrix-vector, vector-matrix, 2-vector
dot, pow) in one batched call of the numpy kernel that rounds it. All higher
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
_POWERS = (3.0, 3.0, 4.0, 4.0, 3.0, 3.0)  # of (xdot, ydot, xdot, ydot, xddot, yddot)


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

#: Flat-state indices of each family's constrained states, in the order a
#: BarrierSpec lists them.
STATE_INDEX = {
    BarrierDomain.ALTITUDE_POSITION: (2,),
    BarrierDomain.ALTITUDE_POSVEL: (2, 14),
    BarrierDomain.LATERAL_POSITION: (0, 1),
    BarrierDomain.LATERAL_VELOCITY: (12, 13),
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
    # For the per-step kernels: the constrained states' flat-state indices,
    # and float copies of center, half_width and half_width ** 4 (numpy's pow).
    idx: tuple[int, ...] = field(init=False, repr=False, compare=False)
    c: tuple[float, ...] = field(init=False, repr=False, compare=False)
    p: tuple[float, ...] = field(init=False, repr=False, compare=False)
    p4: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "half_width", np.asarray(self.half_width, dtype=float))
        if np.any(self.half_width <= 0.0):
            raise ValueError("half_width must be strictly positive")
        idx = STATE_INDEX[self.domain]
        if len(self.center) != len(idx) or len(self.half_width) != len(idx):
            raise ValueError(f"{self.domain.value} expects {len(idx)} constrained state(s)")
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "c", tuple(self.center.tolist()))
        object.__setattr__(self, "p", tuple(self.half_width.tolist()))
        object.__setattr__(self, "p4", tuple((self.half_width**4).tolist()))
        if min(self.p4) == 0.0:  # the chains divide by it
            raise ValueError("half_width is too small: its fourth power underflows to 0")


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
    scaled = [(x - c) / p for x, c, p in zip(values, spec.c, spec.p, strict=True)]
    # numpy's pow, not float ** 4: the two can round differently.
    total = 0.0
    for s4 in np.power(scaled, 4.0).tolist():
        total += s4
    return 1.0 - total


def altitude_row(
    spec: BarrierSpec, gains: EcbfGains, z: float, zd: float, R33: float, params: QuadParams
) -> tuple[float, float, float, np.ndarray]:
    """Float core of the two altitude chains: (a, b, h, H) of the row
    a * f + b >= 0 at altitude z, climb rate zd and attitude entry R33."""
    if spec.domain is BarrierDomain.ALTITUDE_POSITION:
        # ECBF, delta=2, h(z) = 1 - ((z-c)/p_z)^4.
        (c,), (pz,) = spec.c, spec.p
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
        cz, (pz, vz) = spec.c[0], spec.p
        s = z - cz
        h = 1.0 - (s / pz) ** 4 - (zd / vz) ** 4
        Lfh = -4.0 * s**3 * zd / pz**4 - 4.0 * zd**3 * params.g / vz**4
        a = 4.0 * zd**3 * R33 / (vz**4 * params.m)
        return a, Lfh + gains.alpha * h, h, np.array([h])
    raise ValueError(f"not an altitude barrier: {spec.domain}")


def lateral_rows(
    x: list[float],
    f: float,
    specs: Sequence[tuple[BarrierSpec, EcbfGains]],
    params: QuadParams,
) -> list[tuple[np.ndarray, float, float, np.ndarray]]:
    """(a, b, h, H) of the row a . [tau_x, tau_y] + b >= 0 of each lateral
    (spec, gains) pair, at the flat state x.

    The thrust f already fixed for this step enters the drift; the chains
    are exact for zero-order-hold thrust. All rows share the kinematic terms:
    W = [[R21, -R11], [R22, -R12]], which maps (Rdot13, Rdot23) to R33*(p, q),
    its inverse V, the exact Vdot (from Rdot = R [w]x), and the drift/input
    maps J, L of the second derivative of (R13, R23).

    Elementwise arithmetic runs on floats, which round as numpy's elementwise
    operations do; the offsets from the center are numpy scalars, so their
    powers are numpy's scalar **. Every product that floats cannot reproduce
    goes, with all others of its kind, through one batched call of the numpy
    kernel that computes it: the 2x2 matrix products, the matrix-vector and
    vector-matrix products, the 2-vector dots (np.vecdot, the kernel of a
    1-D a @ b), and numpy's pow for the cubes and fourth powers of the
    derivatives of (x, y).
    """
    for spec, _ in specs:
        if spec.domain not in (BarrierDomain.LATERAL_POSITION, BarrierDomain.LATERAL_VELOCITY):
            raise ValueError(f"not a lateral barrier: {spec.domain}")
    R11, R12, R13, R21, R22, R23, R31, R32, R33 = x[3:12]
    p, q, r = x[15:18]
    det = R21 * -R12 - -R11 * R22  # det W
    if abs(det) < DET_MIN:
        raise LateralSingular(f"|det W| = {abs(det):.2e} below {DET_MIN}")
    V00, V01, V10, V11 = -R12 / det, R11 / det, -R22 / det, R21 / det
    # Entry-wise Rdot from Rdot = R [w]x.
    Rd11 = R12 * r - R13 * q
    Rd21 = R22 * r - R23 * q
    Rd12 = -R11 * r + R13 * p
    Rd22 = -R21 * r + R23 * p
    R33dot = R31 * q - R32 * p
    Ix, Iy, Iz = params.Ix, params.Iy, params.Iz
    mats = np.array([
        -V00, -V01, -V10, -V11,
        R33 * V00, R33 * V01, R33 * V10, R33 * V11,
        Rd21, -Rd11, Rd22, -Rd12,  # Wdot
        1.0 / Ix, 0.0, 0.0, 1.0 / Iy,
        V00, V01, V10, V11,
        0.0, 0.0, 0.0, 0.0,  # Vdot goes here
        p, q, (Iy - Iz) / Ix * q * r, (Iz - Ix) / Iy * p * r,  # A and the gyroscopic term
    ]).reshape(7, 2, 2)
    # (-V) Wdot, and L = (R33 V) diag(1/Ix, 1/Iy).
    prods = mats[0:2] @ mats[2:4]
    np.matmul(prods[0], mats[4], out=mats[5])  # Vdot = (-V) Wdot V
    # V A, V gyro, Vdot A and (unused) Vdot gyro.
    (VA0, VA1), (Vg0, Vg1), (VdA0, VdA1), _ = (
        mats[4:6, None] @ mats[6].reshape(2, 2, 1)
    ).reshape(4, 2).tolist()
    J0 = R33dot * VA0 + R33 * VdA0 + R33 * Vg0
    J1 = R33dot * VA1 + R33 * VdA1 + R33 * Vg1

    # First three time derivatives of (x, y) under frozen thrust f; their
    # squares are products (numpy's ** 2 is x * x), their cubes and fourth
    # powers numpy's pow.
    xd0, xd1 = x[12], x[13]
    c = -(f / params.m)
    xdd0, xdd1 = c * x[5], c * x[8]
    cR33 = c * R33
    xddd0, xddd1 = cR33 * VA0, cR33 * VA1
    fm4 = 4.0 * f / params.m
    xd3_0, xd3_1, xd4_0, xd4_1, xdd3_0, xdd3_1 = np.power(
        [xd0, xd1, xd0, xd1, xdd0, xdd1], _POWERS
    ).tolist()

    # Every chain entry L_f^k h is a difference of 2-vector dots u . w, taken
    # in the order numpy took them one by one: the first dot minus the rest.
    # chain holds, per entry, u0, u1, w0, w1 of each of its dots; eta3 holds
    # each row's eta3, for fm4 (eta3 @ L).
    pairs: list[float] = []
    dot_counts: list[list[int]] = []
    eta3: list[float] = []
    h_values = []
    for spec, _ in specs:
        (ix, iy), (cx, cy), (px4, py4) = spec.idx, spec.c, spec.p4
        position = spec.domain is BarrierDomain.LATERAL_POSITION
        sx, sy = np.float64(x[ix] - cx), np.float64(x[iy] - cy)
        # numpy's scalar ** (libm's pow, inf on overflow).
        e0x, e1x, e2x, e3x = sx**0 / px4, sx**1 / px4, sx**2 / px4, sx**3 / px4
        e0y, e1y, e2y, e3y = sy**0 / py4, sy**1 / py4, sy**2 / py4, sy**3 / py4
        h_values.append(1.0 - sx**4 / px4 - sy**4 / py4)
        eta3 += (e3x, e3y, 0.0, 0.0)
        m4x, m4y = -4.0 * e3x, -4.0 * e3y
        if position:
            # ECBF, delta=4, h(x, y) = 1 - ((x-c_x)/p_x)^4 - ((y-c_y)/p_y)^4.
            chain = (
                (m4x, m4y, xd0, xd1),  # Lf h
                (m4x, m4y, xdd0, xdd1,  # Lf2 h
                 12.0 * e2x, 12.0 * e2y, xd0 * xd0, xd1 * xd1),
                (m4x, m4y, xddd0, xddd1,  # Lf3 h
                 36.0 * e2x, 36.0 * e2y, xd0 * xdd0, xd1 * xdd1,
                 24.0 * e1x, 24.0 * e1y, xd3_0, xd3_1),
                (fm4 * e3x, fm4 * e3y, J0, J1,  # Lf4 h
                 48.0 * e2x, 48.0 * e2y, xd0 * xddd0, xd1 * xddd1,
                 36.0 * e2x, 36.0 * e2y, xdd0 * xdd0, xdd1 * xdd1,
                 144.0 * e1x, 144.0 * e1y, xd0 * xd0 * xdd0, xd1 * xd1 * xdd1,
                 24.0 * e0x, 24.0 * e0y, xd4_0, xd4_1),
            )
        else:
            # ECBF, delta=3, h(xdot, ydot) = 1 - ((xdot-c_x)/v_x)^4 - ((ydot-c_y)/v_y)^4.
            chain = (
                (m4x, m4y, xdd0, xdd1),  # Lf h
                (m4x, m4y, xddd0, xddd1,  # Lf2 h
                 12.0 * e2x, 12.0 * e2y, xdd0 * xdd0, xdd1 * xdd1),
                (fm4 * e3x, fm4 * e3y, J0, J1,  # Lf3 h
                 36.0 * e2x, 36.0 * e2y, xdd0 * xddd0, xdd1 * xddd1,
                 24.0 * e1x, 24.0 * e1y, xdd3_0, xdd3_1),
            )
        for entry in chain:
            pairs += entry
        dot_counts.append([len(entry) // 4 for entry in chain])
    vecs = np.array(pairs + eta3).reshape(-1, 2, 2)
    n = len(pairs) // 4
    dots = np.vecdot(vecs[:n, 0], vecs[:n, 1]).tolist()
    a_rows = fm4 * (vecs[n:, :1] @ prods[1])

    rows = []
    k = 0
    for (_, gains), h, a, counts in zip(specs, h_values, a_rows, dot_counts):
        entries = []
        for count in counts:
            value = dots[k]
            for d in dots[k + 1:k + count]:
                value -= d
            entries.append(value)
            k += count
        H = np.array([h, *entries[:-1]])
        rows.append((a[0], entries[-1] + float(gains.K @ H), h, H))
    return rows


def barrier_h(x: list[float], specs: Sequence[BarrierSpec]) -> list[float]:
    """Each spec's barrier value at the flat state x: rectellipse_h of its
    constrained states, bit for bit, with every fourth power of the step
    taken in one call of numpy's pow."""
    scaled = [(x[k] - c) / p for spec in specs for k, c, p in zip(spec.idx, spec.c, spec.p)]
    powers = iter(np.power(scaled, 4.0).tolist())
    values = []
    for spec in specs:
        total = 0.0  # summed in rectellipse_h's order
        for _ in spec.idx:
            total += next(powers)
        values.append(1.0 - total)
    return values
