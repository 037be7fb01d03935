"""Rectellipse barrier functions and their exact Lie-derivative chains.

Four barrier families are supported, each one row of FAMILIES; the
altitude ones are ALTITUDE_DOMAINS, the lateral ones LATERAL_DOMAINS:

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
dot, pow) in one batched call of the numpy kernel that rounds it, for one
state or for a block of states at once; a power that overflows gives a
block's state non-finite cells. All higher derivatives of position are
closed-form functions of the flat rigid-body state; no numerical
differentiation is involved.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import NonFiniteState, QuadParams, check_fields

DET_MIN = 1e-3  # lower bound on |det W| before the lateral map is declared singular
_POWERS = np.array([3.0, 3.0, 4.0, 4.0, 3.0, 3.0])  # of (xdot, ydot, xdot, ydot, xddot, yddot)
_OFFSET_POWERS = np.array([2.0, 3.0, 4.0])  # of the offsets from a lateral center


class LateralSingular(ValueError):
    """W (lateral rate map) is numerically singular, e.g. near 90 deg tilt."""


class InvalidPoles(ValueError):
    """ECBF pole placement requires strictly negative real poles."""


class BarrierDomain(enum.Enum):
    ALTITUDE_POSITION = "altitude_position"
    ALTITUDE_POSVEL = "altitude_posvel"
    LATERAL_POSITION = "lateral_position"
    LATERAL_VELOCITY = "lateral_velocity"


class Family(NamedTuple):
    """A barrier family's relative degree, the flat-state indices of its
    constrained states, and its default region and ECBF poles."""

    delta: int
    idx: tuple[int, ...]
    center: tuple[float, ...]
    half_width: tuple[float, ...]
    poles: tuple[float, ...]


FAMILIES = {
    BarrierDomain.ALTITUDE_POSITION: Family(2, (2,), (0.0,), (2.0,), (-3.0, -4.0)),
    BarrierDomain.ALTITUDE_POSVEL: Family(1, (2, 14), (0.0, 0.0), (2.0, 0.75), (-1.0,)),
    BarrierDomain.LATERAL_POSITION: Family(4, (0, 1), (0.0, 0.0), (2.0, 2.0),
                                           (-3.0, -4.0, -5.0, -6.0)),
    BarrierDomain.LATERAL_VELOCITY: Family(3, (12, 13), (0.0, 0.0), (1.25, 0.9),
                                           (-3.0, -4.0, -5.0)),
}
# The families of the thrust QP and of the moment QP.
ALTITUDE_DOMAINS = (BarrierDomain.ALTITUDE_POSITION, BarrierDomain.ALTITUDE_POSVEL)
LATERAL_DOMAINS = (BarrierDomain.LATERAL_POSITION, BarrierDomain.LATERAL_VELOCITY)


@dataclass(frozen=True, eq=False)
class BarrierSpec:
    """One rectellipse safety region, its ECBF poles and its activation time.

    ``center`` and ``half_width`` are per constrained state, in the order
    the domain lists them: (z,) / (z, zdot) / (x, y) / (xdot, ydot).
    Velocity states in mixed barriers are always centered at zero.
    ``poles`` (default: the family's) are one per relative degree; the chain
    gains K = pole_place(delta, poles), and for delta = 1 the condition is
    hdot + alpha h >= 0 with alpha = K[0] = -pole. The spec is active from
    ``active_from`` to the next activation on its domain, which supersedes it.
    Specs compare and hash by identity, as their fields hold arrays.
    """

    domain: BarrierDomain
    center: np.ndarray
    half_width: np.ndarray
    poles: tuple[float, ...] | None = None
    active_from: float = 0.0
    K: np.ndarray = field(init=False, repr=False)
    # For the per-step kernels: the constrained states' flat-state indices,
    # and float copies of center, half_width and half_width ** 4 (numpy's pow).
    idx: tuple[int, ...] = field(init=False, repr=False)
    c: tuple[float, ...] = field(init=False, repr=False)
    p: tuple[float, ...] = field(init=False, repr=False)
    p4: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        family = FAMILIES[self.domain]
        n = len(family.idx)
        check_fields(self, {"center": n, "half_width": n, "active_from": 0})
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "half_width", np.asarray(self.half_width, dtype=float))
        if np.any(self.half_width <= 0.0):
            raise ValueError("half_width must be strictly positive")
        if self.domain is BarrierDomain.ALTITUDE_POSVEL and self.center[1] != 0.0:
            raise ValueError("altitude_posvel's velocity center must be 0")
        object.__setattr__(self, "idx", family.idx)
        object.__setattr__(self, "c", tuple(self.center.tolist()))
        object.__setattr__(self, "p", tuple(self.half_width.tolist()))
        with np.errstate(over="ignore"):
            object.__setattr__(self, "p4", tuple((self.half_width**4).tolist()))
        if min(self.p4) == 0.0:  # the chains divide by it
            raise ValueError("half_width is too small: its fourth power underflows to 0")
        if max(self.p4) == math.inf:
            raise ValueError("half_width is too large: its fourth power overflows")
        poles = family.poles if self.poles is None else self.poles
        object.__setattr__(self, "poles", tuple(float(p) for p in poles))
        object.__setattr__(self, "K", pole_place(family.delta, self.poles))


def pole_place(delta: int, poles) -> np.ndarray:
    """Chain gains from desired closed-loop poles.

    Returns K with K[j] = coefficient of s^j in prod_i (s - pole_i),
    excluding the leading s^delta term, so that the companion matrix of
    s^delta + K[delta-1] s^(delta-1) + ... + K[0] has exactly these poles.
    """
    poles = tuple(float(p) for p in poles)
    if len(poles) != delta or delta < 1:
        raise InvalidPoles("need one pole per relative degree")
    if not all(map(math.isfinite, poles)):
        raise InvalidPoles("poles must be finite")
    if any(p >= 0.0 for p in poles):
        raise InvalidPoles("all poles must be strictly negative")
    coeffs = np.poly(poles)  # highest degree first, leading 1
    return coeffs[1:][::-1].copy()  # [k0, ..., k_{delta-1}]


def altitude_row(
    spec: BarrierSpec,
    z: float | np.ndarray,
    zd: float | np.ndarray,
    R33: float | np.ndarray,
    params: QuadParams,
) -> tuple[float | np.ndarray, float | np.ndarray, float | np.ndarray, np.ndarray]:
    """Core of the two altitude chains: (a, b, h, H) of the row a * f + b >= 0
    at altitude z, climb rate zd and attitude entry R33, as floats, or at
    each of k states given as (k,) columns. For one state a, b and h are
    floats and H is a (delta,) array; for k states a, b and h are (k,), H is
    (k, delta), and row i of each is state i's, bit for bit.

    Every power is libm's pow: math.pow of a float, np.float_power of a
    column. For k states K . H is one np.vecdot over the rows of H, which
    gives each row the bits of the single state's K.dot(H). Where a power
    of a finite value overflows, one state's call raises NonFiniteState
    (math.pow raises OverflowError rather than give inf), and a state of
    k gets non-finite cells. Columns are computed with numpy's
    floating-point warnings off, so that none escapes."""
    if isinstance(z, float):
        try:
            return _altitude_row(spec, z, zd, R33, params, None)
        except OverflowError:
            raise NonFiniteState(
                f"{spec.domain.value} barrier overflows at z = {z:.3g}, zdot = {zd:.3g}"
            ) from None
    with np.errstate(all="ignore"):
        return _altitude_row(spec, z, zd, R33, params, len(z))


def _altitude_row(spec, z, zd, R33, params, k):
    """altitude_row's body, for floats (k is None) or k-state columns."""
    pw = math.pow if k is None else np.float_power
    if spec.domain is BarrierDomain.ALTITUDE_POSITION:
        # ECBF, delta=2, h(z) = 1 - ((z-c)/p_z)^4.
        (c,), (pz,) = spec.c, spec.p
        s = z - c
        pz4 = pw(pz, 4.0)
        h = 1.0 - pw(s / pz, 4.0)
        s3 = pw(s, 3.0)
        Lfh = -4.0 * s3 * zd / pz4
        Lf2h = -4.0 * s3 * params.g / pz4 - 12.0 * pw(s, 2.0) * pw(zd, 2.0) / pz4
        a = 4.0 * s3 * R33 / (pz4 * params.m)
        if k is None:
            H = np.array([h, Lfh])
            return a, Lf2h + float(spec.K.dot(H)), h, H
        H = _pack([h, Lfh], k)
        return a, Lf2h + np.vecdot(H, spec.K), h, H
    if spec.domain is BarrierDomain.ALTITUDE_POSVEL:
        # CBF, delta=1, h(z, zdot) = 1 - ((z-c)/p_z)^4 - (zdot/v_z)^4.
        cz, (pz, vz) = spec.c[0], spec.p
        s = z - cz
        h = 1.0 - pw(s / pz, 4.0) - pw(zd / vz, 4.0)
        zd3, vz4 = pw(zd, 3.0), pw(vz, 4.0)
        Lfh = -4.0 * pw(s, 3.0) * zd / pw(pz, 4.0) - 4.0 * zd3 * params.g / vz4
        a = 4.0 * zd3 * R33 / (vz4 * params.m)
        H = np.array([h]) if k is None else _pack([h], k)
        return a, Lfh + spec.K.item(0) * h, h, H
    raise ValueError(f"not an altitude barrier: {spec.domain}")


def _pack(values: list, k: int | None, shape: tuple[int, ...] | None = None,
          operand_axes: int = 1) -> np.ndarray:
    """One state's values (floats) as an array of the given shape (default:
    flat); or k states' values ((k,) arrays, a float among them standing for
    every state) as that shape with a state axis inserted before its last
    operand_axes axes, so that each state's vectors (1) or matrices (2)
    keep the single state's contiguous layout."""
    if k is None:
        return np.array(values) if shape is None else np.array(values).reshape(shape)
    out = np.empty((k, len(values)))
    for j, value in enumerate(values):
        out[:, j] = value
    if shape is None:
        return out
    return np.moveaxis(out.reshape(k, *shape), 0, -1 - operand_axes)


def _unpack(arr: np.ndarray, k: int | None, axis: int) -> list:
    """One state's entries of arr in C order, as floats; or, for k states
    along the given axis, each entry's (k,) array."""
    if k is None:
        return arr.reshape(-1).tolist()
    return list(np.moveaxis(arr, axis, -1).reshape(-1, k))


def _offset_powers(s: float | np.ndarray) -> tuple:
    """(s ** 2, s ** 3, s ** 4) by libm's pow, as numpy's scalar ** takes
    them: math.pow for a float, np.float_power for an array; inf on
    overflow."""
    if isinstance(s, float):
        try:
            return math.pow(s, 2.0), math.pow(s, 3.0), math.pow(s, 4.0)
        except OverflowError:
            pass
    return tuple(np.float_power.outer(s, _OFFSET_POWERS).T)


def lateral_rows(
    x: list[float] | np.ndarray,
    f: float | np.ndarray,
    specs: Sequence[BarrierSpec],
    params: QuadParams,
) -> list[tuple[np.ndarray, float | np.ndarray, float | np.ndarray, np.ndarray]]:
    """(a, b, h, H) of the row a . [tau_x, tau_y] + b >= 0 of each lateral
    spec, at the flat state x (18 floats) under thrust f, or at each of the
    k flat states of a (k, 18) array x under the thrusts of a (k,) array f.

    The thrust f already fixed for this step enters the drift; the chains
    are exact for zero-order-hold thrust. All rows share the kinematic terms:
    W = [[R21, -R11], [R22, -R12]], which maps (Rdot13, Rdot23) to R33*(p, q),
    its inverse V, the exact Vdot (from Rdot = R [w]x), and the drift/input
    maps J, L of the second derivative of (R13, R23). For one state a is a
    (2,) array, b and h are floats and H is a (delta,) array; for k states a
    is (k, 2), b and h are (k,) and H is (k, delta), and row i of each is
    state i's, bit for bit. LateralSingular is raised if any state's W is
    singular.

    Elementwise arithmetic runs on floats, or on (k,) arrays of them, which
    round as numpy's elementwise operations do. Every product that floats
    cannot reproduce goes, with all others of its kind over specs and states,
    through one batched call of the numpy kernel that computes it, each
    state's operands in the single state's layout: the 2x2 matrix products,
    the matrix-vector and vector-matrix products, the 2-vector dots
    (np.vecdot, the kernel of a 1-D a @ b), numpy's pow for the cubes and
    fourth powers of the derivatives of (x, y), and libm's pow
    (np.float_power, which numpy's scalar ** calls) for the powers of the
    offsets from the center.
    """
    k = len(x) if isinstance(x, np.ndarray) and x.ndim == 2 else None
    if k is not None:
        x = list(x.T)  # each entry of the flat state as a (k,) column
    R11, R12, R13, R21, R22, R23, R31, R32, R33 = x[3:12]
    p, q, r = x[15:18]
    det = R21 * -R12 - -R11 * R22  # det W
    singular = abs(det) < DET_MIN
    if singular if k is None else singular.any():
        low = abs(det) if k is None else abs(det)[singular].min()
        raise LateralSingular(f"|det W| = {low:.2e} below {DET_MIN}")
    V00, V01, V10, V11 = -R12 / det, R11 / det, -R22 / det, R21 / det
    # Entry-wise Rdot from Rdot = R [w]x.
    Rd11 = R12 * r - R13 * q
    Rd21 = R22 * r - R23 * q
    Rd12 = -R11 * r + R13 * p
    Rd22 = -R21 * r + R23 * p
    R33dot = R31 * q - R32 * p
    Ix, Iy, Iz = params.Ix, params.Iy, params.Iz
    mats = _pack([
        -V00, -V01, -V10, -V11,
        R33 * V00, R33 * V01, R33 * V10, R33 * V11,
        Rd21, -Rd11, Rd22, -Rd12,  # Wdot
        1.0 / Ix, 0.0, 0.0, 1.0 / Iy,
        V00, V01, V10, V11,
        0.0, 0.0, 0.0, 0.0,  # Vdot goes here
        p, q, (Iy - Iz) / Ix * q * r, (Iz - Ix) / Iy * p * r,  # A and the gyroscopic term
    ], k, (7, 2, 2), 2)
    # (-V) Wdot, and L = (R33 V) diag(1/Ix, 1/Iy).
    prods = mats[0:2] @ mats[2:4]
    np.matmul(prods[0], mats[4], out=mats[5])  # Vdot = (-V) Wdot V
    # V A, V gyro, Vdot A and (unused) Vdot gyro, A and gyro as (2, 1) columns
    # (the swap puts the two ahead of the state axis).
    VA0, VA1, Vg0, Vg1, VdA0, VdA1, _, _ = _unpack(
        mats[4:6, None] @ mats[6].swapaxes(0, -2)[..., None], k, -3)
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
    xd3_0, xd3_1, xd4_0, xd4_1, xdd3_0, xdd3_1 = _unpack(
        np.power(_pack([xd0, xd1, xd0, xd1, xdd0, xdd1], k), _POWERS), k, -2)

    # Every chain entry L_f^k h is a difference of 2-vector dots u . w, taken
    # in the order numpy took them one by one: the first dot minus the rest.
    # chain holds, per entry, u0, u1, w0, w1 of each of its dots; eta3 holds
    # each row's eta3, for fm4 (eta3 @ L).
    chains = []
    pairs: list = []
    eta3: list = []
    h_values = []
    for spec in specs:
        (ix, iy), (cx, cy), (px4, py4) = spec.idx, spec.c, spec.p4
        # The offsets from the center; their powers 0 and 1 are exactly 1.0
        # and the offset.
        sx, sy = x[ix] - cx, x[iy] - cy
        sx2, sx3, sx4 = _offset_powers(sx)
        sy2, sy3, sy4 = _offset_powers(sy)
        e0x, e1x, e2x, e3x = 1.0 / px4, sx / px4, sx2 / px4, sx3 / px4
        e0y, e1y, e2y, e3y = 1.0 / py4, sy / py4, sy2 / py4, sy3 / py4
        h_values.append(1.0 - sx4 / px4 - sy4 / py4)
        eta3 += (e3x, e3y, 0.0, 0.0)
        m4x, m4y = -4.0 * e3x, -4.0 * e3y
        if spec.domain is BarrierDomain.LATERAL_POSITION:
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
        elif spec.domain is BarrierDomain.LATERAL_VELOCITY:
            # ECBF, delta=3, h(xdot, ydot) = 1 - ((xdot-c_x)/v_x)^4 - ((ydot-c_y)/v_y)^4.
            chain = (
                (m4x, m4y, xdd0, xdd1),  # Lf h
                (m4x, m4y, xddd0, xddd1,  # Lf2 h
                 12.0 * e2x, 12.0 * e2y, xdd0 * xdd0, xdd1 * xdd1),
                (fm4 * e3x, fm4 * e3y, J0, J1,  # Lf3 h
                 36.0 * e2x, 36.0 * e2y, xdd0 * xddd0, xdd1 * xddd1,
                 24.0 * e1x, 24.0 * e1y, xdd3_0, xdd3_1),
            )
        else:
            raise ValueError(f"not a lateral barrier: {spec.domain}")
        chains.append(chain)
        for entry in chain:
            pairs += entry
    vecs = _pack(pairs + eta3, k, (-1, 2, 2))
    n = len(pairs) // 4
    dots = _unpack(np.vecdot(vecs[:n, 0], vecs[:n, 1]), k, -1)
    # Every row's a = fm4 (eta3 @ L), eta3 as a (1, 2) row, in one broadcast
    # product; each a is a view of it.
    a_rows = (fm4 if k is None else fm4[:, None, None]) * (vecs[n:, 0, ..., None, :] @ prods[1])
    a_rows = a_rows[..., 0, :]

    rows = []
    j = 0
    for a, spec, chain, h in zip(a_rows, specs, chains, h_values):
        entries = []
        for entry in chain:
            count = len(entry) // 4
            value = dots[j]
            for d in dots[j + 1:j + count]:
                value = value - d
            entries.append(value)
            j += count
        H = _pack([h, *entries[:-1]], k)
        KH = float(spec.K @ H) if k is None else np.vecdot(H, spec.K)
        rows.append((a, entries[-1] + KH, h, H))
    return rows


def barrier_h_column(x: np.ndarray, spec: BarrierSpec) -> np.ndarray:
    """The barrier value h = 1 - sum_j ((x_j - c_j) / p_j)^4 of one spec,
    >= 0 inside its safe region, at each row of a block of flat states
    (n, 18). numpy's pow on a column rounds as on each state's own offsets,
    so a state's h has the same bits in a block as in a one-row block."""
    powers = np.power((x[:, list(spec.idx)] - spec.center) / spec.half_width, 4.0)
    total = 0.0  # summed in constrained-state order
    for col in powers.T:
        total = total + col
    return 1.0 - total
