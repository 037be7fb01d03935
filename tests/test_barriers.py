"""Barrier functions, pole placement, and Lie-derivative constraint chains."""

import dataclasses
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from quadsafe.barriers import (
    DET_MIN,
    RELATIVE_DEGREE,
    STATE_INDEX,
    BarrierDomain,
    BarrierSpec,
    InvalidPoles,
    LateralSingular,
    altitude_row,
    barrier_h,
    lateral_rows,
    pole_place,
    rectellipse_h,
)
from quadsafe.config import load_preset
from quadsafe.dynamics import QuadParams, QuadState, R_of_euler, flat_of
from quadsafe.oracle import check_chain
from quadsafe.sim import run


class TestPolePlace:
    def test_second_order_coefficients(self):
        # (s+3)(s+4) = s^2 + 7 s + 12
        K = pole_place(2, (-3.0, -4.0))
        assert np.allclose(K, [12.0, 7.0])

    def test_companion_matrix_recovers_poles(self):
        # Independent check: the companion matrix of s^d + K.s must have
        # exactly the requested eigenvalues.
        for poles in [(-1.0,), (-2.0, -5.0), (-3.0, -4.0, -5.0),
                      (-3.0, -4.0, -5.0, -6.0)]:
            d = len(poles)
            K = pole_place(d, poles)
            C = np.zeros((d, d))
            C[:-1, 1:] = np.eye(d - 1)
            C[-1, :] = -K
            eig = np.sort(np.linalg.eigvals(C).real)
            assert np.allclose(eig, np.sort(poles), atol=1e-9)

    def test_rejects_nonnegative_pole(self):
        with pytest.raises(InvalidPoles):
            pole_place(2, (-3.0, 0.0))

    def test_rejects_wrong_count(self):
        with pytest.raises(InvalidPoles):
            pole_place(3, (-1.0, -2.0))


class TestSpecValidation:
    def test_state_count_per_domain(self):
        BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0])
        with pytest.raises(ValueError):
            BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0, 0.0], [2.0, 1.0])

    def test_positive_half_width(self):
        with pytest.raises(ValueError):
            BarrierSpec(BarrierDomain.LATERAL_POSITION, [0.0, 0.0], [2.0, 0.0])

    def test_half_width_fourth_power_nonzero(self):
        # Below ~1.5e-81 the fourth power underflows to 0 and the chains
        # would divide by zero; such a spec is rejected when built.
        BarrierSpec(BarrierDomain.LATERAL_POSITION, [0.0, 0.0], [2.0, 1e-80])
        for domain, n in ((BarrierDomain.ALTITUDE_POSITION, 1),
                          (BarrierDomain.LATERAL_POSITION, 2)):
            with pytest.raises(ValueError, match="underflows"):
                BarrierSpec(domain, [0.0] * n, [1e-90] * n)

    def test_gains_degree_bounds(self):
        # Every domain takes exactly one pole per relative degree.
        for domain, delta in RELATIVE_DEGREE.items():
            n = len(STATE_INDEX[domain])
            assert len(BarrierSpec(domain, [0.0] * n, [1.0] * n).K) == delta
            for count in (delta - 1, delta + 1):
                with pytest.raises(InvalidPoles, match="one pole per relative degree"):
                    BarrierSpec(domain, [0.0] * n, [1.0] * n, poles=[-1.0] * count)

    def test_alpha_is_k0(self):
        spec = BarrierSpec(BarrierDomain.ALTITUDE_POSVEL, [0.0, 0.0], [2.0, 0.75], poles=(-2.5,))
        assert spec.K[0] == pytest.approx(2.5)

    @pytest.mark.parametrize("field, value", [
        ("center", [0.0, np.nan]), ("half_width", [2.0, np.nan]),
        ("poles", [-3.0, -4.0, np.nan, -6.0]), ("active_from", np.nan),
    ], ids=["center", "half_width", "poles", "active_from"])
    def test_rejects_nan(self, field, value):
        kwargs = dict(domain=BarrierDomain.LATERAL_POSITION, center=[0.0, 0.0],
                      half_width=[2.0, 2.0], poles=[-3.0, -4.0, -5.0, -6.0], active_from=0.0)
        BarrierSpec(**kwargs)
        with pytest.raises(ValueError, match="finite"):
            BarrierSpec(**{**kwargs, field: value})

    def test_equality_and_hash_are_identity(self):
        # The generated ones would compare and hash the array fields.
        a, b = (BarrierSpec(BarrierDomain.LATERAL_POSITION, [0.0, 0.0], [2.0, 2.0])
                for _ in range(2))
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


class TestRectellipse:
    def test_center_value_one(self):
        spec = BarrierSpec(BarrierDomain.LATERAL_POSITION, [0.5, -0.5], [2.0, 3.0])
        assert rectellipse_h(np.array([0.5, -0.5]), spec) == pytest.approx(1.0)

    def test_boundary_zero(self):
        spec = BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0])
        assert rectellipse_h(np.array([2.0]), spec) == pytest.approx(0.0)
        assert rectellipse_h(np.array([-2.0]), spec) == pytest.approx(0.0)

    def test_outside_negative(self):
        spec = BarrierSpec(BarrierDomain.LATERAL_VELOCITY, [0.0, 0.0], [1.25, 0.9])
        assert rectellipse_h(np.array([1.6, 0.0]), spec) < 0.0

    def test_flatter_than_ellipse_near_axes(self):
        # The quartic region contains the ellipse with the same semi-axes.
        spec = BarrierSpec(BarrierDomain.LATERAL_POSITION, [0.0, 0.0], [1.0, 1.0])
        xy = np.array([0.9, 0.5])  # outside the circle, inside the rectellipse
        assert np.sum(xy**2) > 1.0
        assert rectellipse_h(xy, spec) > 0.0

    def test_bitwise_equal_to_array_form(self):
        # numpy's vectorized pow can round differently from float ** 4, so
        # h must keep computing the power through numpy.
        rng = np.random.default_rng(31)
        for domain in BarrierDomain:
            n = 1 if domain is BarrierDomain.ALTITUDE_POSITION else 2
            spec = BarrierSpec(domain, rng.normal(size=n), rng.uniform(0.5, 3.0, size=n))
            for _ in range(100):
                vals = rng.normal(size=n) * 3.0
                s = (vals - spec.center) / spec.half_width
                assert rectellipse_h(vals, spec) == float(1.0 - np.sum(s**4))
                assert_same_float(rectellipse_h(vals, spec), ref_rectellipse_h(vals, spec))
                assert_same_float(rectellipse_h(vals.tolist(), spec),
                                  ref_rectellipse_h(vals.tolist(), spec))
        # Offsets of exactly zero, -0.0, and at scales 1e-4..1e4 and 1e+-80.
        for domain in BarrierDomain:
            n = 1 if domain is BarrierDomain.ALTITUDE_POSITION else 2
            spec = BarrierSpec(domain, [0.0] * n, rng.uniform(0.5, 3.0, size=n))
            for scale in (0.0, -0.0, 1e-80, 1e-4, 1.0, 1e4, 1e80):
                for _ in range(20):
                    vals = (rng.normal(size=n) * scale).tolist()
                    with np.errstate(over="ignore"):
                        assert_same_float(rectellipse_h(vals, spec),
                                          ref_rectellipse_h(vals, spec))

    def test_barrier_h_picks_domain_states(self):
        x = flat_of(QuadState(r=np.array([0.3, -0.2, 1.0]), v=np.array([0.5, 0.1, -0.4])))
        spec_z = BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0])
        h_z = pytest.approx(1.0 - (1.0 / 2.0) ** 4)
        assert barrier_h(x, [spec_z]) == [h_z]
        spec_v = BarrierSpec(BarrierDomain.LATERAL_VELOCITY, [0.0, 0.0], [1.0, 1.0])
        h_v = pytest.approx(1.0 - 0.5**4 - 0.1**4)
        assert barrier_h(x, [spec_v]) == [h_v]
        assert barrier_h(x, [spec_v, spec_z]) == [h_v, h_z]
        assert barrier_h(x, []) == []

    def test_barrier_h_is_rectellipse_h_of_each_spec(self):
        # One pow call over every spec's offsets gives each spec's
        # rectellipse_h of its own states bit for bit, on random states and
        # spec lists (all four domains, repeats), with offsets at scales up to
        # 1e200 (fourth powers overflow to inf) and NaN or infinite entries.
        rng = np.random.default_rng(37)
        domains = list(BarrierDomain)
        n_checked = 0
        for _ in range(300):
            specs = []
            for _ in range(int(rng.integers(1, 7))):
                d = domains[int(rng.integers(0, 4))]
                n = len(STATE_INDEX[d])
                specs.append(BarrierSpec(d, rng.normal(size=n), rng.uniform(0.1, 5.0, size=n)))
            x = (rng.normal(size=18) * 10.0 ** rng.uniform(-3, 3, size=18)).tolist()
            for k in rng.choice(18, size=int(rng.integers(0, 4)), replace=False).tolist():
                x[k] = float(rng.choice([np.nan, np.inf, -np.inf, 1e80, -1e200, 0.0, -0.0]))
            with np.errstate(over="ignore", invalid="ignore"):
                got = barrier_h(x, specs)
                want = [rectellipse_h([x[k] for k in STATE_INDEX[s.domain]], s) for s in specs]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same_float(g, w)
                n_checked += 1
        assert n_checked > 900


class TestAltitudeChains:
    def test_position_chain_hand_computed(self):
        p = QuadParams()
        spec = BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0], poles=(-3.0, -4.0))
        a, b, h_value, H = altitude_row(spec, 1.0, 0.5, 1.0, p)
        h = 1.0 - (1.0 / 2.0) ** 4
        hdot = -4.0 * 1.0**3 * 0.5 / 2.0**4
        assert h_value == pytest.approx(h)
        assert np.allclose(H, [h, hdot])
        lf2 = -4.0 * p.g / 16.0 - 12.0 * 0.25 / 16.0
        assert b == pytest.approx(lf2 + 12.0 * h + 7.0 * hdot)
        assert a == pytest.approx(4.0 * 1.0 / (16.0 * p.m))

    def test_position_chain_thrust_direction(self):
        # Above center and rising: more thrust must push hddot up (a > 0
        # for z > c, since thrust decelerates the climb in this frame).
        p = QuadParams()
        spec = BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0], poles=(-3.0, -4.0))
        a_up = altitude_row(spec, 1.5, 0.0, 1.0, p)[0]
        a_dn = altitude_row(spec, -1.5, 0.0, 1.0, p)[0]
        assert a_up > 0.0 > a_dn

    def test_posvel_chain_hand_computed(self):
        p = QuadParams()
        spec = BarrierSpec(BarrierDomain.ALTITUDE_POSVEL, [0.0, 0.0], [2.0, 0.75], poles=(-1.0,))
        a, b, h_value, _ = altitude_row(spec, 1.0, 0.5, 1.0, p)
        h = 1.0 - (1.0 / 2.0) ** 4 - (0.5 / 0.75) ** 4
        lfh = -4.0 * 0.5 / 16.0 - 4.0 * 0.5**3 * p.g / 0.75**4
        assert h_value == pytest.approx(h)
        assert b == pytest.approx(lfh + 1.0 * h)
        assert a == pytest.approx(4.0 * 0.5**3 / (0.75**4 * p.m))


LATERAL_POS = BarrierSpec(BarrierDomain.LATERAL_POSITION, [0.0, 0.0], [2.0, 2.0],
                          poles=(-3.0, -4.0, -5.0, -6.0))
LATERAL_VEL = BarrierSpec(BarrierDomain.LATERAL_VELOCITY, [0.0, 0.0], [1.25, 0.9],
                          poles=(-3.0, -4.0, -5.0))


class TestLateralChains:
    # lateral_rows keeps W and V internal; the W/V cases read them from the
    # reference terms below, which lateral_rows reproduces bit for bit
    # (TestLateralRowsAreBitwiseTheReference).

    def test_singular_attitude_raises(self):
        p = QuadParams()
        x = flat_of(QuadState(R=R_of_euler(0.0, np.pi / 2 - 1e-4, 0.0)))
        with pytest.raises(LateralSingular):
            lateral_rows(x, p.m * p.g, [LATERAL_POS, LATERAL_VEL], p)

    def test_det_w_equals_r33(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            R = R_of_euler(*rng.uniform(-0.5, 0.5, size=3))
            terms = ref_lateral_chain_terms(flat_of(QuadState(R=R)), QuadParams())
            det = np.linalg.det(terms.W)
            assert det == pytest.approx(R[2, 2], rel=1e-12)

    def test_v_inverts_w(self):
        x = flat_of(QuadState(R=R_of_euler(0.2, -0.3, 0.7), omega=np.array([0.1, 0.2, 0.3])))
        terms = ref_lateral_chain_terms(x, QuadParams())
        assert np.allclose(terms.V @ terms.W, np.eye(2), atol=1e-12)

    def test_torque_gain_nonzero_near_boundary(self):
        p = QuadParams()
        x = flat_of(QuadState(r=np.array([1.8, 0.0, 0.0])))
        ((a, _, _, _),) = lateral_rows(x, p.m * p.g, [LATERAL_POS], p)
        assert np.linalg.norm(a) > 0.0

    def test_rejects_altitude_domain(self):
        p = QuadParams()
        x = flat_of(QuadState())
        with pytest.raises(ValueError):
            lateral_rows(x, p.m * p.g,
                         [BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0])], p)


@pytest.mark.parametrize("domain", list(BarrierDomain))
def test_chain_matches_finite_differences(domain):
    """Each analytic chain entry is the time derivative of the previous one
    along the frozen-input flow (independent numerical cross-check)."""
    chk = check_chain(domain, n_states=25, seed=99)
    assert chk.max_rel_lower <= 1e-4, chk
    assert chk.max_rel_top <= 1e-3, chk


def test_relative_degrees():
    assert RELATIVE_DEGREE[BarrierDomain.ALTITUDE_POSITION] == 2
    assert RELATIVE_DEGREE[BarrierDomain.ALTITUDE_POSVEL] == 1
    assert RELATIVE_DEGREE[BarrierDomain.LATERAL_POSITION] == 4
    assert RELATIVE_DEGREE[BarrierDomain.LATERAL_VELOCITY] == 3


def test_chain_h_sizes():
    p = QuadParams()
    x = flat_of(QuadState(r=np.array([0.5, -0.3, 0.8]), v=np.array([0.2, 0.1, -0.3]),
                          R=R_of_euler(0.1, -0.1, 0.2), omega=np.array([0.3, -0.2, 0.1])))
    f = p.m * p.g
    z, zd, R33 = x[2], x[14], x[11]
    pos_row, vel_row = lateral_rows(x, f, [LATERAL_POS, LATERAL_VEL], p)
    h_and_H = {
        2: altitude_row(
            BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0], poles=(-3.0, -4.0)),
            z, zd, R33, p)[2:],
        1: altitude_row(
            BarrierSpec(BarrierDomain.ALTITUDE_POSVEL, [0.0, 0.0], [2.0, 0.75], poles=(-1.0,)),
            z, zd, R33, p)[2:],
        4: pos_row[2:],
        3: vel_row[2:],
    }
    for delta, (h, H) in h_and_H.items():
        assert len(H) == delta
        assert H[0] == pytest.approx(h)


# ---------------------------------------------------------------------------
# Reference lateral level: the per-product numpy code that lateral_rows must
# reproduce bit for bit. Copied verbatim (only the names carry a ref_ or Ref
# prefix); each product is its own numpy call.


def ref_rectellipse_h(values, spec: BarrierSpec) -> float:
    """h = 1 - sum_j ((x_j - c_j)/p_j)^4 ; >= 0 inside the safe region."""
    total = 0.0
    for x, c, p in zip(values, spec.center.tolist(), spec.half_width.tolist(), strict=True):
        # numpy's pow, not float ** 4: the two can round differently.
        total += float(np.power((x - c) / p, 4.0))
    return 1.0 - total


@dataclass(frozen=True)
class RefLateralChainTerms:
    """Shared kinematic terms for the lateral chains (paper's W, V, A, J, L)."""

    W: np.ndarray
    V: np.ndarray
    A: np.ndarray
    Vdot: np.ndarray
    R33dot: float
    J: np.ndarray
    L_mat: np.ndarray


def ref_lateral_chain_terms(x: list[float], params: QuadParams) -> RefLateralChainTerms:
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
    return RefLateralChainTerms(W=W, V=V, A=A, Vdot=Vdot, R33dot=R33dot, J=J, L_mat=L_mat)


def ref_lateral_row(
    spec: BarrierSpec,
    x: list[float],
    f: float,
    terms: RefLateralChainTerms,
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
        return a, Lf4h + float(spec.K @ H), h, H
    # ECBF, delta=3, h(xdot, ydot) = 1 - ((xdot-c_x)/v_x)^4 - ((ydot-c_y)/v_y)^4.
    Lfh = -4.0 * eta[3] @ xy_dd
    Lf2h = -4.0 * eta[3] @ xy_ddd - 12.0 * eta[2] @ xy_dd**2
    Lf3h = (
        fm4 * eta[3] @ terms.J
        - 36.0 * eta[2] @ (xy_dd * xy_ddd)
        - 24.0 * eta[1] @ xy_dd**3
    )
    H = np.array([h, Lfh, Lf2h])
    return a, Lf3h + float(spec.K @ H), h, H


# ---------------------------------------------------------------------------


def bits(v):
    """The bytes of a float, with every NaN as one value: the sign bit of a
    NaN from a + b is not even stable in CPython, which swaps the operands
    once it specializes the bytecode."""
    return b"nan" if v != v else struct.pack("<d", v)


def assert_same_float(got, want):
    assert bits(got) == bits(want), (got, want)


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert [bits(v) for v in got.tolist()] == [bits(v) for v in want.tolist()], (got, want)


def assert_rows_bitwise_as_reference(x, f, specs, params):
    """lateral_rows gives the reference's a, b, h and H bytes for every row,
    or raises LateralSingular exactly when the reference does."""
    with np.errstate(all="ignore"):  # NaN, inf and overflow are among the cases
        try:
            terms = ref_lateral_chain_terms(x, params)
        except LateralSingular:
            with pytest.raises(LateralSingular):
                lateral_rows(x, f, specs, params)
            return None
        want = [ref_lateral_row(spec, x, f, terms, params) for spec in specs]
        got = lateral_rows(x, f, specs, params)
    assert len(got) == len(want)
    for (a, b, h, H), (a_ref, b_ref, h_ref, H_ref) in zip(got, want):
        assert a.shape == (2,)
        assert_same_array(a, a_ref)
        assert_same_float(b, b_ref)
        assert_same_float(h, h_ref)
        assert_same_array(H, H_ref)
    return got


LATERAL_STATE_KINDS = ("plain", "near_singular", "zero_rates", "offset_scale", "zero_offset",
                       "huge_offset", "nonfinite")


def adversarial_lateral_case(kind, rng):
    """A flat state, a thrust and one or both lateral specs with random
    poles, built to sit on an edge of the row arithmetic: |det W| just above (or
    below) DET_MIN, zero and -0.0 velocities and body rates, offsets from
    the center at scales 1e-4..1e4, exactly zero offsets, offsets beyond
    ~1e77 where a fourth power overflows, or NaN/inf in the state."""
    params = QuadParams(Ix=float(rng.uniform(0.05, 0.2)), Iy=float(rng.uniform(0.05, 0.2)),
                        Iz=float(rng.uniform(0.1, 0.3)))
    angles = rng.uniform(-0.6, 0.6, size=3)
    if kind == "near_singular":
        # R33 = cos(roll) cos(pitch) = det W; put it within ~1e-9 of DET_MIN.
        target = DET_MIN * (1.0 + float(rng.choice([1.0, -1.0])) * 10.0 ** rng.uniform(-15, -9))
        angles[1] = np.arccos(target / np.cos(angles[0])) * float(rng.choice([1.0, -1.0]))
    R = R_of_euler(*angles)
    r = rng.normal(size=3) * 2.0
    v = rng.normal(size=3)
    omega = rng.normal(size=3) * 2.0
    if kind == "zero_rates":
        choices = np.array([0.0, -0.0, 1e-300, 1.0])
        v = rng.choice(choices, size=3) * rng.normal(size=3)
        omega = rng.choice(choices, size=3) * rng.normal(size=3)
        v[rng.random(3) < 0.5] = -0.0
        omega[rng.random(3) < 0.5] = -0.0
    elif kind == "offset_scale":
        r[:2] = rng.normal(size=2) * 10.0 ** rng.choice([-4.0, 4.0], size=2)
        v = rng.normal(size=3) * 10.0 ** rng.choice([-4.0, 4.0], size=3)
    x = flat_of(QuadState(r=r, R=R, v=v, omega=omega))
    x[15:18] = omega.tolist()  # flat_of may normalize the signs of zeros; keep them
    x[12:15] = v.tolist()
    center = rng.normal(size=2).tolist()
    half = rng.uniform(0.3, 3.0, size=2).tolist()
    pos = BarrierSpec(BarrierDomain.LATERAL_POSITION, center, half)
    vel = BarrierSpec(BarrierDomain.LATERAL_VELOCITY, [0.0, 0.0], rng.uniform(0.3, 3.0, size=2))
    if kind == "zero_offset":
        j = int(rng.integers(0, 2))
        x[j] = center[j]  # sx or sy is exactly 0.0
        x[12 + j] = float(rng.choice([0.0, -0.0]))  # and -0.0 - 0.0 = -0.0
    elif kind == "huge_offset":
        x[int(rng.choice([0, 1, 12, 13]))] = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(
            76.5, 300.0)
    elif kind == "nonfinite":
        x[int(rng.integers(0, 18))] = float(rng.choice([np.nan, np.inf, -np.inf]))
    specs = [dataclasses.replace(pos, poles=tuple(-np.sort(rng.uniform(1.0, 30.0, size=4)))),
             dataclasses.replace(vel, poles=tuple(-np.sort(rng.uniform(1.0, 30.0, size=3))))]
    pick = int(rng.integers(0, 3))
    specs = specs if pick == 2 else [specs[pick]]
    f = float(rng.uniform(0.0, 36.0)) if rng.random() < 0.9 else float(rng.choice([0.0, -0.0]))
    return x, f, specs, params


class TestLateralRowsAreBitwiseTheReference:
    """lateral_rows returns, for every row, exactly the a, b, h and H bytes
    of the per-product numpy reference above."""

    @pytest.mark.parametrize("kind", LATERAL_STATE_KINDS)
    def test_seeded_adversarial_states(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)) + 7)
        n_rows = n_singular = 0
        for _ in range(400):
            got = assert_rows_bitwise_as_reference(*adversarial_lateral_case(kind, rng))
            if got is None:
                n_singular += 1
            else:
                n_rows += len(got)
        assert n_rows >= 200
        if kind == "near_singular":
            assert n_singular >= 100

    @pytest.mark.parametrize("preset", ["fig5-lateral-pos", "fig6-velocity-switch",
                                        "fig7-unified"])
    def test_every_lateral_row_of_a_preset_second(self, monkeypatch, preset):
        import quadsafe.qp as qp

        calls = []
        rows = qp.lateral_rows

        def recording(x, f, specs, params):
            calls.append((list(x), f, list(specs), params))
            return rows(x, f, specs, params)

        monkeypatch.setattr(qp, "lateral_rows", recording)
        run(dataclasses.replace(load_preset(preset), duration=1.0))
        assert len(calls) == 1000
        for call in calls:
            assert assert_rows_bitwise_as_reference(*call) is not None
