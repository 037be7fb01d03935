"""Barrier functions, pole placement, and Lie-derivative constraint chains."""

import numpy as np
import pytest

from quadsafe.barriers import (
    RELATIVE_DEGREE,
    BarrierDomain,
    BarrierSpec,
    EcbfGains,
    InvalidPoles,
    LateralSingular,
    altitude_row,
    barrier_h,
    lateral_chain_terms,
    lateral_row,
    pole_place,
    rectellipse_h,
)
from quadsafe.dynamics import QuadParams, QuadState, R_of_euler, flat_of
from quadsafe.oracle import check_chain


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

    def test_gains_degree_bounds(self):
        with pytest.raises(ValueError):
            EcbfGains(5, (-1.0, -1.0, -1.0, -1.0, -1.0))

    def test_alpha_is_k0(self):
        g = EcbfGains(1, (-2.5,))
        assert g.alpha == pytest.approx(2.5)


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

    def test_barrier_h_picks_domain_states(self):
        x = flat_of(QuadState(r=np.array([0.3, -0.2, 1.0]), v=np.array([0.5, 0.1, -0.4])))
        spec_z = BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0])
        assert barrier_h(x, spec_z) == pytest.approx(1.0 - (1.0 / 2.0) ** 4)
        spec_v = BarrierSpec(BarrierDomain.LATERAL_VELOCITY, [0.0, 0.0], [1.0, 1.0])
        assert barrier_h(x, spec_v) == pytest.approx(1.0 - 0.5**4 - 0.1**4)


class TestAltitudeChains:
    def test_position_chain_hand_computed(self):
        p = QuadParams()
        spec = BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0])
        gains = EcbfGains(2, (-3.0, -4.0))
        a, b, h_value, H = altitude_row(spec, gains, 1.0, 0.5, 1.0, p)
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
        spec = BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0])
        gains = EcbfGains(2, (-3.0, -4.0))
        a_up = altitude_row(spec, gains, 1.5, 0.0, 1.0, p)[0]
        a_dn = altitude_row(spec, gains, -1.5, 0.0, 1.0, p)[0]
        assert a_up > 0.0 > a_dn

    def test_posvel_chain_hand_computed(self):
        p = QuadParams()
        spec = BarrierSpec(BarrierDomain.ALTITUDE_POSVEL, [0.0, 0.0], [2.0, 0.75])
        gains = EcbfGains(1, (-1.0,))
        a, b, h_value, _ = altitude_row(spec, gains, 1.0, 0.5, 1.0, p)
        h = 1.0 - (1.0 / 2.0) ** 4 - (0.5 / 0.75) ** 4
        lfh = -4.0 * 0.5 / 16.0 - 4.0 * 0.5**3 * p.g / 0.75**4
        assert h_value == pytest.approx(h)
        assert b == pytest.approx(lfh + 1.0 * h)
        assert a == pytest.approx(4.0 * 0.5**3 / (0.75**4 * p.m))


class TestLateralChains:
    def test_singular_attitude_raises(self):
        x = flat_of(QuadState(R=R_of_euler(0.0, np.pi / 2 - 1e-4, 0.0)))
        with pytest.raises(LateralSingular):
            lateral_chain_terms(x, QuadParams())

    def test_det_w_equals_r33(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            R = R_of_euler(*rng.uniform(-0.5, 0.5, size=3))
            terms = lateral_chain_terms(flat_of(QuadState(R=R)), QuadParams())
            det = np.linalg.det(terms.W)
            assert det == pytest.approx(R[2, 2], rel=1e-12)

    def test_v_inverts_w(self):
        x = flat_of(QuadState(R=R_of_euler(0.2, -0.3, 0.7), omega=np.array([0.1, 0.2, 0.3])))
        terms = lateral_chain_terms(x, QuadParams())
        assert np.allclose(terms.V @ terms.W, np.eye(2), atol=1e-12)

    def test_torque_gain_nonzero_near_boundary(self):
        p = QuadParams()
        spec = BarrierSpec(BarrierDomain.LATERAL_POSITION, [0.0, 0.0], [2.0, 2.0])
        gains = EcbfGains(4, (-3.0, -4.0, -5.0, -6.0))
        x = flat_of(QuadState(r=np.array([1.8, 0.0, 0.0])))
        a, _, _, _ = lateral_row(spec, gains, x, p.m * p.g, lateral_chain_terms(x, p), p)
        assert np.linalg.norm(a) > 0.0

    def test_rejects_altitude_domain(self):
        p = QuadParams()
        x = flat_of(QuadState())
        with pytest.raises(ValueError):
            lateral_row(BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0]),
                        EcbfGains(2, (-3.0, -4.0)), x, p.m * p.g,
                        lateral_chain_terms(x, p), p)


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
    terms = lateral_chain_terms(x, p)
    h_and_H = {
        2: altitude_row(
            BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0]),
            EcbfGains(2, (-3.0, -4.0)), z, zd, R33, p)[2:],
        1: altitude_row(
            BarrierSpec(BarrierDomain.ALTITUDE_POSVEL, [0.0, 0.0], [2.0, 0.75]),
            EcbfGains(1, (-1.0,)), z, zd, R33, p)[2:],
        4: lateral_row(
            BarrierSpec(BarrierDomain.LATERAL_POSITION, [0.0, 0.0], [2.0, 2.0]),
            EcbfGains(4, (-3.0, -4.0, -5.0, -6.0)), x, f, terms, p)[2:],
        3: lateral_row(
            BarrierSpec(BarrierDomain.LATERAL_VELOCITY, [0.0, 0.0], [1.25, 0.9]),
            EcbfGains(3, (-3.0, -4.0, -5.0)), x, f, terms, p)[2:],
    }
    for delta, (h, H) in h_and_H.items():
        assert len(H) == delta
        assert H[0] == pytest.approx(h)
