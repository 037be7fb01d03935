"""Safety-filter QP solvers: exactness, KKT conditions, and fallbacks."""

import numpy as np
import pytest

from quadsafe.barriers import BarrierDomain, BarrierSpec, EcbfGains
from quadsafe.dynamics import QuadParams, QuadState, flat_of
from quadsafe.qp import (
    InfeasiblePolicy,
    QpProblem,
    QpSolution,
    QpStatus,
    filter_torque,
    kkt_residual,
    least_infeasible,
    solve_qp,
    thrust_filter,
)


def row(a, b):
    return np.atleast_1d(np.asarray(a, float)), float(b)


def problem_1d(u_hat, rows, lo=0.0, hi=36.0):
    return QpProblem(u_hat=np.array([float(u_hat)]), rows=tuple(rows),
                     lower=np.array([lo]), upper=np.array([hi]))


def problem_2d(u_hat, rows, bound=20.0):
    return QpProblem(u_hat=np.asarray(u_hat, float), rows=tuple(rows),
                     lower=np.array([-bound, -bound]),
                     upper=np.array([bound, bound]))


class TestScalar:
    def test_pass_through_when_unconstrained(self):
        sol = solve_qp(problem_1d(5.0, []))
        assert sol.status is QpStatus.OPTIMAL
        assert sol.u_star[0] == 5.0

    def test_single_lower_bound_row(self):
        # u + (-10) >= 0  -> u >= 10
        sol = solve_qp(problem_1d(5.0, [row(1.0, -10.0)]))
        assert sol.u_star[0] == pytest.approx(10.0)
        assert sol.active_set == (0,)

    def test_single_upper_bound_row(self):
        # -u + 3 >= 0 -> u <= 3
        sol = solve_qp(problem_1d(5.0, [row(-1.0, 3.0)]))
        assert sol.u_star[0] == pytest.approx(3.0)

    def test_interval_intersection(self):
        sol = solve_qp(problem_1d(0.0, [row(1.0, -2.0), row(-0.5, 4.0)]))
        assert sol.u_star[0] == pytest.approx(2.0)  # feasible [2, 8]

    def test_infeasible_empty_interval(self):
        sol = solve_qp(problem_1d(5.0, [row(1.0, -10.0), row(-1.0, 3.0)]))
        assert sol.status is QpStatus.INFEASIBLE

    def test_infeasible_zero_gain_row(self):
        # 0*u - 1 >= 0 can never hold.
        sol = solve_qp(problem_1d(5.0, [row(0.0, -1.0)]))
        assert sol.status is QpStatus.INFEASIBLE

    def test_box_clamps_nominal(self):
        sol = solve_qp(problem_1d(50.0, []))
        assert sol.u_star[0] == 36.0


class TestPlanar:
    def test_pass_through(self):
        sol = solve_qp(problem_2d([1.0, -2.0], []))
        assert np.allclose(sol.u_star, [1.0, -2.0])
        assert sol.active_set == ()

    def test_halfplane_projection(self):
        # a.u + b >= 0 with a=(1,0), b=-5: project (0,0) onto x >= 5.
        sol = solve_qp(problem_2d([0.0, 0.0], [row([1.0, 0.0], -5.0)]))
        assert np.allclose(sol.u_star, [5.0, 0.0])

    def test_oblique_projection(self):
        # x + y >= 4 from origin -> (2, 2).
        sol = solve_qp(problem_2d([0.0, 0.0], [row([1.0, 1.0], -4.0)]))
        assert np.allclose(sol.u_star, [2.0, 2.0])

    def test_vertex_of_two_rows(self):
        sol = solve_qp(problem_2d([0.0, 0.0],
                                  [row([1.0, 0.0], -3.0), row([0.0, 1.0], -2.0)]))
        assert np.allclose(sol.u_star, [3.0, 2.0])
        assert set(sol.active_set) == {0, 1}

    def test_box_corner(self):
        sol = solve_qp(problem_2d([25.0, -25.0], []))
        assert np.allclose(sol.u_star, [20.0, -20.0])

    def test_parallel_conflicting_rows_infeasible(self):
        sol = solve_qp(problem_2d([0.0, 0.0],
                                  [row([1.0, 0.0], -5.0), row([-1.0, 0.0], 2.0)]))
        assert sol.status is QpStatus.INFEASIBLE

    def test_near_parallel_rows_do_not_crash(self):
        sol = solve_qp(problem_2d([0.0, 0.0],
                                  [row([1.0, 1.0], -4.0),
                                   row([1.0, 1.0 + 1e-13], -4.0)]))
        assert sol.status is QpStatus.OPTIMAL

    def test_kkt_residual_small_on_random_problems(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n_rows = rng.integers(0, 4)
            rows = [row(rng.normal(size=2), rng.normal()) for _ in range(n_rows)]
            p = problem_2d(rng.normal(size=2) * 10.0, rows, bound=5.0)
            sol = solve_qp(p)
            if sol.status is QpStatus.OPTIMAL:
                assert kkt_residual(p, sol) <= 1e-8

    def test_grid_oracle_agreement(self):
        # Brute-force grid search over the box must not beat the solver.
        rng = np.random.default_rng(23)
        xs = np.linspace(-5.0, 5.0, 101)
        X, Y = np.meshgrid(xs, xs)
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        for _ in range(50):
            rows = [row(rng.normal(size=2), rng.normal()) for _ in range(2)]
            p = problem_2d(rng.normal(size=2) * 4.0, rows, bound=5.0)
            sol = solve_qp(p)
            feas = np.ones(len(pts), dtype=bool)
            for a, b in rows:
                feas &= pts @ a + b >= -1e-9
            if sol.status is QpStatus.OPTIMAL and np.any(feas):
                grid_best = np.min(np.sum((pts[feas] - p.u_hat) ** 2, axis=1))
                ours = np.sum((sol.u_star - p.u_hat) ** 2)
                assert ours <= grid_best + 1e-9


class TestLeastInfeasible:
    def test_minimizes_worst_violation(self):
        # u >= 10 and u <= 3: min-max violation at the midpoint 6.5.
        p = problem_1d(0.0, [row(1.0, -10.0), row(-1.0, 3.0)])
        u = least_infeasible(p)
        assert u[0] == pytest.approx(6.5, abs=1e-6)

    def test_respects_box(self):
        p = problem_1d(0.0, [row(1.0, -100.0)])
        u = least_infeasible(p)
        assert u[0] == pytest.approx(36.0)

    def test_ties_break_toward_nominal(self):
        # x >= 25 is infeasible in a +-20 box; violation is minimized on the
        # whole face x = 20, and the fallback must pick y = nominal y there,
        # not a corner.
        p = problem_2d([0.0, 3.0], [row([1.0, 0.0], -25.0)])
        u = least_infeasible(p)
        assert u[0] == pytest.approx(20.0, abs=1e-6)
        assert u[1] == pytest.approx(3.0, abs=1e-6)


class TestFilters:
    def setup_method(self):
        self.params = QuadParams()
        self.alt_spec = BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0])
        self.alt_gains = EcbfGains(2, (-3.0, -4.0))
        self.vel_spec = BarrierSpec(BarrierDomain.LATERAL_VELOCITY,
                                    [0.0, 0.0], [1.25, 0.9])
        self.vel_gains = EcbfGains(3, (-3.0, -4.0, -5.0))

    def test_thrust_pass_through_deep_inside(self):
        # Hover at the center of the region: z = 0, zdot = 0, level.
        f_hat = self.params.m * self.params.g
        f_star, (_, status, _, _), _ = thrust_filter(
            0.0, 0.0, 1.0, f_hat, [(self.alt_spec, self.alt_gains)], self.params)
        assert f_star == pytest.approx(f_hat)
        assert status is QpStatus.OPTIMAL

    def test_thrust_intervenes_near_boundary(self):
        # Climbing fast just below the upper z limit: thrust must rise above
        # nominal to brake (thrust opposes +z motion in this frame).
        f_hat = self.params.m * self.params.g
        f_star, _, _ = thrust_filter(
            1.95, 2.0, 1.0, f_hat, [(self.alt_spec, self.alt_gains)], self.params)
        assert f_star > f_hat

    def test_thrust_rejects_lateral_domain(self):
        with pytest.raises(ValueError):
            thrust_filter(0.0, 0.0, 1.0, 4.0, [(self.vel_spec, self.vel_gains)],
                          self.params)

    def test_torque_pass_through_deep_inside(self):
        tau = np.array([0.3, -0.2])
        m_star, sol, rows = filter_torque(flat_of(QuadState()), tau, self.params.m * self.params.g,
                                          [(self.vel_spec, self.vel_gains)], self.params)
        assert np.allclose(m_star, tau)
        assert sol.status is QpStatus.OPTIMAL
        assert len(rows) == 1 and len(rows[0][3]) == 3

    def test_torque_rejects_altitude_domain(self):
        with pytest.raises(ValueError):
            filter_torque(flat_of(QuadState()), np.zeros(2), 4.0,
                          [(self.alt_spec, self.alt_gains)], self.params)

    def test_nominal_policy_returns_clamped_nominal(self):
        p = problem_1d(5.0, [row(0.0, -1.0)])
        sol = solve_qp(p)
        assert sol.status is QpStatus.INFEASIBLE
        f_star, _, _ = thrust_filter(
            3.0, 5.0, 1.0, 4.0, [(self.alt_spec, self.alt_gains)],
            self.params, policy=InfeasiblePolicy.NOMINAL)
        # Whatever the feasibility outcome, the result stays in the box.
        assert 0.0 <= f_star <= self.params.f_max


class TestDegenerate:
    """Duplicate rows, a nominal input on a row's boundary, and no rows."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_duplicate_rows(self, dim):
        # Each problem once with its rows as given and once with every row
        # repeated: same minimizer, and KKT still holds.
        rng = np.random.default_rng(41 + dim)
        problem = problem_1d if dim == 1 else problem_2d
        n_optimal = 0
        for _ in range(100):
            rows = [row(rng.normal(size=dim), rng.normal()) for _ in range(rng.integers(1, 3))]
            u_hat = rng.normal(size=dim) * 5.0 if dim == 2 else rng.normal() * 5.0
            single, doubled = problem(u_hat, rows), problem(u_hat, rows + rows)
            sol, sol2 = solve_qp(single), solve_qp(doubled)
            assert sol2.status is sol.status
            if sol.status is QpStatus.OPTIMAL:
                n_optimal += 1
                assert np.array_equal(sol2.u_star, sol.u_star)
                assert kkt_residual(doubled, sol2) <= 1e-8
        assert n_optimal >= 50

    @pytest.mark.parametrize("dim,u_hat,a,b", [
        (1, 2.5, 2.0, -5.0),                # lower end of the interval
        (1, 2.5, -2.0, 5.0),                # upper end of the interval
        (2, [2.0, 3.0], [1.0, -1.0], 1.0),
        (2, [0.5, -4.0], [0.0, 2.0], 8.0),
    ])
    def test_nominal_on_boundary_passes_through(self, dim, u_hat, a, b):
        # a . u_hat + b == 0 exactly: no projection, and the row is reported
        # inactive at both dimensions.
        p = (problem_1d if dim == 1 else problem_2d)(u_hat, [row(a, b)])
        assert float(np.dot(p.rows[0][0], p.u_hat)) + b == 0.0
        sol = solve_qp(p)
        assert sol.status is QpStatus.OPTIMAL
        assert np.array_equal(sol.u_star, p.u_hat)
        assert sol.active_set == ()
        assert kkt_residual(p, sol) == 0.0

    def test_least_infeasible_without_rows_clamps_nominal(self):
        for p, expected in [(problem_1d(50.0, []), [36.0]),
                            (problem_1d(-3.0, []), [0.0]),
                            (problem_2d([25.0, -30.0], []), [20.0, -20.0])]:
            assert np.array_equal(least_infeasible(p), expected)
            assert np.array_equal(solve_qp(p).u_star, expected)
