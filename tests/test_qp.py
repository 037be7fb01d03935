"""Safety-filter QP solvers: exactness, KKT conditions, and fallbacks."""

import dataclasses
import itertools
import struct
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import quadsafe.qp as qp
from quadsafe.barriers import BarrierDomain, BarrierSpec, altitude_row, lateral_rows
from quadsafe.config import load_preset
from quadsafe.dynamics import NonFiniteState, QuadParams, QuadState, flat_of
from quadsafe.qp import QpSolution, QpStatus, finite_rows, least_infeasible, solve_qp
from quadsafe.sim import run

from kkt import kkt_residual


class Problem(NamedTuple):
    """solve_qp's float arguments, bundled: solve_qp(*p)."""

    u_hat: list[float]
    rows: tuple[tuple[list[float], float], ...]
    lower: list[float]
    upper: list[float]


def row(a, b):
    return np.atleast_1d(np.asarray(a, float)).tolist(), float(b)


def problem_1d(u_hat, rows, lo=0.0, hi=36.0):
    return Problem([float(u_hat)], tuple(row(a, b) for a, b in rows), [lo], [hi])


def problem_2d(u_hat, rows, bound=20.0):
    return Problem(np.asarray(u_hat, float).tolist(), tuple(row(a, b) for a, b in rows),
                   [-bound, -bound], [bound, bound])


def in_box(p, u, tol=0.0):
    """Whether u lies in p's box, widened by tol."""
    return np.all(np.array(p.lower) - tol <= u) and np.all(u <= np.array(p.upper) + tol)


class TestScalar:
    def test_pass_through_when_unconstrained(self):
        sol = solve_qp(*problem_1d(5.0, []))
        assert sol.status is QpStatus.OPTIMAL
        assert sol.u_star[0] == 5.0

    def test_single_lower_bound_row(self):
        # u + (-10) >= 0  -> u >= 10
        sol = solve_qp(*problem_1d(5.0, [row(1.0, -10.0)]))
        assert sol.u_star[0] == pytest.approx(10.0)
        assert sol.active_set == (0,)

    def test_single_upper_bound_row(self):
        # -u + 3 >= 0 -> u <= 3
        sol = solve_qp(*problem_1d(5.0, [row(-1.0, 3.0)]))
        assert sol.u_star[0] == pytest.approx(3.0)

    def test_interval_intersection(self):
        sol = solve_qp(*problem_1d(0.0, [row(1.0, -2.0), row(-0.5, 4.0)]))
        assert sol.u_star[0] == pytest.approx(2.0)  # feasible [2, 8]

    def test_infeasible_empty_interval(self):
        sol = solve_qp(*problem_1d(5.0, [row(1.0, -10.0), row(-1.0, 3.0)]))
        assert sol.status is QpStatus.INFEASIBLE

    def test_infeasible_zero_gain_row(self):
        # 0*u - 1 >= 0 can never hold.
        sol = solve_qp(*problem_1d(5.0, [row(0.0, -1.0)]))
        assert sol.status is QpStatus.INFEASIBLE

    @pytest.mark.parametrize("rows", [[row(1.0, -30.0), row(0.0, -1.0)],
                                      [row(0.0, -1.0), row(1.0, -30.0)]], ids=["after", "before"])
    def test_infeasible_is_box_clamped_nominal_in_any_row_order(self, rows):
        # The zero-gain row makes the problem infeasible; the bound u >= 30
        # met before it must not move the returned input off the nominal.
        sol = solve_qp(*problem_1d(5.0, rows))
        assert sol.status is QpStatus.INFEASIBLE
        assert sol.u_star == [5.0]

    def test_box_clamps_nominal(self):
        sol = solve_qp(*problem_1d(50.0, []))
        assert sol.u_star[0] == 36.0


class TestPlanar:
    def test_pass_through(self):
        sol = solve_qp(*problem_2d([1.0, -2.0], []))
        assert np.allclose(sol.u_star, [1.0, -2.0])
        assert sol.active_set == ()

    def test_halfplane_projection(self):
        # a.u + b >= 0 with a=(1,0), b=-5: project (0,0) onto x >= 5.
        sol = solve_qp(*problem_2d([0.0, 0.0], [row([1.0, 0.0], -5.0)]))
        assert np.allclose(sol.u_star, [5.0, 0.0])

    def test_oblique_projection(self):
        # x + y >= 4 from origin -> (2, 2).
        sol = solve_qp(*problem_2d([0.0, 0.0], [row([1.0, 1.0], -4.0)]))
        assert np.allclose(sol.u_star, [2.0, 2.0])

    def test_vertex_of_two_rows(self):
        sol = solve_qp(*problem_2d([0.0, 0.0],
                                  [row([1.0, 0.0], -3.0), row([0.0, 1.0], -2.0)]))
        assert np.allclose(sol.u_star, [3.0, 2.0])
        assert set(sol.active_set) == {0, 1}

    def test_box_corner(self):
        sol = solve_qp(*problem_2d([25.0, -25.0], []))
        assert np.allclose(sol.u_star, [20.0, -20.0])

    def test_parallel_conflicting_rows_infeasible(self):
        sol = solve_qp(*problem_2d([0.0, 0.0],
                                  [row([1.0, 0.0], -5.0), row([-1.0, 0.0], 2.0)]))
        assert sol.status is QpStatus.INFEASIBLE

    def test_near_parallel_rows_do_not_crash(self):
        sol = solve_qp(*problem_2d([0.0, 0.0],
                                  [row([1.0, 1.0], -4.0),
                                   row([1.0, 1.0 + 1e-13], -4.0)]))
        assert sol.status is QpStatus.OPTIMAL

    def test_kkt_residual_small_on_random_problems(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n_rows = rng.integers(0, 4)
            rows = [row(rng.normal(size=2), rng.normal()) for _ in range(n_rows)]
            p = problem_2d(rng.normal(size=2) * 10.0, rows, bound=5.0)
            sol = solve_qp(*p)
            if sol.status is QpStatus.OPTIMAL:
                assert kkt_residual(*p, sol) <= 1e-8

    def test_grid_oracle_agreement(self):
        # Brute-force grid search over the box must not beat the solver.
        rng = np.random.default_rng(23)
        xs = np.linspace(-5.0, 5.0, 101)
        X, Y = np.meshgrid(xs, xs)
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        for _ in range(50):
            rows = [row(rng.normal(size=2), rng.normal()) for _ in range(2)]
            p = problem_2d(rng.normal(size=2) * 4.0, rows, bound=5.0)
            sol = solve_qp(*p)
            feas = np.ones(len(pts), dtype=bool)
            for a, b in rows:
                feas &= pts @ a + b >= -1e-9
            if sol.status is QpStatus.OPTIMAL and np.any(feas):
                grid_best = np.min(np.sum((pts[feas] - p.u_hat) ** 2, axis=1))
                ours = np.sum((np.array(sol.u_star) - p.u_hat) ** 2)
                assert ours <= grid_best + 1e-9


class TestLeastInfeasible:
    def test_minimizes_worst_violation(self):
        # u >= 10 and u <= 3: min-max violation at the midpoint 6.5.
        p = problem_1d(0.0, [row(1.0, -10.0), row(-1.0, 3.0)])
        u = least_infeasible(*p)
        assert u[0] == pytest.approx(6.5, abs=1e-6)

    def test_respects_box(self):
        p = problem_1d(0.0, [row(1.0, -100.0)])
        u = least_infeasible(*p)
        assert u[0] == pytest.approx(36.0)

    def test_ties_break_toward_nominal(self):
        # x >= 25 is infeasible in a +-20 box; violation is minimized on the
        # whole face x = 20, and the fallback must pick y = nominal y there,
        # not a corner.
        p = problem_2d([0.0, 3.0], [row([1.0, 0.0], -25.0)])
        u = least_infeasible(*p)
        assert u[0] == pytest.approx(20.0, abs=1e-6)
        assert u[1] == pytest.approx(3.0, abs=1e-6)


class TestFilters:
    """Each level as sim.run runs it: its rows, finite_rows, then solve_qp."""

    def setup_method(self):
        self.params = QuadParams()
        self.alt_spec = BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0],
                                    poles=(-3.0, -4.0))
        self.vel_spec = BarrierSpec(BarrierDomain.LATERAL_VELOCITY,
                                    [0.0, 0.0], [1.25, 0.9], poles=(-3.0, -4.0, -5.0))

    def thrust(self, z, zd, R33, f_hat, specs):
        rows = [altitude_row(spec, z, zd, R33, self.params) for spec in specs]
        return solve_qp([f_hat], finite_rows(specs, rows), [0.0], [self.params.f_max])

    def torque(self, x, tau, f, specs):
        rows = lateral_rows(x, f, specs, self.params)
        bx, by = self.params.tau_max
        return solve_qp(tau, finite_rows(specs, rows), [-bx, -by], [bx, by]), rows

    def test_thrust_pass_through_deep_inside(self):
        # Hover at the center of the region: z = 0, zdot = 0, level.
        f_hat = self.params.m * self.params.g
        (f_star,), status, _, _ = self.thrust(0.0, 0.0, 1.0, f_hat, [self.alt_spec])
        assert f_star == pytest.approx(f_hat)
        assert status is QpStatus.OPTIMAL

    def test_thrust_intervenes_near_boundary(self):
        # Climbing fast just below the upper z limit: thrust must rise above
        # nominal to brake (thrust opposes +z motion in this frame).
        f_hat = self.params.m * self.params.g
        (f_star,), _, _, _ = self.thrust(1.95, 2.0, 1.0, f_hat, [self.alt_spec])
        assert f_star > f_hat

    def test_thrust_rejects_lateral_domain(self):
        with pytest.raises(ValueError):
            self.thrust(0.0, 0.0, 1.0, 4.0, [self.vel_spec])

    def test_thrust_refuses_a_non_finite_row(self):
        # No power overflows here (h is finite), but (z - c)^3 zdot does.
        with pytest.raises(NonFiniteState, match="altitude_position barrier row"):
            self.thrust(1.0e70, 1.0e100, 1.0, 4.0, [self.alt_spec])

    @pytest.mark.parametrize("domain, k", [
        (BarrierDomain.LATERAL_POSITION, 0), (BarrierDomain.LATERAL_POSITION, 12),
        (BarrierDomain.LATERAL_VELOCITY, 12),
    ], ids=["position-x", "position-vx", "velocity-vx"])
    def test_torque_refuses_a_non_finite_row(self, domain, k):
        # x = 1e80 overflows h; vx = 1e80 leaves the position barrier's h
        # finite and overflows its row through vx^3 and vx^4.
        spec = BarrierSpec(domain, [0.0, 0.0], [2.0, 2.0])
        x = flat_of(QuadState())
        x[k] = 1.0e80
        with np.errstate(all="ignore"), pytest.raises(NonFiniteState, match=domain.value):
            self.torque(x, [0.0, 0.0], self.params.m * self.params.g, [spec])

    def test_torque_pass_through_deep_inside(self):
        tau = [0.3, -0.2]
        sol, rows = self.torque(flat_of(QuadState()), tau, self.params.m * self.params.g,
                                [self.vel_spec])
        assert sol.u_star == tau
        assert sol.status is QpStatus.OPTIMAL
        assert len(rows) == 1 and len(rows[0][3]) == 3

    def test_torque_rejects_altitude_domain(self):
        with pytest.raises(ValueError):
            self.torque(flat_of(QuadState()), [0.0, 0.0], 4.0, [self.alt_spec])


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
            sol, sol2 = solve_qp(*single), solve_qp(*doubled)
            assert sol2.status is sol.status
            if sol.status is QpStatus.OPTIMAL:
                n_optimal += 1
                assert np.array_equal(sol2.u_star, sol.u_star)
                assert kkt_residual(*doubled, sol2) <= 1e-8
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
        sol = solve_qp(*p)
        assert sol.status is QpStatus.OPTIMAL
        assert np.array_equal(sol.u_star, p.u_hat)
        assert sol.active_set == ()
        assert kkt_residual(*p, sol) == 0.0

    def test_least_infeasible_without_rows_clamps_nominal(self):
        for p, expected in [(problem_1d(50.0, []), [36.0]),
                            (problem_1d(-3.0, []), [0.0]),
                            (problem_2d([25.0, -30.0], []), [20.0, -20.0])]:
            assert np.array_equal(least_infeasible(*p), expected)
            assert np.array_equal(solve_qp(*p).u_star, expected)


class TestKktResidual:
    def test_stationarity_is_a_2_norm_without_tight_rows(self):
        # Nothing is tight at u_star, so the residual is the gradient's 2-norm
        # (0.8e-8 * sqrt(2)), as nnls reports it when rows are tight.
        p = problem_2d([0.0, 0.0], [])
        sol = QpSolution([0.8e-8, 0.8e-8], QpStatus.OPTIMAL)
        assert kkt_residual(*p, sol) == pytest.approx(0.8e-8 * np.sqrt(2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Reference 2-D solver: the exhaustive numpy KKT enumeration that the
# certified solver must reproduce bit for bit. Copied verbatim (only the
# names carry a ref_ prefix, and ref_arrays first makes numpy arrays of the
# float arguments); it evaluates every candidate with numpy.

REF_A_EPS = 1e-12
REF_FEAS_TOL = 1e-9
REF_LAMBDA_TOL = 1e-12


def ref_arrays(p: Problem) -> Problem:
    """p with numpy arrays for u_hat, lower, upper and each row's a."""
    return Problem(np.asarray(p.u_hat, dtype=float),
                   tuple((np.asarray(a, dtype=float), b) for a, b in p.rows),
                   np.asarray(p.lower, dtype=float), np.asarray(p.upper, dtype=float))


def ref_constraint_list(p: Problem) -> list[tuple[np.ndarray, float]]:
    """Barrier rows followed by box faces, all as a . u + b >= 0."""
    cons = [(np.asarray(a, dtype=float), float(b)) for a, b in p.rows]
    dim = len(p.u_hat)
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        cons.append((e.copy(), -float(p.lower[j])))
        cons.append((-e, float(p.upper[j])))
    return cons


def ref_solve_2d(p: Problem) -> QpSolution:
    p = ref_arrays(p)
    cons = ref_constraint_list(p)
    # Rows not involving u must hold on their own.
    for a, b in cons[: len(p.rows)]:
        if np.linalg.norm(a) < REF_A_EPS and b < -REF_FEAS_TOL:
            return QpSolution(np.clip(p.u_hat, p.lower, p.upper), QpStatus.INFEASIBLE)
    cons_idx = [(i, a, b) for i, (a, b) in enumerate(cons) if np.linalg.norm(a) >= REF_A_EPS]

    def feasible(u: np.ndarray) -> bool:
        return all(a @ u + b >= -REF_FEAS_TOL for _, a, b in cons_idx)

    best: tuple[float, np.ndarray, tuple[int, ...]] | None = None

    def consider(u: np.ndarray, active: tuple[int, ...]) -> None:
        nonlocal best
        if not feasible(u):
            return
        obj = 0.5 * float(np.sum((u - p.u_hat) ** 2))
        if best is None or obj < best[0] - 1e-15:
            best = (obj, u, active)

    consider(p.u_hat.astype(float).copy(), ())
    for (i, a, b) in cons_idx:
        viol = a @ p.u_hat + b
        lam = -viol / float(a @ a)
        if lam >= -REF_LAMBDA_TOL:
            consider(p.u_hat + lam * a, (i,))
    for (i, ai, bi), (j, aj, bj) in itertools.combinations(cons_idx, 2):
        A = np.array([ai, aj])
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        if abs(det) < 1e-12:
            continue
        try:
            u = np.linalg.solve(A, -np.array([bi, bj]))
            lam = np.linalg.solve(A @ A.T, A @ (u - p.u_hat))
        except np.linalg.LinAlgError:  # near-parallel pair, ill-conditioned
            continue
        if np.all(lam >= -REF_LAMBDA_TOL):
            consider(u, (i, j))
    if best is None:
        return QpSolution(np.clip(p.u_hat, p.lower, p.upper), QpStatus.INFEASIBLE)
    obj, u, active = best
    return QpSolution(u, QpStatus.OPTIMAL, active, ref_primal_residual(p, u))


def ref_primal_residual(p: Problem, u: np.ndarray) -> float:
    res = 0.0
    for a, b in ref_constraint_list(p):
        res = max(res, -(float(a @ u) + b))
    return max(res, 0.0)


# The 2-D solver's earlier per-row loops, before every a . u went
# through one broadcast np.vecdot. Copied verbatim (only the names carry a
# ref_ prefix, and each a becomes an array): the primal residual over its
# constraint list, and the feasibility test over the rows involving u.


def ref_cons_primal_residual(cons: list[tuple[list[float], float]], u: np.ndarray) -> float:
    res = 0.0
    for a, b in cons:
        res = max(res, -(float(np.asarray(a) @ u) + b))
    return max(res, 0.0)


def ref_feasible(live, u: np.ndarray) -> bool:
    return all(a @ u + b >= -REF_FEAS_TOL for _, a, b, *_ in live)


# ---------------------------------------------------------------------------


def assert_bitwise_as_reference(p: Problem) -> QpSolution:
    with np.errstate(all="ignore"):  # NaN and inf inputs are among the cases
        got, want = solve_qp(*p), ref_solve_2d(p)
    assert got.status is want.status
    assert all(type(v) is float for v in got.u_star), got.u_star
    got_u = np.array(got.u_star)
    assert got_u.dtype == want.u_star.dtype
    assert got_u.tobytes() == want.u_star.tobytes(), (got.u_star, want.u_star)
    assert got.active_set == want.active_set
    assert struct.pack("<d", got.primal_residual) == struct.pack("<d", want.primal_residual)
    return got


def perp(a):
    """a rotated by +90 degrees, with a's norm."""
    return np.array([-a[1], a[0]])


ADVERSARIAL_KINDS = (
    "plain", "on_row", "near_row", "zero_multiplier_vertex", "duplicate",
    "near_parallel", "ill_conditioned_vertex", "axis_parallel", "zero_row", "scaled",
    "nonfinite", "threshold_row", "duplicate_farthest", "tied_farthest", "violates_below_tol",
    "threshold_vertex",
)
NEAR_ROW_OFFSETS = (1e-9, -1e-9, 1e-9 * (1 + 2**-30), -1e-9 * (1 - 2**-30),
                    5e-10, -5e-10, 2e-9, -2e-9, 1e-12, -1e-12)
ZERO_ROWS = ((0.0, 0.0), (1e-12, 0.0), (0.0, -1e-12), (1e-12 * (1 - 2**-40), 0.0),
             (7.0710678118654752e-13, 7.0710678118654752e-13), (1e-13, -1e-13))
NONFINITE = (np.nan, np.inf, -np.inf)


def adversarial_problem(kind, rng):
    """A 2-D QP built to sit on one of the solver's edges: the nominal input
    on or within 1e-9 of a row, a vertex that coincides with a projection (a
    multiplier of ~0), duplicate rows, near-parallel pairs (|det| ~ 1e-12 and
    ~ 1e-6 * scale), a near-parallel pair whose vertex is the optimum or a
    zero-multiplier vertex with a third row through it, rows nearly parallel
    to a box face, zero rows, row scales 1e+-6, NaN/inf in a, b or u_hat,
    or a row on either side of a certificate's threshold."""
    bound = float(rng.choice([20.0, 5.0, 1e-3, 1e4]))
    u_hat = rng.normal(size=2) * bound * float(rng.choice([0.3, 1.0, 2.0]))
    rows = [(rng.normal(size=2) * 10.0 ** rng.uniform(-1, 3), float(rng.normal() * 100.0))
            for _ in range(int(rng.integers(1, 4)))]
    if kind == "on_row":
        a = rows[0][0]
        rows[0] = (a, -float(a @ u_hat))
    elif kind == "near_row":
        a = rows[0][0]
        rows[0] = (a, -float(a @ u_hat) + float(rng.choice(NEAR_ROW_OFFSETS)))
    elif kind == "zero_multiplier_vertex":
        # u_hat projects onto row 0 at v, and row 1 passes through v.
        v = rng.uniform(-bound, bound, size=2)
        a0, a1 = rows[0][0], rng.normal(size=2) * 10.0 ** rng.uniform(-1, 3)
        u_hat = v - rng.uniform(0.0, 2.0) * a0 / float(a0 @ a0) * bound
        rows[:2] = [(a0, -float(a0 @ v)), (a1, -float(a1 @ v))]
    elif kind == "duplicate":
        rows = rows + rows[: int(rng.integers(1, len(rows) + 1))]
    elif kind == "near_parallel":
        a0, b0 = rows[0]
        det = float(rng.choice([1e-12, 1.5e-12, 1e-11, 1e-6 * float(a0 @ a0)]))
        a1 = a0 + det / float(a0 @ a0) * perp(a0) * float(rng.choice([1.0, -1.0]))
        b1 = b0 * float(rng.choice([1.0, 1.0 + 1e-9, 0.5])) + float(rng.normal()) * 1e-6
        rows.insert(int(rng.integers(0, len(rows))), (a1, b1))
    elif kind == "ill_conditioned_vertex":
        # Rows 0 and 1 meet at v at an angle of 1e-9..1e-5 rad; u_hat sits in
        # their normal cone (v is the optimum) or projects onto row 0 at v
        # (row 1's multiplier is ~0); row 2 passes within ~1e-7 of v.
        v = rng.uniform(-bound, bound, size=2)
        a0 = rows[0][0]
        a1 = a0 + 10.0 ** rng.uniform(-9, -5) * perp(a0) * float(rng.choice([1.0, -1.0]))
        a2 = rng.normal(size=2) * 10.0 ** rng.uniform(0, 3)
        t = rng.uniform(0.1, 2.0) * bound
        if rng.random() < 0.5:
            u_hat = v - t * (a0 / np.sqrt(a0 @ a0) + a1 / np.sqrt(a1 @ a1))
        else:
            u_hat = v - t * a0 / np.sqrt(a0 @ a0)
        offset = -1e-9 + float(rng.choice([0.0, 1.0])) * rng.uniform(-3e-7, 3e-7)
        rows = [(a0, -float(a0 @ v)), (a1, -float(a1 @ v)), (a2, -float(a2 @ v) + offset)]
    elif kind == "axis_parallel":
        # A large row whose direction is within ~1e-9 of a box face's.
        big = 10.0 ** rng.uniform(2, 4)
        tiny = float(rng.normal()) * 10.0 ** rng.uniform(-12, -6)
        a = np.array([tiny, big]) if rng.random() < 0.5 else np.array([big, tiny])
        rows[0] = (a * float(rng.choice([1.0, -1.0])), float(rng.normal() * big * bound))
    elif kind == "zero_row":
        z = np.array(ZERO_ROWS[int(rng.integers(0, len(ZERO_ROWS)))])
        b = float(rng.choice([-1.0, -2e-9, -1e-9, -5e-10, 0.0, 1.0]))
        rows.insert(int(rng.integers(0, len(rows) + 1)), (z, b))
    elif kind == "scaled":
        rows = [(a * 10.0 ** float(rng.choice([-6, 6])), b * 10.0 ** float(rng.choice([-6, 0, 6])))
                for a, b in rows]
        if rng.random() < 0.5:  # orthogonal rows of scales 1e6 and 1e-6 meeting at the optimum
            rows[:1] = [(np.array([1e6, 0.0]), -1e6 * 0.5 * bound),
                        (np.array([0.0, 1e-6]), -1e-6 * 0.5 * bound)]
            u_hat = np.array([0.0, 0.0])
    elif kind in ("threshold_row", "duplicate_farthest", "violates_below_tol"):
        # Row 0 is violated at u_hat and farthest from it; u_i is its
        # projection, evaluated as the solver does.
        a0 = rng.normal(size=2) * 10.0 ** rng.uniform(-7 if kind == "violates_below_tol" else -4, 1)
        n0 = a0 / np.sqrt(a0 @ a0)
        u_hat = rng.uniform(-0.5, 0.5, size=2) * bound
        rows = [(a0, -float(a0 @ u_hat) - rng.uniform(0.05, 0.4) * bound * np.sqrt(a0 @ a0))]
        lam = -(a0 @ u_hat + rows[0][1]) / float(a0 @ a0)
        u_i = u_hat + lam * a0
        if kind == "threshold_row":
            # A second row, crossing row 0 at 30..150 degrees or parallel to
            # it, whose line passes u_i (on its feasible side) at a factor f of
            # sqrt(2 (lam _FEAS_TOL + 1e-15)), the certificate's main term.
            t = np.sqrt(2.0 * (lam * REF_FEAS_TOL + 1e-15))
            f = float(rng.choice([0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1, 2.0, 10.0, 1e3]))
            angle = float(rng.choice([0.0, rng.uniform(np.pi / 6, 5 * np.pi / 6)]))
            c, s = np.cos(angle), np.sin(angle)
            a1 = np.array([c * n0[0] - s * n0[1], s * n0[0] + c * n0[1]])
            a1 = a1 * 10.0 ** rng.uniform(-4, 2)
            rows.append((a1, -float(a1 @ u_i) + f * t * float(np.sqrt(a1 @ a1))))
        elif kind == "duplicate_farthest":
            # Row 0 repeated (exactly, or scaled by 2 or 3) before or after it.
            k = float(rng.choice([1.0, 2.0, 3.0]))
            rows.insert(int(rng.integers(0, 2)), (a0 * k, rows[0][1] * k))
        else:
            # u_i violates a crossing row by less than 1e-9, or a row parallel
            # to row 0 lies closer to u_hat so that its projection violates
            # row 0 by less than 1e-9 (it is then the optimum).
            c = float(rng.choice([0.1, 0.5, 0.9, 0.99]))
            if rng.random() < 0.5:
                a1 = rng.normal(size=2) * 10.0 ** rng.uniform(-2, 2)
                rows.append((a1, -float(a1 @ u_i) - c * REF_FEAS_TOL))
            else:
                rows.append((a0, rows[0][1] + c * REF_FEAS_TOL))
        rows += [(rng.normal(size=2), float(rng.uniform(0.0, 1.0)) * bound)
                 for _ in range(int(rng.integers(0, 2)))]
    elif kind == "threshold_vertex":
        # Rows 0 and 1 cross at v at 20..160 degrees, and u_hat = v - (lam_0
        # a_0 + lam_1 a_1) with lam > 0, so v is the optimum. A third row,
        # placed among them at random, has v on its feasible side (as have
        # u_hat and both single-row projections) and its line at a factor f
        # of sqrt(2 (sum(lam) _FEAS_TOL + 1e-15)), the pair certificate's
        # main term, from v.
        v = rng.uniform(-0.3, 0.3, size=2) * bound
        phi, angle = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(np.pi / 9, 8 * np.pi / 9)
        n0, n1 = (np.array([np.cos(phi + t), np.sin(phi + t)]) for t in (0.0, angle))
        a0, a1 = (n * 10.0 ** rng.uniform(-2, 2) for n in (n0, n1))
        lam = rng.uniform(0.05, 0.3, size=2) * bound / np.sqrt([a0 @ a0, a1 @ a1])
        u_hat = v - (lam[0] * a0 + lam[1] * a1)
        t = np.sqrt(2.0 * (lam.sum() * REF_FEAS_TOL + 1e-15))
        f = float(rng.choice([0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1, 2.0, 10.0, 1e3]))
        a2 = -(n0 + n1) / np.sqrt((n0 + n1) @ (n0 + n1)) * 10.0 ** rng.uniform(-2, 2)
        rows = [(a0, -float(a0 @ v)), (a1, -float(a1 @ v))]
        b2 = -float(a2 @ v) + f * t * float(np.sqrt(a2 @ a2))
        rows.insert(int(rng.integers(0, 3)), (a2, b2))
    elif kind == "tied_farthest":
        # Rows at exactly the same distance from u_hat = 0 (equal b, a's
        # entries swapped or negated), so each is a farthest row.
        a, b = rows[0]
        twin = [np.array([a[1], a[0]]), np.array([-a[0], a[1]]), np.array([a[0], -a[1]]), -a]
        rows = [(a, -abs(b)), (twin[int(rng.integers(0, 4))], -abs(b))] + rows[1:]
        if rng.random() < 0.5:
            rows[:2] = rows[1::-1]
        u_hat = np.zeros(2)
    elif kind == "nonfinite":
        value = NONFINITE[int(rng.integers(0, 3))]
        where = int(rng.integers(0, 3))
        if where == 0:
            u_hat[int(rng.integers(0, 2))] = value
        else:
            k = int(rng.integers(0, len(rows)))
            a, b = rows[k]
            if where == 1:
                a = a.copy()
                a[int(rng.integers(0, 2))] = value
            else:
                b = value
            rows[k] = (a, b)
    return Problem(u_hat.tolist(), tuple((np.asarray(a).tolist(), float(b)) for a, b in rows),
                   [-bound, -bound], [bound, bound])


def record_certificates(monkeypatch, size=1) -> list[bool]:
    """Whether each later _certified_projection call on an active set of
    `size` rows certifies, in order."""
    outcomes = []
    certify = qp._certified_projection

    def recording(*args):
        result = certify(*args)
        if len(args[-1]) == size:
            outcomes.append(result[0] is not None)
        return result

    monkeypatch.setattr(qp, "_certified_projection", recording)
    return outcomes


@pytest.fixture(scope="module")
def fig7_second_qps():
    """The lateral (2-D) QPs that fig7-unified poses in its first second."""
    problems = []
    solve = qp.solve_qp

    def recording(*args):
        if len(args[0]) == 2:
            problems.append(Problem(*args))
        return solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "solve_qp", recording)
        run(dataclasses.replace(load_preset("fig7-unified"), duration=1.0))
    return problems


class TestScreenedSolverIsBitwiseTheEnumeration:
    """solve_qp on 2-D problems returns exactly what evaluating every KKT
    candidate with numpy returns: the same u_star bytes, status, active set
    and primal residual."""

    @pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
    def test_seeded_adversarial_cases(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        statuses = set()
        for _ in range(300):
            statuses.add(assert_bitwise_as_reference(adversarial_problem(kind, rng)).status)
        if kind != "nonfinite":
            assert QpStatus.OPTIMAL in statuses

    @settings(max_examples=400, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(ADVERSARIAL_KINDS),
        seed=st.integers(0, 2**32 - 1),
        u_hat=st.tuples(*[st.floats(-1e4, 1e4, allow_nan=False)] * 2),
        extra=st.lists(st.tuples(st.floats(-1e3, 1e3, allow_nan=False),
                                 st.floats(-1e3, 1e3, allow_nan=False),
                                 st.floats(-1e4, 1e4, allow_nan=False)), max_size=2),
    )
    def test_hypothesis_cases(self, kind, seed, u_hat, extra):
        # The drawn rows and nominal (exact values, zeros, subnormal-sized
        # entries) are added to an adversarial problem, and also stand alone.
        base = adversarial_problem(kind, np.random.default_rng(seed))
        rows = base.rows + tuple(([a0, a1], b) for a0, a1, b in extra)
        for p in (base._replace(rows=rows),
                  base._replace(u_hat=list(u_hat), rows=rows),
                  problem_2d(u_hat, [([a0, a1], b) for a0, a1, b in extra])):
            assert_bitwise_as_reference(p)

    def test_every_qp_of_a_fig7_second(self, fig7_second_qps):
        assert len(fig7_second_qps) == 1000
        for p in fig7_second_qps:
            assert_bitwise_as_reference(p)

    def test_fig7_second_is_certified_without_near_parallel_solves(
            self, fig7_second_qps, monkeypatch):
        # On the QPs whose nominal is infeasible, the certified projection
        # returns at least 95% of the time; and over fig7-unified's first
        # 3 s every lateral QP passes through or is certified, so none
        # reaches the enumeration.
        outcomes = record_certificates(monkeypatch)
        for p in fig7_second_qps:
            solve_qp(*p)
        assert len(outcomes) >= 500
        assert sum(outcomes) >= 0.95 * len(outcomes), (sum(outcomes), len(outcomes))
        enumerated, enumerate_ = [], qp._enumerate

        def counting_enumerate(*args):
            enumerated.append(args)
            return enumerate_(*args)

        monkeypatch.setattr(qp, "_enumerate", counting_enumerate)
        run(dataclasses.replace(load_preset("fig7-unified"), duration=3.0))
        assert enumerated == []

    def test_threshold_rows_straddle_the_certificate(self, monkeypatch):
        # The threshold_row kind must keep the certificate's edge covered:
        # its second row passes u_i close enough to fail the certificate on
        # some problems and far enough to pass it on others.
        outcomes = record_certificates(monkeypatch)
        rng = np.random.default_rng(sum(map(ord, "threshold_row")))
        for _ in range(300):
            with np.errstate(all="ignore"):
                solve_qp(*adversarial_problem("threshold_row", rng))
        assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50

    def test_threshold_vertices_straddle_the_pair_certificate(self, monkeypatch):
        # The same for the threshold_vertex kind and the certificate on a
        # guessed pair: its third row passes the vertex close enough to fail
        # the certificate on some problems and far enough to pass it on others.
        outcomes = record_certificates(monkeypatch, size=2)
        rng = np.random.default_rng(sum(map(ord, "threshold_vertex")))
        for _ in range(300):
            with np.errstate(all="ignore"):
                solve_qp(*adversarial_problem("threshold_vertex", rng))
        assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50

    @pytest.mark.parametrize("kind", ["zero_multiplier_vertex", "ill_conditioned_vertex",
                                      "threshold_vertex", "duplicate"])
    def test_certificates_hold_for_any_guess(self, kind, monkeypatch):
        # Each certificate must hold whatever active set is guessed: with the
        # first and second guesses forced onto every pair of live rows, the
        # result stays bitwise the enumeration's. On zero_multiplier_vertex
        # this guesses pairs whose vertex is a single-row projection.
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(8):
            p = adversarial_problem(kind, rng)
            n_cons = len(p.rows) + 4
            for first, second in itertools.product(range(n_cons), repeat=2):
                guesses = iter([first, second])
                monkeypatch.setattr(qp, "_farthest_violated",
                                    lambda live, a_u: live[next(guesses) % len(live)])
                assert_bitwise_as_reference(p)

    def test_batched_row_products_are_the_per_row_products(self):
        # _primal_residual and the feasibility test read every a . u from
        # one broadcast np.vecdot; each must equal the per-row 1-D a @ u.
        # Points on or near the rows make the residual a rounding-level
        # number, so these inputs also tell the stacked A @ u (BLAS gemv,
        # which rounds differently) from the per-row dot.
        rng = np.random.default_rng(43)
        n_gemv_differs = n_feasible = 0
        for kind in ADVERSARIAL_KINDS:
            for _ in range(100):
                p = adversarial_problem(kind, rng)
                cons, a_stack = qp._constraint_list(p.rows, p.lower, p.upper)
                live = [(i, np.array(a), b) for i, (a, b) in enumerate(cons)
                        if np.linalg.norm(a) >= REF_A_EPS]
                with np.errstate(all="ignore"):
                    points = [np.array(p.u_hat), np.array(solve_qp(*p).u_star),
                              rng.normal(size=2) * 10.0]
                    a, b = cons[int(rng.integers(0, len(cons)))]
                    a = np.array(a)
                    if np.all(np.isfinite(a)) and float(a @ a) > 0.0:
                        points.append(points[2] - (float(a @ points[2]) + b) / float(a @ a) * a)
                    for u in points:
                        got = qp._primal_residual(cons, np.vecdot(a_stack, u).tolist())
                        want = ref_cons_primal_residual(cons, u)
                        assert struct.pack("<d", got) == struct.pack("<d", want), (got, want)
                        a_u = np.vecdot(a_stack, u).tolist()
                        feasible = all(a_u[i] + b >= -REF_FEAS_TOL for i, _, b in live)
                        assert feasible == ref_feasible(live, u)
                        n_feasible += feasible
                        gemv = max(0.0, *[-(v + b) for v, (_, b) in
                                          zip((a_stack @ u).tolist(), cons)])
                        n_gemv_differs += struct.pack("<d", gemv) != struct.pack("<d", want)
        assert n_feasible >= 100
        assert n_gemv_differs >= 10, "these inputs no longer tell A @ u from a @ u"

    def test_feasible_nominal_needs_no_linear_solve(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting)
        rng = np.random.default_rng(5)
        for _ in range(200):
            u_hat = rng.uniform(-20.0, 20.0, size=2)
            rows = [(a, -float(a @ u_hat) + rng.uniform(0.0, 5.0))
                    for a in rng.normal(size=(int(rng.integers(0, 4)), 2)) * 100.0]
            p = problem_2d(u_hat, rows)
            sol = solve_qp(*p)
            assert sol.active_set == () and np.array_equal(sol.u_star, u_hat)
        assert calls == []
        assert_bitwise_as_reference(p)  # the reference does solve
        assert calls != []


# ---------------------------------------------------------------------------
# Independent references for least_infeasible: the least worst violation t*
# from scipy's HiGHS linprog on the epigraph LP, and from closed forms that
# enumerate the LP's breakpoints (1-D) and vertices (2-D).


def bound_on_violation(t_star):
    """least_infeasible relaxes every row by t*(1 + 1e-9) + 1e-12, so that the
    LP's rounding cannot make the relaxed QP infeasible, and then takes the
    point nearest the nominal: its worst violation may use all of that."""
    return t_star * (1.0 + 1e-9) + 1e-9


def worst_violation(rows, u):
    return max([0.0] + [-(float(np.dot(a, u)) + b) for a, b in rows])


def linprog_min_max_violation(rows, lower, upper):
    """t* of the epigraph LP  min t  s.t.  a_i . u + b_i + t >= 0, t >= 0,
    lower <= u <= upper, from scipy's HiGHS."""
    n = len(lower)
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A_ub = np.array([[*(-np.atleast_1d(a)), -1.0] for a, _ in rows])
    b_ub = np.array([float(b) for _, b in rows])
    bounds = [(float(lo), float(hi)) for lo, hi in zip(lower, upper)] + [(0.0, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success, res.message
    return float(res.x[-1])


def min_max_violation_1d(rows, lo, hi):
    """t* = min over [lo, hi] of max(0, max_i -(a_i u + b_i)), a convex
    piecewise-linear function, so its minimum sits at a box end, a zero of a
    row or a crossing of two rows."""
    points = [lo, hi]
    for (a, b), (c, d) in itertools.combinations(rows, 2):
        if a != c:
            points.append((d - b) / (a - c))
    points += [-b / a for a, b in rows if a != 0.0]
    return min(worst_violation([(np.array([a]), b) for a, b in rows], np.array([u]))
               for u in points if lo <= u <= hi)


def min_max_violation_2d(rows, lower, upper):
    """t* of the epigraph LP  min t  s.t.  a_i . u + b_i + t >= 0, t >= 0,
    lower <= u <= upper, by enumerating its vertices: every triple of its
    constraints taken as equalities, kept when the point satisfies the rest."""
    cons = [(np.array([a[0], a[1], 1.0]), b) for a, b in rows]
    cons.append((np.array([0.0, 0.0, 1.0]), 0.0))
    for j in range(2):
        e = np.zeros(3)
        e[j] = 1.0
        cons += [(e, -lower[j]), (-e, upper[j])]
    best = np.inf
    for triple in itertools.combinations(cons, 3):
        G = np.array([g for g, _ in triple])
        if abs(np.linalg.det(G)) < 1e-12:
            continue
        x = np.linalg.solve(G, -np.array([h for _, h in triple]))
        if all(g @ x + h >= -1e-9 * (1.0 + abs(h)) for g, h in cons):
            best = min(best, x[2])
    return best


class TestLeastInfeasibleOracle:
    def test_1d_matches_breakpoint_enumeration(self):
        rng = np.random.default_rng(31)
        n_infeasible = 0
        for _ in range(150):
            rows = [(float(a), float(b)) for a, b in rng.normal(size=(int(rng.integers(2, 5)), 2))]
            rows[0] = (abs(rows[0][0]), rows[0][1] - 3.0)  # u >= something large-ish
            lo, hi = -1.0, 1.0
            t_star = min_max_violation_1d(rows, lo, hi)
            if t_star <= 0.0:
                continue
            n_infeasible += 1
            p = problem_1d(0.5 * rng.normal(), [row(a, b) for a, b in rows], lo, hi)
            t_lp = linprog_min_max_violation(p.rows, p.lower, p.upper)
            assert t_lp == pytest.approx(t_star, rel=1e-9, abs=1e-12)
            u = least_infeasible(*p)
            assert lo <= u[0] <= hi
            assert worst_violation(p.rows, u) <= bound_on_violation(min(t_star, t_lp)), (
                rows, u, t_star, t_lp)
        assert n_infeasible >= 50

    def test_2d_matches_epigraph_vertex_enumeration(self):
        rng = np.random.default_rng(37)
        n_infeasible = 0
        for _ in range(150):
            rows = [row(rng.normal(size=2), rng.normal() - 2.0)
                    for _ in range(int(rng.integers(2, 5)))]
            p = problem_2d(rng.normal(size=2), rows, bound=1.0)
            t_star = min_max_violation_2d(rows, p.lower, p.upper)
            if t_star <= 1e-9:
                continue
            n_infeasible += 1
            t_lp = linprog_min_max_violation(rows, p.lower, p.upper)
            assert t_lp == pytest.approx(t_star, rel=1e-9, abs=1e-12)
            u = least_infeasible(*p)
            assert in_box(p, u), u
            assert worst_violation(rows, u) <= bound_on_violation(min(t_star, t_lp)), (
                rows, u, t_star, t_lp)
        assert n_infeasible >= 50

    @pytest.mark.parametrize("dim", [1, 2])
    def test_scaled_rows_keep_the_bound(self, dim):
        # Rows scaled by s scale t* and the vertices' rounding by s, so
        # least_infeasible's feasibility tolerance must scale with each row:
        # an absolute one refuses the optimal vertex of rows this large.
        rng = np.random.default_rng(43 + dim)
        s = 1.2345e8
        n_infeasible = 0
        for _ in range(100):
            rows = [row(rng.normal(size=dim), rng.normal() - 2.0)
                    for _ in range(int(rng.integers(2, 5)))]
            p = (problem_1d(rng.normal(), rows, -1.0, 1.0) if dim == 1
                 else problem_2d(rng.normal(size=2), rows, bound=1.0))
            t_star = linprog_min_max_violation(rows, p.lower, p.upper)
            if t_star <= 1e-9:
                continue
            n_infeasible += 1
            scaled = p._replace(rows=tuple(([v * s for v in a], b * s) for a, b in rows))
            u = least_infeasible(*scaled)
            # The relaxed QP's vertex on a box face may round past it, as A7 allows.
            assert in_box(p, u, 1e-12), u
            assert worst_violation(scaled.rows, u) <= s * bound_on_violation(t_star), (rows, u)
        assert n_infeasible >= 50

    def test_refused_relaxed_qp_gives_the_vertex_in_the_box(self):
        # Rows of size 1e9: the QP's absolute feasibility tolerance refuses
        # even the relaxed rows, so least_infeasible returns the LP vertex,
        # which the solve puts 1e-14 past the box face u0 = -1.
        p = problem_2d([-1.291838504643794, -1.6004953758484026], [
            row([-3645161193.8517547, -8457874315.292315], -5594006644.79275),
            row([785889270.3055438, 2160898906.8266835], -7661434360.964642)], bound=1.0)
        t_star = linprog_min_max_violation(p.rows, p.lower, p.upper)
        slack = t_star * (1.0 + 1e-9) + 1e-12
        relaxed = p._replace(rows=tuple((a, b + slack) for a, b in p.rows))
        assert solve_qp(*relaxed).status is QpStatus.INFEASIBLE
        u = least_infeasible(*p)
        assert u[0] == -1.0 and -1.0 <= u[1] <= 1.0, u
        assert worst_violation(p.rows, u) <= 1e10 * bound_on_violation(t_star / 1e10)

    @pytest.mark.parametrize("p,expected", [
        # Parallel rows: x + y >= 3 against x + y <= 1; and u >= 10, given
        # twice, once scaled by 2, against u <= 3: the scaled row sets t*.
        (problem_2d([0.0, 5.0], [row([1.0, 1.0], -3.0), row([-1.0, -1.0], 1.0)]), [-1.5, 3.5]),
        (problem_1d(0.0, [row(1.0, -10.0), row(2.0, -20.0), row(-1.0, 3.0)]), [23.0 / 3.0]),
        # Rows without u: exactly zero, and below _A_EPS (the QP ignores its a).
        (problem_2d([0.0, 3.0], [row([0.0, 0.0], -2.0), row([1.0, 0.0], -25.0)]), [20.0, 3.0]),
        (problem_2d([0.0, 3.0], [row([1e-13, 0.0], -2.0)]), [0.0, 3.0]),
        (problem_1d(5.0, [row(0.0, -1.0)]), [5.0]),
        # t* only at the box corner (20, 20): two rows, and one diagonal row.
        (problem_2d([0.0, 0.0], [row([1.0, 0.0], -25.0), row([0.0, 1.0], -25.0)]), [20.0, 20.0]),
        (problem_2d([-3.0, 7.0], [row([1.0, 1.0], -50.0)]), [20.0, 20.0]),
        # The nominal on the relaxed rows.
        (problem_2d([20.0, 3.0], [row([1.0, 0.0], -25.0)]), [20.0, 3.0]),
        (problem_1d(6.5, [row(1.0, -10.0), row(-1.0, 3.0)]), [6.5]),
    ], ids=["parallel-2d", "parallel-1d", "zero-row", "row-below-a-eps", "zero-row-1d",
            "corner-two-rows", "corner-one-row", "nominal-on-relaxed-row",
            "nominal-on-relaxed-rows-1d"])
    def test_degenerate_problems(self, p, expected):
        # No rows at all: TestDegenerate::test_least_infeasible_without_rows_clamps_nominal.
        t_lp = linprog_min_max_violation(p.rows, p.lower, p.upper)
        if len(p.u_hat) == 1:
            t_star = min_max_violation_1d([(a[0], b) for a, b in p.rows], p.lower[0], p.upper[0])
        else:
            t_star = min_max_violation_2d(p.rows, p.lower, p.upper)
        assert t_lp == pytest.approx(t_star, rel=1e-9, abs=1e-12)
        u = least_infeasible(*p)
        assert in_box(p, u), u
        assert worst_violation(p.rows, u) <= bound_on_violation(min(t_star, t_lp)), (u, t_star)
        assert u == pytest.approx(expected, abs=1e-6)
