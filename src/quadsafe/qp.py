"""Safety-filter quadratic programs.

Both filters minimize the deviation from the nominal input subject to
stacked barrier rows (a . u + b >= 0) and actuator box bounds:

* high level: scalar thrust, solved by exact interval intersection;
* low level: 2-D moment vector, solved by exhaustive active-set (KKT)
  enumeration, exact at this dimension. The candidates are screened in
  plain floats and only those the screen cannot rule out are evaluated with
  numpy, so the result is bitwise that of evaluating all of them with numpy.

Each filter builds one (a, b, h, H) row per active barrier (altitude_row,
lateral_rows) and returns (applied input, QP solution, rows); the QP itself
sees only the (a, b) pairs. Where the 2-D solver needs every a . u at once
(its feasibility test and the primal residual), one broadcast np.vecdot
computes them with the kernel of a 1-D a @ u, so each equals the separate
product bit for bit.

On infeasibility the configurable fallback keeps the simulation alive; the
default picks the least-infeasible admissible input (min-max violation).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .barriers import BarrierSpec, EcbfGains, altitude_row, lateral_rows
from .dynamics import QuadParams

_A_EPS = 1e-12       # below this, a row does not involve the decision variable
_FEAS_TOL = 1e-9
_LAMBDA_TOL = 1e-12
_NORM2_CLEAR = 1.001e-24  # |a|^2 at or above this: norm(a) >= _A_EPS in any rounding
# The 2-D screen's margin, relative to a bound on each float test's rounding
# (about 1e5 unit roundoffs); pairs with a Frobenius condition number above
# _SCREEN_KAPPA always take the numpy path.
_SCREEN_MARGIN = 1e-11
_SCREEN_KAPPA = 1e10


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class InfeasiblePolicy(enum.Enum):
    LEAST_INFEASIBLE = "least_infeasible"
    NOMINAL = "nominal"
    HOLD_LAST = "hold_last"


@dataclass(frozen=True)
class QpProblem:
    """min 1/2 ||u - u_hat||^2  s.t.  a_i . u + b_i >= 0,  lower <= u <= upper."""

    u_hat: np.ndarray
    rows: tuple[tuple[np.ndarray, float], ...]  # (a_i, b_i)
    lower: np.ndarray
    upper: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.u_hat)


@dataclass(frozen=True)
class QpSolution:
    u_star: np.ndarray
    status: QpStatus
    active_set: tuple[int, ...] = ()
    primal_residual: float = 0.0


def solve_qp(p: QpProblem) -> QpSolution:
    if p.dim == 1:
        return _solve_1d(p)
    if p.dim == 2:
        return _solve_2d(p)
    raise ValueError("solver supports dim 1 or 2 only")


# Box faces e_j, -e_j (with its -0.0 entries) as (array, list of floats) pairs.
_BOX_FACES = {n: [(face, face.tolist()) for e in np.eye(n) for face in (e, -e)] for n in (1, 2)}


def _constraint_list(
    p: QpProblem,
) -> tuple[list[tuple[np.ndarray, float, list[float]]], np.ndarray]:
    """Barrier rows followed by box faces, all as a . u + b >= 0, each as
    (a, b, a's entries as floats); and all the a's stacked, for the
    broadcast np.vecdot that evaluates every a . u at once."""
    cons = []
    for a, b in p.rows:
        a = np.asarray(a, dtype=float)
        cons.append((a, float(b), a.tolist()))
    faces = _BOX_FACES[p.dim]
    for j in range(p.dim):
        (e, e_list), (minus_e, minus_e_list) = faces[2 * j], faces[2 * j + 1]
        cons += [(e, -float(p.lower[j]), e_list), (minus_e, float(p.upper[j]), minus_e_list)]
    return cons, np.array([a_list for _, _, a_list in cons])


def _solve_1d(p: QpProblem) -> QpSolution:
    u, status, active, residual = solve_interval(
        float(p.u_hat[0]), float(p.lower[0]), float(p.upper[0]),
        [(float(a[0]), float(b)) for a, b in p.rows],
    )
    return QpSolution(np.array([u]), status, active, residual)


def solve_interval(
    u_hat: float, lower: float, upper: float, rows: list[tuple[float, float]]
) -> tuple[float, QpStatus, tuple[int, ...], float]:
    """Exact 1-D QP on floats: the point of [lower, upper] nearest u_hat with
    a * u + b >= 0 for every (a, b) in rows. Returns (u, status, active rows,
    primal residual); an infeasible problem gives the clamped nominal."""
    lo, hi = lower, upper
    lo_idx = hi_idx = -1
    for i, (a, b) in enumerate(rows):
        if abs(a) < _A_EPS:
            if b < -_FEAS_TOL:
                return min(max(u_hat, lo), hi), QpStatus.INFEASIBLE, (), 0.0
            continue
        bound = -b / a
        if a > 0.0:
            if bound > lo:
                lo, lo_idx = bound, i
        else:
            if bound < hi:
                hi, hi_idx = bound, i
    if lo > hi:
        return min(max(u_hat, lower), upper), QpStatus.INFEASIBLE, (), 0.0
    u = min(max(u_hat, lo), hi)
    # A row is active when the projection moves u_hat onto it, as in _solve_2d:
    # a nominal input that already satisfies every row passes with none active.
    if u_hat < lo and lo_idx >= 0:
        active = (lo_idx,)
    elif u_hat > hi and hi_idx >= 0:
        active = (hi_idx,)
    else:
        active = ()
    # Largest violation over the rows and the two box faces (_constraint_list order).
    residual = max(0.0, *[-(a * u + b) for a, b in rows], -(u + -lower), -(-u + upper))
    return u, QpStatus.OPTIMAL, active, residual


def _solve_2d(p: QpProblem) -> QpSolution:
    """Exhaustive KKT enumeration: the nominal input, the projection onto each
    row and the vertex of each pair of rows, keeping the nearest feasible
    candidate whose multipliers are nonnegative.

    Each candidate is first screened in plain floats (Cramer's rule for the
    vertices). A candidate is dropped only when a float test fails by more
    than _SCREEN_MARGIN times a bound on its rounding, so the numpy test would
    fail too; NaN, overflow and pairs worse conditioned than _SCREEN_KAPPA
    never pass the screen's comparisons and go to the numpy path. The
    survivors are evaluated with numpy in enumeration order, so the result is
    the same as evaluating every candidate with numpy.
    """
    cons, a_stack = _constraint_list(p)
    live = []  # rows involving u: (index, a, b, a0, a1, |a|_1, |a|^2, margin * |b|)
    for i, (a, b, (a0, a1)) in enumerate(cons):
        n2 = a0 * a0 + a1 * a1
        if not n2 >= _NORM2_CLEAR:  # zero, NaN or near _A_EPS: numpy's norm decides
            norm = np.linalg.norm(a)
            # Rows not involving u must hold on their own.
            if i < len(p.rows) and norm < _A_EPS and b < -_FEAS_TOL:
                return QpSolution(np.clip(p.u_hat, p.lower, p.upper), QpStatus.INFEASIBLE)
            if not norm >= _A_EPS:
                continue
        live.append((i, a, b, a0, a1, abs(a0) + abs(a1), n2, _SCREEN_MARGIN * abs(b)))

    x0, x1 = p.u_hat.tolist()
    s = abs(x0) + abs(x1)

    def clearly_infeasible(u0: float, u1: float, scale: float) -> bool:
        # scale bounds |u|_1 plus the point's float-vs-numpy error.
        ms = _SCREEN_MARGIN * scale
        for _, _, b, a0, a1, n1, _, mb in live:
            if a0 * u0 + a1 * u1 + b + n1 * ms + mb < -_FEAS_TOL:
                return True
        return False

    vals = [a0 * x0 + a1 * x1 + b for _, _, b, a0, a1, _, _, _ in live]
    margins = [n1 * _SCREEN_MARGIN * s + mb for _, _, _, _, _, n1, _, mb in live]
    if all(v - m >= -_FEAS_TOL for v, m in zip(vals, margins)):
        # u_hat is feasible: it has objective 0, so no candidate can replace it.
        u = p.u_hat.astype(float)
        return QpSolution(u, QpStatus.OPTIMAL, (), _primal_residual(cons, a_stack, u))

    def feasible(u: np.ndarray) -> bool:
        # Every a . u in one np.vecdot: the kernel of a 1-D a @ u, which the
        # 2-D A @ u (BLAS gemv) is not.
        a_u = np.vecdot(a_stack, u).tolist()
        return all(a_u[i] + b >= -_FEAS_TOL for i, _, b, *_ in live)

    best: tuple[float, np.ndarray, tuple[int, ...]] | None = None

    def consider(u: np.ndarray, active: tuple[int, ...]) -> None:
        nonlocal best
        if not feasible(u):
            return
        u0, u1 = u.tolist()
        d0, d1 = u0 - x0, u1 - x1
        obj = 0.5 * (d0 * d0 + d1 * d1)  # 0.5 * np.sum((u - p.u_hat) ** 2), bit for bit
        if best is None or obj < best[0] - 1e-15:
            best = (obj, u, active)

    if not any(v + m < -_FEAS_TOL for v, m in zip(vals, margins)):
        consider(p.u_hat.astype(float).copy(), ())
    for (i, a, b, a0, a1, n1, n2, mb), v in zip(live, vals):
        lam = -v / n2
        if lam + (n1 * _SCREEN_MARGIN * s + mb) / n2 + _SCREEN_MARGIN * abs(lam) < -_LAMBDA_TOL:
            continue
        u0, u1 = x0 + lam * a0, x1 + lam * a1
        if clearly_infeasible(u0, u1, abs(u0) + abs(u1) + s):
            continue
        viol = a @ p.u_hat + b
        lam = -viol / float(a @ a)
        if lam >= -_LAMBDA_TOL:
            consider(p.u_hat + lam * a, (i,))
    for (i, ai, bi, ai0, ai1, n1i, n2i, _), (j, aj, bj, aj0, aj1, n1j, n2j, _) in (
        itertools.combinations(live, 2)
    ):
        det = ai0 * aj1 - ai1 * aj0  # the same float numpy computes from [ai, aj]
        abs_det = abs(det)
        if abs_det < 1e-12:
            continue
        kappa = (n2i + n2j) / abs_det  # Frobenius condition number of [ai, aj]
        if kappa <= _SCREEN_KAPPA:
            u0 = (bj * ai1 - bi * aj1) / det
            u1 = (bi * aj0 - bj * ai0) / det
            d0, d1 = u0 - x0, u1 - x1
            lam_i = (d0 * aj1 - d1 * aj0) / det
            lam_j = (d1 * ai0 - d0 * ai1) / det
            scale = abs(u0) + abs(u1) + s
            # numpy takes the multipliers from the normal equations (condition
            # kappa^2), so this test can only drop a pair while kappa^2 * margin < 1.
            m = _SCREEN_MARGIN * kappa * (
                kappa * (abs(lam_i) + abs(lam_j)) + (n1i + n1j) * scale / abs_det)
            if lam_i + m < -_LAMBDA_TOL or lam_j + m < -_LAMBDA_TOL:
                continue
            if clearly_infeasible(u0, u1, kappa * scale):
                continue
        A = np.array([ai, aj])
        try:
            u = np.linalg.solve(A, -np.array([bi, bj]))
            lam = np.linalg.solve(A @ A.T, A @ (u - p.u_hat))
        except np.linalg.LinAlgError:  # near-parallel pair, ill-conditioned
            continue
        if np.all(lam >= -_LAMBDA_TOL):
            consider(u, (i, j))
    if best is None:
        return QpSolution(np.clip(p.u_hat, p.lower, p.upper), QpStatus.INFEASIBLE)
    obj, u, active = best
    return QpSolution(u, QpStatus.OPTIMAL, active, _primal_residual(cons, a_stack, u))


def _primal_residual(
    cons: list[tuple[np.ndarray, float, list[float]]], a_stack: np.ndarray, u: np.ndarray
) -> float:
    res = 0.0
    for a_u, (_, b, _) in zip(np.vecdot(a_stack, u).tolist(), cons):
        res = max(res, -(a_u + b))
    return max(res, 0.0)


def kkt_residual(p: QpProblem, sol: QpSolution) -> float:
    """KKT residual at sol: the larger of the stationarity residual's 2-norm
    (nonnegative multipliers over the tight constraints, or the gradient
    itself when none is tight) and the largest primal violation."""
    from scipy.optimize import nnls

    if sol.status is not QpStatus.OPTIMAL:
        return float("inf")
    cons, a_stack = _constraint_list(p)
    u = sol.u_star
    tight = [
        a for a, b, _ in cons
        if np.linalg.norm(a) >= _A_EPS
        and abs(a @ u + b) <= 1e-7 * (1.0 + abs(b) + np.linalg.norm(a) * np.linalg.norm(u))
    ]
    grad = u - p.u_hat
    if tight:
        A = np.array(tight)
        _, stat = nnls(A.T, grad)
    else:
        stat = np.linalg.norm(grad)
    return max(float(stat), _primal_residual(cons, a_stack, u))


def least_infeasible(p: QpProblem) -> np.ndarray:
    """Admissible input minimizing the worst constraint violation, breaking
    ties toward the nominal input.

    Epigraph linear program: min t  s.t.  -a_i.u - t <= b_i, box, t >= 0,
    solved with scipy's HiGHS. The LP alone lands on an arbitrary vertex
    (often a torque-box corner, which kicks the attitude hard), so the rows
    are then relaxed by the optimal violation t* and re-solved as the usual
    projection QP: the result is the point nearest the nominal among the
    least-infeasible inputs.
    """
    from scipy.optimize import linprog

    n = p.dim
    rows = [(np.asarray(a, float), float(b)) for a, b in p.rows]
    if not rows:
        return np.clip(p.u_hat, p.lower, p.upper)
    A_ub = np.array([np.concatenate([-a, [-1.0]]) for a, _ in rows])
    b_ub = np.array([b for _, b in rows])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    bounds = [(float(p.lower[j]), float(p.upper[j])) for j in range(n)] + [(0.0, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:  # should not happen: the epigraph LP is always feasible
        return np.clip(p.u_hat, p.lower, p.upper)
    t_star = float(res.x[-1])
    slack = t_star * (1.0 + 1e-9) + 1e-12
    relaxed = QpProblem(
        u_hat=p.u_hat,
        rows=tuple((a, b + slack) for a, b in p.rows),
        lower=p.lower,
        upper=p.upper,
    )
    sol = solve_qp(relaxed)
    if sol.status is QpStatus.OPTIMAL:
        return sol.u_star
    return res.x[:n]


def _fallback(
    p: QpProblem, policy: InfeasiblePolicy, last: np.ndarray | None
) -> np.ndarray:
    if policy is InfeasiblePolicy.LEAST_INFEASIBLE:
        return least_infeasible(p)
    if policy is InfeasiblePolicy.HOLD_LAST and last is not None:
        return np.clip(np.asarray(last, float), p.lower, p.upper)
    return np.clip(p.u_hat, p.lower, p.upper)


def thrust_filter(
    z: float,
    zd: float,
    R33: float,
    f_hat: float,
    active_specs: list[tuple[BarrierSpec, EcbfGains]],
    params: QuadParams,
    policy: InfeasiblePolicy = InfeasiblePolicy.LEAST_INFEASIBLE,
    last: float | None = None,
) -> tuple[float, tuple[float, QpStatus, tuple[int, ...], float], list[tuple]]:
    """High-level QP: modify thrust f_hat to honor the active altitude
    barriers at altitude z, climb rate zd and attitude entry R33.

    Returns the applied thrust, the QP's solve_interval result and the
    (a, b, h, H) of each active barrier's row.
    """
    rows = [altitude_row(spec, gains, z, zd, R33, params) for spec, gains in active_specs]
    u_hat = min(max(f_hat, 0.0), params.f_max)
    solution = solve_interval(u_hat, 0.0, params.f_max, [(a, b) for a, b, _, _ in rows])
    f_star = solution[0]
    if solution[1] is QpStatus.INFEASIBLE:
        p = QpProblem(
            np.array([u_hat]),
            tuple((np.array([a]), b) for a, b, _, _ in rows),
            np.array([0.0]),
            np.array([params.f_max]),
        )
        f_star = float(_fallback(p, policy, None if last is None else np.array([last]))[0])
    return f_star, solution, rows


def _clip(v: float, lo: float, hi: float) -> float:
    """np.clip of one float: NaN passes through, and a tie keeps the bound."""
    v = v if v > lo or v != v else lo
    return v if v < hi or v != v else hi


def clip_moments(tau_xy, params: QuadParams) -> list[float]:
    """The nominal (tau_x, tau_y) clipped to +-tau_max, as np.clip does."""
    (t0, t1), (b0, b1) = tau_xy, params.tau_max
    return [_clip(float(t0), -b0, b0), _clip(float(t1), -b1, b1)]


def filter_torque(
    x: list[float],
    tau_hat_xy: np.ndarray,
    f_star_applied: float,
    active_specs: list[tuple[BarrierSpec, EcbfGains]],
    params: QuadParams,
    policy: InfeasiblePolicy = InfeasiblePolicy.LEAST_INFEASIBLE,
    last: np.ndarray | None = None,
) -> tuple[np.ndarray, QpSolution, list[tuple]]:
    """Low-level QP: modify [tau_x, tau_y] at the flat state x given the
    thrust fixed this step.

    Returns the applied moments, the QP's solution and the (a, b, h, H) of
    each active barrier's row. Raises LateralSingular (from lateral_rows)
    when the attitude is near the W-inversion singularity; the caller
    decides the pass-through policy.
    """
    rows = lateral_rows(x, f_star_applied, active_specs, params)
    b0, b1 = params.tau_max
    lower, upper, u_hat = np.array([(-b0, -b1), (b0, b1), clip_moments(tau_hat_xy, params)])
    p = QpProblem(u_hat, tuple((a, b) for a, b, _, _ in rows), lower, upper)
    sol = solve_qp(p)
    if sol.status is QpStatus.OPTIMAL:
        return sol.u_star, sol, rows
    return _fallback(p, policy, last), sol, rows
