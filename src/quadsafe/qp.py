"""Safety-filter quadratic programs, on plain floats.

Both levels minimize the deviation from the nominal input subject to
stacked barrier rows (a . u + b >= 0) and actuator box bounds, through one
entry point, solve_qp(u_hat, rows, lower, upper): u_hat, lower, upper and
each row's a are lists of 1 or 2 floats.

* 1-D (thrust): exact interval intersection;
* 2-D (roll/pitch moments): by definition the result of the exhaustive
  active-set (KKT) enumeration, exact at this dimension: the nominal input,
  the projection onto each row and the vertex of each pair of rows, the
  nearest feasible candidate with nonnegative multipliers winning. Most
  problems are settled before it runs. The nominal passes through when it
  is feasible; otherwise a guessed active set of one row, then of two, is
  returned when a Lagrangian certificate shows that the enumeration would
  return it. Either way the result is bit for bit the enumeration's.

At each level, altitude_row or lateral_rows gives one (a, b, h, H) row per
active barrier; finite_rows checks them and hands the QP its (a, b) pairs.
Where the 2-D solver needs every a . u at once (its feasibility test and
the primal residual), one broadcast np.vecdot computes them with the
kernel of a 1-D a @ u, so each equals the separate product bit for bit.

On an infeasible QP the caller applies least_infeasible, the admissible
input of least worst violation, in closed form: that violation from the
vertices of its epigraph linear program, then the same QP on the rows
relaxed by it. The module needs numpy only.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import NamedTuple

import numpy as np

from .barriers import BarrierSpec
from .dynamics import NonFiniteState

_A_EPS = 1e-12       # below this, a row does not involve the decision variable
_FEAS_TOL = 1e-9
_LAMBDA_TOL = 1e-12
_NORM2_CLEAR = 1.001e-24  # |a|^2 at or above this: norm(a) >= _A_EPS in any rounding


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class QpSolution(NamedTuple):
    """u_star as floats, the status, the indices of the active rows (box
    faces after the barrier rows) and the largest constraint violation."""

    u_star: list[float]
    status: QpStatus
    active_set: tuple[int, ...] = ()
    primal_residual: float = 0.0


Row = tuple[list[float], float]  # (a, b) of a . u + b >= 0


def finite_rows(specs: list[BarrierSpec], rows: list[tuple]) -> list[Row]:
    """The (a, b) pair of each spec's (a, b, h, H) row, a as a list of floats.
    Raises NonFiniteState when a row's a, b or h is not finite."""
    out = []
    for spec, (a, b, h, _) in zip(specs, rows):
        a = a.tolist() if isinstance(a, np.ndarray) else [a]
        if not (math.isfinite(b) and math.isfinite(h) and all(map(math.isfinite, a))):
            raise NonFiniteState(f"{spec.domain.value} barrier row is not finite")
        out.append((a, b))
    return out


def solve_qp(u_hat: list[float], rows: list[Row], lower: list[float], upper: list[float]
             ) -> QpSolution:
    """min 1/2 |u - u_hat|^2  s.t.  a . u + b >= 0 for each (a, b) in rows,
    lower <= u <= upper, for u of 1 or 2 floats."""
    if len(u_hat) == 1:
        return _solve_interval(u_hat[0], rows, lower[0], upper[0])
    if len(u_hat) == 2:
        return _solve_2d(u_hat, rows, lower, upper)
    raise ValueError("solver supports dim 1 or 2 only")


# The box faces (e_j, -e_j) of each dimension, -e_j with its -0.0 entries,
# which the stacked np.vecdot sees.
_BOX_FACES = {n: [(e.tolist(), (-e).tolist()) for e in np.eye(n)] for n in (1, 2)}


def _constraint_list(rows: list[Row], lower: list[float], upper: list[float]
                     ) -> tuple[list[Row], np.ndarray]:
    """Barrier rows followed by box faces, all as (a, b) with a . u + b >= 0;
    and all the a's stacked, for the broadcast np.vecdot that evaluates every
    a . u at once."""
    cons = list(rows)
    for (e, minus_e), lo, hi in zip(_BOX_FACES[len(lower)], lower, upper):
        cons += [(e, -lo), (minus_e, hi)]
    return cons, np.array([a for a, _ in cons])


def _solve_interval(u_hat: float, rows: list[Row], lower: float, upper: float) -> QpSolution:
    """Exact 1-D QP: the point of [lower, upper] nearest u_hat with
    a * u + b >= 0 for every ([a], b) in rows; an infeasible problem gives
    the clamped nominal."""
    lo, hi = lower, upper
    lo_idx = hi_idx = -1
    for i, ((a,), b) in enumerate(rows):
        if abs(a) < _A_EPS:
            if b < -_FEAS_TOL:
                return QpSolution([min(max(u_hat, lower), upper)], QpStatus.INFEASIBLE)
            continue
        bound = -b / a
        if a > 0.0:
            if bound > lo:
                lo, lo_idx = bound, i
        else:
            if bound < hi:
                hi, hi_idx = bound, i
    if lo > hi:
        return QpSolution([min(max(u_hat, lower), upper)], QpStatus.INFEASIBLE)
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
    residual = max(0.0, *[-(a * u + b) for (a,), b in rows], -(u + -lower), -(-u + upper))
    return QpSolution([u], QpStatus.OPTIMAL, active, residual)


def _solve_2d(u_hat: list[float], rows: list[Row], lower: list[float], upper: list[float]
              ) -> QpSolution:
    """The exhaustive KKT enumeration's result (see _enumerate), in four steps:

    1. One np.vecdot gives every a . u_hat. When they pass the enumeration's
       feasibility test, u_hat is returned: it is the enumeration's first
       candidate, with objective 0, so no later one can replace it.
    2. Otherwise guess the active set {i}, i being the row farthest from
       u_hat (largest s^2 / |a|^2, s = a . u_hat + b) among those u_hat
       violates, and return _certified_projection's result when it holds.
    3. If the projection u_i violates another row, take j as the row it
       violates farthest, and try the certificate on the pair (i, j), in
       index order as the enumeration pairs them.
    4. Otherwise run the enumeration.
    """
    cons, a_stack = _constraint_list(rows, lower, upper)
    live = []  # rows involving u: (index, a, b, a0, a1, |a|_1, |a|^2)
    for i, (a, b) in enumerate(cons):
        a0, a1 = a
        n2 = a0 * a0 + a1 * a1
        if not n2 >= _NORM2_CLEAR:  # zero, NaN or near _A_EPS: numpy's norm decides
            norm = np.linalg.norm(a)
            # Rows not involving u must hold on their own.
            if i < len(rows) and norm < _A_EPS and b < -_FEAS_TOL:
                return QpSolution(np.clip(u_hat, lower, upper).tolist(), QpStatus.INFEASIBLE)
            if not norm >= _A_EPS:
                continue
        live.append((i, a, b, a0, a1, abs(a0) + abs(a1), n2))

    a_uh = np.vecdot(a_stack, u_hat).tolist()
    if _feasible(live, a_uh):
        return QpSolution(list(u_hat), QpStatus.OPTIMAL, (), _primal_residual(cons, a_uh))
    first = _farthest_violated(live, a_uh)
    if first is not None:
        certified, a_u = _certified_projection(u_hat, lower, upper, cons, a_stack, live, a_uh,
                                               (first,))
        if certified is not None:
            return certified
        second = None if a_u is None else _farthest_violated(live, a_u)
        if second is not None and second is not first:
            pair = (first, second) if first[0] < second[0] else (second, first)
            certified, _ = _certified_projection(u_hat, lower, upper, cons, a_stack, live, a_uh,
                                                 pair)
            if certified is not None:
                return certified
    return _enumerate(u_hat, lower, upper, cons, a_stack, live, a_uh)


def _feasible(live: list[tuple], a_u: list[float]) -> bool:
    """The enumeration's feasibility test, given every a . u from np.vecdot
    (the kernel of a 1-D a @ u, which the 2-D A @ u, BLAS gemv, is not)."""
    return all(a_u[i] + b >= -_FEAS_TOL for i, _, b, *_ in live)


def _farthest_violated(live: list[tuple], a_u: list[float]) -> tuple | None:
    """The row that u violates farthest (largest s^2 / |a|^2), or None."""
    far, worst = 0.0, None
    for row in live:
        s = a_u[row[0]] + row[2]
        if s < -_FEAS_TOL and s * s / row[6] > far:
            far, worst = s * s / row[6], row
    return worst


def _candidate(u_hat: list[float], a_uh: list[float], rows: tuple
               ) -> tuple[list[float], list[float]] | None:
    """The enumeration's candidate on the lines of one or two live rows, as
    (u, multipliers); None when the enumeration skips it.

    One row gives the projection of u_hat, in floats, which round as numpy's
    elementwise u_hat + lam * a does. A pair, which must be in index order,
    gives np.linalg.solve's vertex, whose LU pivoting depends on the row
    order, and the multipliers from the normal equations."""
    if len(rows) == 1:
        ((i, a, b, a0, a1, *_),) = rows
        a = np.array(a)
        lam = -(a_uh[i] + b) / float(a @ a)  # a_uh[i] is a @ u_hat, bit for bit
        x0, x1 = u_hat
        return ([x0 + lam * a0, x1 + lam * a1], [lam]) if lam >= -_LAMBDA_TOL else None
    (_, ai, bi, ai0, ai1, *_), (_, aj, bj, aj0, aj1, *_) = rows
    if abs(ai0 * aj1 - ai1 * aj0) < 1e-12:  # the same det numpy computes from [ai, aj]
        return None
    A = np.array([ai, aj])
    try:
        u = np.linalg.solve(A, -np.array([bi, bj]))
        lam = np.linalg.solve(A @ A.T, A @ (u - u_hat)).tolist()
    except np.linalg.LinAlgError:  # near-parallel pair, ill-conditioned
        return None
    return (u.tolist(), lam) if all(m >= -_LAMBDA_TOL for m in lam) else None


def _enumerate(u_hat: list[float], lower: list[float], upper: list[float], cons: list[Row],
               a_stack: np.ndarray, live: list[tuple], a_uh: list[float]) -> QpSolution:
    """Exhaustive KKT enumeration for an infeasible nominal: the projection
    onto each row and the vertex of each pair of rows, in index order,
    keeping the nearest feasible candidate whose multipliers are nonnegative;
    a later candidate replaces it only when nearer by more than 1e-15."""
    x0, x1 = u_hat
    best = None
    for rows in itertools.chain(((row,) for row in live), itertools.combinations(live, 2)):
        candidate = _candidate(u_hat, a_uh, rows)
        if candidate is None:
            continue
        u = candidate[0]
        a_u = np.vecdot(a_stack, u).tolist()
        if not _feasible(live, a_u):
            continue
        u0, u1 = u
        d0, d1 = u0 - x0, u1 - x1
        obj = 0.5 * (d0 * d0 + d1 * d1)  # 0.5 * np.sum((u - u_hat) ** 2), bit for bit
        if best is None or obj < best[0] - 1e-15:
            best = (obj, u, rows, a_u)
    if best is None:
        return QpSolution(np.clip(u_hat, lower, upper).tolist(), QpStatus.INFEASIBLE)
    _, u, rows, a_u = best
    return QpSolution(u, QpStatus.OPTIMAL, tuple(row[0] for row in rows),
                      _primal_residual(cons, a_u))


def _certified_projection(u_hat: list[float], lower: list[float], upper: list[float],
                          cons: list[Row], a_stack: np.ndarray, live: list[tuple],
                          a_uh: list[float], rows: tuple
                          ) -> tuple[QpSolution | None, list[float] | None]:
    """The enumeration's result when a certificate shows that it is the
    candidate u_S of the guessed active set S = rows (one live row, or two in
    index order), else None; and every a . u_S (None when the enumeration
    skips u_S). Call it only when u_hat fails the feasibility test.

    u_S and its multipliers lam >= 0 come from the enumeration's own
    expressions (_candidate). With g = (u_S - u_hat) - sum_S lam_k a_k, the
    stationarity residual (lam is inexact: numpy takes it from the normal
    equations, and u_S is rounded), any u_c passing the feasibility test has
    obj(u_c) = obj(u_S) + sum_S lam_k (s_k(u_c) - s_k(u_S)) + g . (u_c - u_S)
               + 1/2 |u_c - u_S|^2,   s_k(u) = a_k . u + b_k,
    where s_k(u_c) >= -_FEAS_TOL and |u_c - u_S| <= 3 r, since the box faces
    are among the rows (r bounds |u|_inf). Every candidate lies on the line
    of some row k not in S, up to its solve's backward error e_k, except
    u_hat, u_S itself and, for a pair, the projection onto each of its rows,
    which must fail the feasibility test. So |u_c - u_S| >= |s_k(u_S)| /
    |a_k| - e_k. When for every k that bound makes obj(u_c) exceed obj(u_S)
    by more than the enumeration's 1e-15 tie margin, the enumeration returns
    exactly (u_S, S), whatever order it visits the candidates in. The
    rounding terms are bounded generously (about 100 unit roundoffs).
    """
    candidate = _candidate(u_hat, a_uh, rows)
    if candidate is None:
        return None, None
    u, lam = candidate
    a_u = np.vecdot(a_stack, u).tolist()
    if not min(lam) >= 0.0:  # never NaN: _candidate refuses NaN multipliers
        return None, a_u
    if len(rows) == 2:
        for row in rows:
            single = _candidate(u_hat, a_uh, (row,))
            if single is not None and _feasible(live, np.vecdot(a_stack, single[0]).tolist()):
                return None, a_u
    (lo0, lo1), (hi0, hi1) = lower, upper
    r = max(abs(lo0), abs(lo1), abs(hi0), abs(hi1)) * (1.0 + 1e-12) + 2e-9
    (x0, x1), (u0, u1) = u_hat, u
    uh = abs(x0) + abs(x1)
    g0, g1 = u0 - x0, u1 - x1
    g_scale = abs(u0) + abs(u1) + uh
    # The tie margin and a bound on the objectives' rounding, then for each
    # row of S lam_k times (_FEAS_TOL plus bounds on s_k(u_S) and on the
    # rounding of the feasibility test).
    span = 3.0 * r + uh
    rhs = 1e-15 + 1e-14 * span * span
    for (k, _, b_k, a0, a1, n1, _), m in zip(rows, lam):
        own = a_u[k] + b_k
        if not own >= -_FEAS_TOL:
            return None, a_u
        rhs += m * (_FEAS_TOL + abs(own) + 1e-14 * (n1 * r + abs(b_k)))
        g0, g1 = g0 - m * a0, g1 - m * a1
        g_scale += m * n1
    # |g| . |u_c - u_S|: g as computed, plus a bound on its rounding.
    rhs += 3.0 * r * (abs(g0) + abs(g1) + 1e-14 * g_scale)
    n1_max = max(row[5] for row in live)
    active = tuple(row[0] for row in rows)
    for k, _, b_k, _, _, n1, n2 in live:
        if k in active:
            continue
        s_k = a_u[k] + b_k
        if not s_k >= -_FEAS_TOL:
            return None, a_u
        # |a_k| times the bound on |u_c - u_S|: |s_k| less bounds on its own
        # rounding and on e_k (a projection's, and a vertex's from LU with
        # partial pivoting), and 1e-12 of it for the rounding of this test.
        d = abs(s_k) * (1.0 - 1e-12) - 1e-14 * (
            n1 * (3.0 * r + uh) + 2.0 * n1_max * r + 2.0 * abs(b_k))
        if not (d > 0.0 and 0.5 * d * d > rhs * n2):
            return None, a_u
    return QpSolution(u, QpStatus.OPTIMAL, active, _primal_residual(cons, a_u)), a_u


def _primal_residual(cons: list[Row], a_u: list[float]) -> float:
    """Largest violation of the constraints, given every a . u (in cons order)."""
    res = 0.0
    for v, (_, b) in zip(a_u, cons):
        res = max(res, -(v + b))
    return max(res, 0.0)


def least_infeasible(u_hat: list[float], rows: list[Row], lower: list[float],
                     upper: list[float]) -> list[float]:
    """Admissible input minimizing the worst constraint violation, breaking
    ties toward the nominal input.

    The least worst violation is the optimum of the epigraph linear program
        min t  s.t.  a_i . u + b_i + t >= 0,  t >= 0,  lower <= u <= upper,
    which sits at a vertex: a point (u, t) where n + 1 of these constraints
    hold with equality, for n = 1 or 2 inputs. Each such system that is not
    singular is solved, and the first vertex with the least t is kept among
    those that satisfy every constraint to within 1e-9 of the size of its
    terms. t* is the worst violation at that vertex's u, so u satisfies
    the rows relaxed by t*. The vertex is often a box corner, which kicks the
    attitude hard, so the rows are relaxed by t*(1 + 1e-9) + 1e-12 and
    re-solved as the usual projection QP: the result is the point nearest the
    nominal among the least-infeasible inputs. When the QP's feasibility test
    still refuses the relaxed rows (a badly scaled row can round off its own
    line), the vertex's u is returned, clipped to the box.
    """
    if not rows:
        return np.clip(u_hat, lower, upper).tolist()
    n, k = len(u_hat), len(rows)
    cons, a_stack = _constraint_list(rows, lower, upper)
    # Over (u, t): the rows (a_i, 1), the box faces (face, 0), then t >= 0.
    G = np.array([a + [1.0] for a, _ in cons[:k]]
                 + [a + [0.0] for a, _ in cons[k:]] + [[0.0] * n + [1.0]])
    h = np.array([b for _, b in cons] + [0.0])
    idx = np.array(list(itertools.combinations(range(len(h)), n + 1)))
    M = G[idx]
    # A zero det is a zero pivot of the LU factors, on which solve would raise.
    regular = np.linalg.det(M) != 0.0
    X = np.linalg.solve(M[regular], -h[idx[regular]][..., None])[..., 0]
    holds = X @ G.T + h >= -1e-9 * (np.abs(X) @ np.abs(G).T + np.abs(h))
    t = np.where(holds.all(axis=1), X[:, n], np.inf)
    u = X[int(np.argmin(t)), :n]
    # Each row's a . u from the stacked np.vecdot, bit for bit its a @ u.
    t_star = max(0.0, *[-(v + b) for v, (_, b) in zip(np.vecdot(a_stack, u).tolist(), rows)])
    slack = t_star * (1.0 + 1e-9) + 1e-12
    sol = solve_qp(u_hat, [(a, b + slack) for a, b in rows], lower, upper)
    if sol.status is QpStatus.OPTIMAL:
        return sol.u_star
    return np.clip(u, lower, upper).tolist()  # a box face's rounding in the solve
