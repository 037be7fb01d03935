"""KKT residual of a QP solution: the QP exactness oracle (A6) of the tests.

It takes nonnegative multipliers from scipy's nnls, so scipy is a test-only
dependency; the package itself does not import it.
"""

import numpy as np
from scipy.optimize import nnls

from quadsafe.qp import _A_EPS, QpSolution, QpStatus, _constraint_list, _primal_residual


def kkt_residual(u_hat, rows, lower, upper, sol: QpSolution) -> float:
    """KKT residual at sol for solve_qp(u_hat, rows, lower, upper): the larger
    of the stationarity residual's 2-norm (nonnegative multipliers over the
    tight constraints, or the gradient itself when none is tight) and the
    largest primal violation."""
    if sol.status is not QpStatus.OPTIMAL:
        return float("inf")
    cons, a_stack = _constraint_list(rows, lower, upper)
    u = np.array(sol.u_star)
    tight = [
        a for a, (_, b) in zip(a_stack, cons)
        if np.linalg.norm(a) >= _A_EPS
        and abs(a @ u + b) <= 1e-7 * (1.0 + abs(b) + np.linalg.norm(a) * np.linalg.norm(u))
    ]
    grad = u - np.array(u_hat)
    if tight:
        A = np.array(tight)
        _, stat = nnls(A.T, grad)
    else:
        stat = np.linalg.norm(grad)
    return max(float(stat), _primal_residual(cons, np.vecdot(a_stack, u).tolist()))
