"""Finite-difference verification of the barrier Lie-derivative chains.

Independent cross-check of the closed-form chains: integrate the dynamics
under a frozen input and compare central-difference time derivatives of
each chain entry against the next analytic entry. Entry k of the
Lie-derivative vector is thereby certified as the k-th time derivative of
h along the flow, and the top derivative against
L_f^d h + L_g L_f^(d-1) h . u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barriers import (
    RELATIVE_DEGREE,
    BarrierDomain,
    BarrierSpec,
    EcbfGains,
    altitude_row,
    lateral_rows,
)
from .dynamics import QuadParams, QuadState, flat_of, project_flat, rk4_flat

FD_DT = 1e-4        # central-difference half step
FD_SUBSTEPS = 4     # RK4 substeps per half step

_DEFAULT_GAINS = {
    1: EcbfGains(1, (-1.0,)),
    2: EcbfGains(2, (-3.0, -4.0)),
    3: EcbfGains(3, (-3.0, -4.0, -5.0)),
    4: EcbfGains(4, (-3.0, -4.0, -5.0, -6.0)),
}


@dataclass
class ChainCheck:
    """Worst relative errors for one barrier chain at a batch of states."""

    domain: BarrierDomain
    max_rel_lower: float   # entries of H vs central differences of h
    max_rel_top: float     # d^delta h/dt^delta vs L_f^d h + L_g L_f^(d-1) h . u


def evaluate_chain(
    x: list[float],
    spec: BarrierSpec,
    gains: EcbfGains,
    params: QuadParams,
    f: float,
    tau: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Analytic (H, L_f^d h + L_g L_f^(d-1) h . u) at the flat state x under
    thrust f and moments tau."""
    if spec.domain in (BarrierDomain.ALTITUDE_POSITION, BarrierDomain.ALTITUDE_POSVEL):
        a, b, _, H = altitude_row(spec, gains, x[2], x[14], x[11], params)
        a_dot_u = a * f
    else:
        ((a, b, _, H),) = lateral_rows(x, f, [(spec, gains)], params)
        a_dot_u = float(a @ tau[:2])
    lf_top = b - float(gains.K @ H)  # L_f^d h
    return H, lf_top + a_dot_u


def flow(
    x: list[float], f: float, tau: np.ndarray, params: QuadParams, dt: float
) -> list[float]:
    """Frozen-input flow of the flat state over a signed interval dt (small,
    for stencils); R re-projected to SO(3) at the end.

    RK4 is valid for negative steps, so backward stencil points integrate
    the same vector field with a negative step size.
    """
    h = dt / FD_SUBSTEPS
    tau = tau.tolist()
    for _ in range(FD_SUBSTEPS):
        x = rk4_flat(x, f, tau, params, h)
    return project_flat(x)


def default_spec(domain: BarrierDomain) -> BarrierSpec:
    if domain is BarrierDomain.ALTITUDE_POSITION:
        return BarrierSpec(domain, [0.0], [2.0])
    if domain is BarrierDomain.ALTITUDE_POSVEL:
        return BarrierSpec(domain, [0.0, 0.0], [2.0, 0.75])
    if domain is BarrierDomain.LATERAL_POSITION:
        return BarrierSpec(domain, [0.0, 0.0], [2.0, 2.0])
    return BarrierSpec(domain, [0.0, 0.0], [1.25, 0.9])


def random_state_and_input(
    rng: np.random.Generator, spec: BarrierSpec, params: QuadParams
) -> tuple[QuadState, float, np.ndarray]:
    """Random state inside the safe set with a modest random frozen input
    (thrust f, moments tau)."""
    from .dynamics import R_of_euler

    r = rng.uniform(-1.5, 1.5, size=3)
    v = rng.uniform(-0.6, 0.6, size=3)
    if spec.domain is BarrierDomain.LATERAL_VELOCITY:
        v[:2] = rng.uniform(-0.8, 0.8, size=2) * spec.half_width
    angles = rng.uniform(-0.25, 0.25, size=3)
    omega = rng.uniform(-1.0, 1.0, size=3)
    state = QuadState(r=r, R=R_of_euler(*angles), v=v, omega=omega)
    f = float(rng.uniform(0.5, 1.8) * params.m * params.g)
    return state, f, rng.uniform(-0.5, 0.5, size=3)


def check_chain(
    domain: BarrierDomain,
    params: QuadParams | None = None,
    n_states: int = 100,
    seed: int = 12345,
    spec: BarrierSpec | None = None,
    gains: EcbfGains | None = None,
) -> ChainCheck:
    """Worst-case relative FD errors for one chain over random in-set states."""
    params = params or QuadParams()
    spec = spec or default_spec(domain)
    gains = gains or _DEFAULT_GAINS[RELATIVE_DEGREE[domain]]
    rng = np.random.default_rng(seed)
    delta = RELATIVE_DEGREE[domain]
    worst_lower = 0.0
    worst_top = 0.0
    for _ in range(n_states):
        state, f, tau = random_state_and_input(rng, spec, params)
        x = flat_of(state)
        H0, total0 = evaluate_chain(x, spec, gains, params, f, tau)
        Hp, _ = evaluate_chain(flow(x, f, tau, params, FD_DT), spec, gains, params, f, tau)
        Hm, _ = evaluate_chain(flow(x, f, tau, params, -FD_DT), spec, gains, params, f, tau)
        scale = max(1.0, float(np.max(np.abs(H0))), abs(total0))
        for k in range(delta):
            fd = (Hp[k] - Hm[k]) / (2.0 * FD_DT)
            analytic = H0[k + 1] if k + 1 < delta else total0
            rel = abs(fd - analytic) / max(abs(analytic), 1e-4 * scale)
            if k + 1 < delta:
                worst_lower = max(worst_lower, rel)
            else:
                worst_top = max(worst_top, rel)
    return ChainCheck(domain, worst_lower, worst_top)


def check_all_chains(n_states: int = 100, seed: int = 12345) -> list[ChainCheck]:
    return [check_chain(domain, n_states=n_states, seed=seed) for domain in BarrierDomain]
