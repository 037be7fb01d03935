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
    lateral_position_chain,
    lateral_velocity_chain,
)
from .dynamics import ControlInput, QuadParams, QuadState, flat_of, rk4_flat, state_of

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
    state: QuadState,
    domain: BarrierDomain,
    spec: BarrierSpec,
    gains: EcbfGains,
    params: QuadParams,
    u: ControlInput,
) -> tuple[np.ndarray, float]:
    """Analytic (H, L_f^d h + L_g L_f^(d-1) h . u) at one state."""
    if domain in (BarrierDomain.ALTITUDE_POSITION, BarrierDomain.ALTITUDE_POSVEL):
        a, b, _, H = altitude_row(
            spec, gains, float(state.r[2]), float(state.v[2]), float(state.R[2, 2]), params
        )
        a_dot_u = a * float(u.f)
    else:
        chain = (lateral_position_chain if domain is BarrierDomain.LATERAL_POSITION
                 else lateral_velocity_chain)
        row = chain(state, u.f, spec, gains, params)
        b, H = row.b, row.H
        a_dot_u = float(row.a @ u.tau[:2])
    lf_top = b - float(gains.K @ H)  # L_f^d h
    return H, lf_top + a_dot_u


def flow(state: QuadState, u: ControlInput, params: QuadParams, dt: float) -> QuadState:
    """Frozen-input flow over a signed interval dt (small, for stencils).

    RK4 is valid for negative steps, so backward stencil points integrate
    the same vector field with a negative step size.
    """
    h = dt / FD_SUBSTEPS
    f, tau = float(u.f), u.tau.tolist()
    x = flat_of(state)
    for _ in range(FD_SUBSTEPS):
        x = rk4_flat(x, f, tau, params, h)
    return state_of(x)


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
) -> tuple[QuadState, ControlInput]:
    """Random state inside the safe set with a modest random frozen input."""
    from .dynamics import R_of_euler

    r = rng.uniform(-1.5, 1.5, size=3)
    v = rng.uniform(-0.6, 0.6, size=3)
    if spec.domain is BarrierDomain.LATERAL_VELOCITY:
        v[:2] = rng.uniform(-0.8, 0.8, size=2) * spec.half_width
    angles = rng.uniform(-0.25, 0.25, size=3)
    omega = rng.uniform(-1.0, 1.0, size=3)
    state = QuadState(r=r, R=R_of_euler(*angles), v=v, omega=omega)
    u = ControlInput(
        f=float(rng.uniform(0.5, 1.8) * params.m * params.g),
        tau=rng.uniform(-0.5, 0.5, size=3),
    )
    return state, u


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
        state, u = random_state_and_input(rng, spec, params)
        H0, total0 = evaluate_chain(state, domain, spec, gains, params, u)
        sp = flow(state, u, params, FD_DT)
        sm = flow(state, u, params, -FD_DT)
        Hp, _ = evaluate_chain(sp, domain, spec, gains, params, u)
        Hm, _ = evaluate_chain(sm, domain, spec, gains, params, u)
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
