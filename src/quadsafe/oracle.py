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
    DEFAULTS,
    RELATIVE_DEGREE,
    BarrierDomain,
    BarrierSpec,
    altitude_row,
    lateral_rows,
)
from .dynamics import QuadParams, QuadState, flat_of, project_to_rotation, rk4_flat

FD_DT = 1e-4        # central-difference half step
FD_SUBSTEPS = 4     # RK4 substeps per half step
FD_BLOCK = 256      # states whose stencil flows run as one batch; bounds memory

@dataclass
class ChainCheck:
    """Worst relative errors for one barrier chain at a batch of states."""

    domain: BarrierDomain
    max_rel_lower: float   # entries of H vs central differences of h
    max_rel_top: float     # d^delta h/dt^delta vs L_f^d h + L_g L_f^(d-1) h . u


def evaluate_chain(
    x: list[float],
    spec: BarrierSpec,
    params: QuadParams,
    f: float,
    tau: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Analytic (H, L_f^d h + L_g L_f^(d-1) h . u) at the flat state x under
    thrust f and moments tau."""
    if spec.domain in (BarrierDomain.ALTITUDE_POSITION, BarrierDomain.ALTITUDE_POSVEL):
        a, b, _, H = altitude_row(spec, x[2], x[14], x[11], params)
        a_dot_u = a * f
    else:
        ((a, b, _, H),) = lateral_rows(x, f, [spec], params)
        a_dot_u = float(a @ tau[:2])
    lf_top = b - float(spec.K @ H)  # L_f^d h
    return H, lf_top + a_dot_u


def flow(
    x: np.ndarray, f: np.ndarray, tau: np.ndarray, params: QuadParams, dt: np.ndarray
) -> np.ndarray:
    """Frozen-input flows of k flat states, each over its own small signed
    interval (for stencils); R re-projected to SO(3) at the end.

    x is (k, 18), f and dt are (k,), tau is (k, 3); returns the (k, 18) end
    states. The flows run together as float64 columns through rk4_flat and
    one stacked project_to_rotation, which give every flow the bits its own
    float integration and single-matrix projection would give. RK4 is valid
    for negative steps, so backward stencil points integrate the same vector
    field with a negative step size.
    """
    h = dt / FD_SUBSTEPS
    cols, tau = list(x.T), list(tau.T)
    for _ in range(FD_SUBSTEPS):
        cols = rk4_flat(cols, f, tau, params, h)
    end = np.column_stack(cols)
    end[:, 3:12] = project_to_rotation(end[:, 3:12].reshape(-1, 3, 3)).reshape(-1, 9)
    return end


def default_spec(domain: BarrierDomain) -> BarrierSpec:
    """The family's default region and poles."""
    return BarrierSpec(domain, DEFAULTS[domain].center, DEFAULTS[domain].half_width)


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


def check_chain(domain: BarrierDomain, n_states: int = 100, seed: int = 12345) -> ChainCheck:
    """Worst-case relative FD errors for one chain, with the family's default
    spec and QuadParams(), over random in-set states.

    Works a block of FD_BLOCK states at a time: draws the states in order,
    integrates all their stencil flows (+FD_DT, then -FD_DT) in one flow
    call, then evaluates the chains state by state. The result is the one a
    state-by-state loop gives, bit for bit, and memory does not grow with
    n_states. Raises ValueError if n_states < 1, whose errors of 0.0 would
    read as a pass without any state checked.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be at least 1, got {n_states}")
    params = QuadParams()
    spec = default_spec(domain)
    rng = np.random.default_rng(seed)
    delta = RELATIVE_DEGREE[domain]
    worst_lower = 0.0
    worst_top = 0.0
    for start in range(0, n_states, FD_BLOCK):
        b = min(FD_BLOCK, n_states - start)
        states, fs, taus = zip(*(random_state_and_input(rng, spec, params) for _ in range(b)))
        xs = [flat_of(state) for state in states]
        ends = flow(np.array(xs * 2), np.array(fs * 2), np.array(taus * 2), params,
                    np.repeat([FD_DT, -FD_DT], b)).tolist()
        for x, f, tau, xp, xm in zip(xs, fs, taus, ends[:b], ends[b:]):
            H0, total0 = evaluate_chain(x, spec, params, f, tau)
            Hp, _ = evaluate_chain(xp, spec, params, f, tau)
            Hm, _ = evaluate_chain(xm, spec, params, f, tau)
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
