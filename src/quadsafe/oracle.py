"""Finite-difference verification of the barrier Lie-derivative chains.

Independent cross-check of the closed-form chains: integrate the dynamics
under a frozen input and compare central-difference time derivatives of
each chain entry against the next analytic entry. Entry k of the
Lie-derivative vector is thereby certified as the k-th time derivative of
h along the flow, and the top derivative against
L_f^d h + L_g L_f^(d-1) h . u. The states are drawn, flowed and evaluated
a block at a time, each layer in one batched call that gives every state
the bits of its own.
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
from .dynamics import QuadParams, R_of_euler, project_to_rotation, rk4_flat

FD_DT = 1e-4        # central-difference half step
FD_SUBSTEPS = 4     # RK4 substeps per half step
FD_BLOCK = 256      # states drawn, flowed and evaluated as one batch; bounds memory


@dataclass
class ChainCheck:
    """Worst relative errors for one barrier chain at a batch of states, as
    floats; NaN or inf if any state's error is not finite."""

    domain: BarrierDomain
    max_rel_lower: float   # entries of H vs central differences of h
    max_rel_top: float     # d^delta h/dt^delta vs L_f^d h + L_g L_f^(d-1) h . u


def evaluate_chain(
    x: np.ndarray,
    spec: BarrierSpec,
    params: QuadParams,
    f: np.ndarray,
    tau: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (H, L_f^d h + L_g L_f^(d-1) h . u) at each of k flat states
    x ((k, 18)) under thrusts f ((k,)) and moments tau ((k, 3)): H is
    (k, delta) and the top derivative (k,), row i the bits of state i's
    single evaluation. The lateral chains come from one lateral_rows call
    over all k states, the altitude chains from altitude_row state by
    state."""
    if spec.domain in (BarrierDomain.ALTITUDE_POSITION, BarrierDomain.ALTITUDE_POSVEL):
        rows = [altitude_row(spec, z, zd, R33, params)
                for z, zd, R33 in zip(x[:, 2].tolist(), x[:, 14].tolist(), x[:, 11].tolist())]
        a, b, _, H = (np.array(column) for column in zip(*rows))
        a_dot_u = a * f
    else:
        ((a, b, _, H),) = lateral_rows(x, f, [spec], params)
        a_dot_u = np.vecdot(a, tau[:, :2])
    lf_top = b - np.vecdot(H, spec.K)  # L_f^d h
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


def draw_states(
    rng: np.random.Generator, k: int, spec: BarrierSpec, params: QuadParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k random flat states inside the safe set, each with a modest random
    frozen input: x (k, 18), thrusts f (k,) and moments tau (k, 3).

    One rng.random call draws a row per state, and each field is scaled as
    rng.uniform scales it, low + (high - low) * u, in the order of the
    state-by-state draw: r, v, (vx, vy) again over the lateral velocity
    barrier's half-widths, the Euler angles, omega, thrust / (m g), tau. So
    the rows are the states that per-state rng.uniform calls would draw,
    bit for bit.
    """
    velocity = spec.domain is BarrierDomain.LATERAL_VELOCITY
    fields = [(-1.5, 1.5, 3), (-0.6, 0.6, 3), *([(-0.8, 0.8, 2)] if velocity else []),
              (-0.25, 0.25, 3), (-1.0, 1.0, 3), (0.5, 1.8, 1), (-0.5, 0.5, 3)]
    lows, highs, sizes = zip(*fields)
    low, high = np.repeat(lows, sizes), np.repeat(highs, sizes)
    u = low + (high - low) * rng.random((k, len(low)))
    r, v = u[:, 0:3], u[:, 3:6]
    if velocity:
        v[:, :2] = u[:, 6:8] * spec.half_width
    angles, omega, f, tau = np.split(u[:, 8 if velocity else 6:], [3, 6, 7], axis=1)
    R = R_of_euler(*angles.T).reshape(k, 9)
    return np.concatenate([r, R, v, omega], axis=1), f[:, 0] * params.m * params.g, tau


def check_chain(domain: BarrierDomain, n_states: int = 100, seed: int = 12345) -> ChainCheck:
    """Worst-case relative FD errors for one chain, with the family's default
    spec and QuadParams(), over random in-set states.

    Works a block of FD_BLOCK states at a time, in three batched layers:
    draw_states draws the block, one flow call integrates all its stencil
    flows (+FD_DT, then -FD_DT), and one evaluate_chain call evaluates the
    chain at all its states and stencil points; the errors then reduce as
    arrays. The result is the one a state-by-state loop gives, bit for bit,
    except that a NaN or inf error is kept rather than lost in the maximum,
    and memory does not grow with n_states. Raises ValueError if
    n_states < 1, whose errors of 0.0 would read as a pass without any state
    checked.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be at least 1, got {n_states}")
    params = QuadParams()
    spec = default_spec(domain)
    rng = np.random.default_rng(seed)
    worst = np.zeros(RELATIVE_DEGREE[domain])  # per derivative order; NaN stays NaN
    for start in range(0, n_states, FD_BLOCK):
        b = min(FD_BLOCK, n_states - start)
        x, f, tau = draw_states(rng, b, spec, params)
        ends = flow(np.concatenate([x, x]), np.concatenate([f, f]), np.concatenate([tau, tau]),
                    params, np.repeat([FD_DT, -FD_DT], b))
        H, top = evaluate_chain(np.concatenate([x, ends]), spec, params, np.tile(f, 3),
                                np.tile(tau, (3, 1)))
        H0, Hp, Hm, top0 = H[:b], H[b:2 * b], H[2 * b:], top[:b]
        fd = (Hp - Hm) / (2.0 * FD_DT)
        analytic = np.column_stack([H0[:, 1:], top0])
        scale = np.maximum(np.maximum(1.0, np.abs(H0).max(axis=1)), np.abs(top0))
        rel = np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1e-4 * scale[:, None])
        worst = np.maximum(worst, rel.max(axis=0))
    return ChainCheck(domain, float(worst[:-1].max(initial=0.0)), float(worst[-1]))


def check_all_chains(n_states: int = 100, seed: int = 12345) -> list[ChainCheck]:
    return [check_chain(domain, n_states=n_states, seed=seed) for domain in BarrierDomain]
