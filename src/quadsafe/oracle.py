"""Finite-difference verification of the barrier Lie-derivative chains.

Independent cross-check of the closed-form chains: integrate the dynamics
under a frozen input and compare Richardson-extrapolated central differences
(O(h^4)) of each chain entry against the next analytic entry. Entry k of the
Lie-derivative vector is thereby certified as the k-th time derivative of
h along the flow, and the top derivative against
L_f^d h + L_g L_f^(d-1) h . u. The states are the points of a seedless
Kronecker sequence (Roberts 2018; Niederreiter 1992), so the package never
imports numpy.random; the seed is the index of the first point. They are
drawn, flowed and evaluated a block at a time, for all the checked chains in
one pass: one draw per block, one flow call for every stencil point and one
evaluate_chain call per chain, each a batched call that gives every state
the bits of its own.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .barriers import (
    ALTITUDE_DOMAINS,
    FAMILIES,
    BarrierDomain,
    BarrierSpec,
    altitude_row,
    lateral_rows,
)
from .dynamics import NonFiniteState, QuadParams, R_of_euler, rk4_flat

FD_DT = 1e-4        # Richardson stencil step h: the flows run +h, -h, +2h and -2h
FD_BLOCK = 256      # states drawn, flowed and evaluated as one batch; bounds memory
_STENCIL = np.array([1.0, -1.0, 2.0, -2.0]) * FD_DT

# The (low, high) box of each drawn coordinate, in order: r, v, the Euler
# angles, omega, thrust / (m g), tau. v's lateral pair stays within 0.8 of
# the lateral-velocity set's half-widths, so every state lies inside all
# four default safe sets.
_VX, _VY = (0.8 * p for p in FAMILIES[BarrierDomain.LATERAL_VELOCITY].half_width)
_BOX = np.array([(-1.5, 1.5)] * 3 + [(-_VX, _VX), (-_VY, _VY), (-0.6, 0.6)]
                + [(-0.25, 0.25)] * 3 + [(-1.0, 1.0)] * 3 + [(0.5, 1.8)] + [(-0.5, 0.5)] * 3).T


def _kronecker_steps(d: int) -> np.ndarray:
    """floor(2^64 alpha_j) for alpha_j = phi^-(j+1), j < d, as uint64, where
    phi is the positive root of x^(d+1) = x + 1 (Roberts 2018). 1/phi is the
    root in (0, 1) of x^d (1 + x) = 1, found by bisection on 96-bit
    fixed-point integers."""
    one, lo, hi = 1 << 96, 0, 1 << 96
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        lo, hi = (mid, hi) if mid**d * (one + mid) <= one ** (d + 1) else (lo, mid)
    return np.array([lo ** (j + 1) >> (96 * j + 32) for j in range(d)], np.uint64)


_STEPS = _kronecker_steps(_BOX.shape[1])


@dataclass
class ChainCheck:
    """Worst relative errors for one barrier chain at a batch of states, as
    floats; NaN or inf if any state's error is not finite."""

    domain: BarrierDomain
    max_rel_lower: float   # entries of H vs Richardson differences of h
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
    single evaluation. Each chain's rows come from one call of its row
    builder over all k states: altitude_row on the (z, zdot, R33) columns
    (ALTITUDE_DOMAINS), or lateral_rows on the block; a power that
    overflows gives its state non-finite cells."""
    if spec.domain in ALTITUDE_DOMAINS:
        a, b, _, H = altitude_row(spec, x[:, 2], x[:, 14], x[:, 11], params)
        a_dot_u = a * f
    else:
        ((a, b, _, H),) = lateral_rows(x, f, [spec], params)
        a_dot_u = np.vecdot(a, tau[:, :2])
    lf_top = b - np.vecdot(H, spec.K)  # L_f^d h
    return H, lf_top + a_dot_u


def flow(
    x: np.ndarray, f: np.ndarray, tau: np.ndarray, params: QuadParams, dt: np.ndarray
) -> np.ndarray:
    """Frozen-input flows of k flat states, each one RK4 step over its own
    small signed interval (for stencils).

    x is (k, 18), f and dt are (k,), tau is (k, 3); returns the (k, 18) end
    states. The steps run together as float64 columns through rk4_flat,
    which gives every flow the bits of its own float step. RK4 is valid for
    negative steps, so backward stencil points integrate the same vector
    field with a negative step size. One step of up to 2 FD_DT leaves an
    O(h^5) error and an O(h^5) drift of R off SO(3), both below rounding,
    so R is not re-projected. Raises NonFiniteState if an end state is not finite.
    """
    end = np.column_stack(rk4_flat(list(x.T), f, list(tau.T), params, dt))
    if not np.isfinite(end).all():
        raise NonFiniteState("integration produced non-finite values")
    return end


def default_spec(domain: BarrierDomain) -> BarrierSpec:
    """The family's default region and poles."""
    return BarrierSpec(domain, FAMILIES[domain].center, FAMILIES[domain].half_width)


def draw_states(start: int, k: int, params: QuadParams
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points start .. start + k - 1 of the Kronecker sequence as k flat
    states inside every default safe set, each with a modest frozen input:
    x (k, 18), thrusts f (k,) and moments tau (k, 3).

    Coordinate j of point n is frac(n alpha_j): the uint64 product
    n * _STEPS[j] wraps mod 2^64, and its top 53 bits scaled by 2^-53 give
    u in [0, 1), exactly for every n < 2^64. Each coordinate is then
    low + (high - low) * u over its _BOX row.
    """
    n = np.uint64(start) + np.arange(k, dtype=np.uint64)
    low, high = _BOX
    u = low + (high - low) * ((n[:, None] * _STEPS >> 11) * 2.0**-53)
    r, v, angles, omega, f, tau = np.split(u, [3, 6, 9, 12, 13], axis=1)
    R = R_of_euler(*angles.T).reshape(k, 9)
    return np.concatenate([r, R, v, omega], axis=1), f[:, 0] * params.m * params.g, tau


def check_chain(domain: BarrierDomain, n_states: int = 100, seed: int = 12345) -> ChainCheck:
    """Worst-case relative FD errors for one chain: check_all_chains' pass
    over this chain alone, bit for bit its result for the chain."""
    (check,) = _check_chains([domain], n_states, seed)
    return check


def check_all_chains(n_states: int = 100, seed: int = 12345) -> list[ChainCheck]:
    """Worst-case relative FD errors of every chain, in BarrierDomain's
    order, each with the family's default spec and QuadParams(), over the
    n_states points of the Kronecker sequence from index seed on.

    Works a block of FD_BLOCK states at a time, in one pass over the
    chains: draw_states draws the block once for every chain, block j from
    index seed + j * FD_BLOCK, so a result over fewer states is over a
    prefix of the same points; one flow call integrates the block's four
    stencil flows (+FD_DT, -FD_DT, +2 FD_DT, -2 FD_DT); and one
    evaluate_chain call per chain evaluates it at the block's states and
    stencil ends. Each derivative is the Richardson difference
    (8 (H(+h) - H(-h)) - (H(+2h) - H(-2h))) / (12 h). The errors then
    reduce as arrays. Each result is the one a state-by-state loop over
    that chain alone gives, bit for bit, except that a NaN or inf error is
    kept rather than lost in the maximum, and memory does not grow with
    n_states. Raises ValueError if n_states < 1, whose errors of 0.0 would
    read as a pass without any state checked, or if seed is not in
    [0, 2^63), and TypeError if seed is not an integer.
    """
    return _check_chains(list(BarrierDomain), n_states, seed)


def _check_chains(domains: list[BarrierDomain], n_states: int, seed: int) -> list[ChainCheck]:
    if n_states < 1:
        raise ValueError(f"n_states must be at least 1, got {n_states}")
    if not 0 <= operator.index(seed) < 1 << 63:
        raise ValueError(f"seed must be in [0, 2**63), got {seed}")
    params = QuadParams()
    specs = [default_spec(domain) for domain in domains]
    # Per derivative order of each chain; NaN stays NaN.
    worst = [np.zeros(FAMILIES[spec.domain].delta) for spec in specs]
    for start in range(0, n_states, FD_BLOCK):
        b = min(FD_BLOCK, n_states - start)
        x, f, tau = draw_states(seed + start, b, params)
        # The block's states, then its ends at +h, -h, +2h and -2h.
        states = np.concatenate([x, flow(np.tile(x, (4, 1)), np.tile(f, 4), np.tile(tau, (4, 1)),
                                         params, np.repeat(_STENCIL, b))])
        fs, taus = np.tile(f, 5), np.tile(tau, (5, 1))
        for spec, w in zip(specs, worst):
            H, top = evaluate_chain(states, spec, params, fs, taus)
            H0, Hp, Hm, Hp2, Hm2 = np.split(H, 5)
            top0 = top[:b]
            fd = (8.0 * (Hp - Hm) - (Hp2 - Hm2)) / (12.0 * FD_DT)
            analytic = np.column_stack([H0[:, 1:], top0])
            scale = np.maximum(np.maximum(1.0, np.abs(H0).max(axis=1)), np.abs(top0))
            rel = np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1e-4 * scale[:, None])
            np.maximum(w, rel.max(axis=0), out=w)
    return [ChainCheck(spec.domain, float(w[:-1].max(initial=0.0)), float(w[-1]))
            for spec, w in zip(specs, worst)]
