"""Finite-difference verification of the barrier Lie-derivative chains.

Independent cross-check of the closed-form chains: integrate the dynamics
under a frozen input and compare central-difference time derivatives of
each chain entry against the next analytic entry. Entry k of the
Lie-derivative vector is thereby certified as the k-th time derivative of
h along the flow, and the top derivative against
L_f^d h + L_g L_f^(d-1) h . u. The states are drawn, flowed and evaluated
a block at a time, for all the checked chains in one pass: one draw per
distinct drawn block, one flow call for every chain's stencils and one
evaluate_chain call per chain, each a batched call that gives every state
the bits of its own. The draws come from _Pcg64, the in-package PCG64
stream, which gives the bits of numpy's default_rng(seed), so the package
never imports numpy.random.
"""

from __future__ import annotations

import math
import operator
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
from .dynamics import NonFiniteState, QuadParams, R_of_euler, rk4_flat

FD_DT = 1e-4        # central-difference half step
FD_BLOCK = 256      # states drawn, flowed and evaluated as one batch; bounds memory

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_LANES = 64     # draws per row of one random() call's (rows, lanes) grid


def _seed_sequence(seed: int) -> tuple[int, int]:
    """(initstate, initseq) of numpy's PCG64 seeded with SeedSequence(seed):
    the seed's little-endian 32-bit words hashed into a pool of 4 words,
    which then give 4 little-endian 64-bit words."""
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        words.append(value ^ value >> 16)
    u = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    return u[0] << 64 | u[1], u[2] << 64 | u[3]


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The high and the low 64 bits of 128-bit integers, as uint64 arrays."""
    return (np.array([v >> 64 for v in values], np.uint64),
            np.array([v & _M64 for v in values], np.uint64))


class _Pcg64:
    """The stream of numpy's default_rng(seed), for random() only: PCG64
    (O'Neill 2014), a 128-bit LCG with the XSL-RR output, seeded as
    SeedSequence(seed) seeds it. random(shape) returns the bits
    default_rng(seed).random(shape) returns, across calls too, without
    importing numpy.random."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        initstate, initseq = _seed_sequence(seed)
        self.inc = (initseq << 1 | 1) & _M128
        self.state = ((self.inc + initstate) * _PCG_MULT + self.inc) & _M128

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        """Uniform floats in [0, 1) of the given shape, in C order: draw k
        is the state after k + 1 steps s -> s·M + inc mod 2^128, through
        XSL-RR, its top 53 bits scaled by 2^-53.

        The draws are laid out as a (rows, lanes) grid. The state b_i that
        starts row i and the map s -> A_j·s + C_j of j + 1 steps come from
        Python integers; numpy then forms every A_j·b_i + C_j at once."""
        n = math.prod(shape)
        lanes = min(_PCG_LANES, n)
        if not lanes:
            return np.empty(shape)
        As, Cs, A, C = [], [], _PCG_MULT, self.inc
        for _ in range(lanes):
            As.append(A)
            Cs.append(C)
            A, C = A * _PCG_MULT & _M128, (C * _PCG_MULT + self.inc) & _M128
        bases, b = [], self.state
        for _ in range(-(-n // lanes)):
            bases.append(b)
            b = (As[-1] * b + Cs[-1]) & _M128
        (a_hi, a_lo), (c_hi, c_lo) = _halves(As), _halves(Cs)
        b_hi, b_lo = (half[:, None] for half in _halves(bases))
        # A_j·b_i + C_j mod 2^128 in 64-bit halves, the high half of
        # b_lo·a_lo from its four 32-bit partial products.
        a0, a1, b0, b1 = a_lo & _M32, a_lo >> 32, b_lo & _M32, b_lo >> 32
        t = b1 * a0 + (b0 * a0 >> 32)
        u = b0 * a1 + (t & _M32)
        lo = b_lo * a_lo + c_lo
        hi = b1 * a1 + (t >> 32) + (u >> 32) + b_hi * a_lo + b_lo * a_hi + c_hi + (lo < c_lo)
        hi, lo = hi.reshape(-1)[:n], lo.reshape(-1)[:n]
        self.state = int(hi[-1]) << 64 | int(lo[-1])
        x, rot = hi ^ lo, hi >> 58
        out = x >> rot | x << (64 - rot & 63)
        return ((out >> 11) * 2.0**-53).reshape(shape)


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
    single evaluation. Each chain's rows come from one call of its row
    builder over all k states: altitude_row on the (z, zdot, R33) columns,
    or lateral_rows on the block."""
    if spec.domain in (BarrierDomain.ALTITUDE_POSITION, BarrierDomain.ALTITUDE_POSVEL):
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
    field with a negative step size. One step of FD_DT leaves an O(h^5)
    error and an O(h^5) drift of R off SO(3), both below rounding, so R is
    not re-projected. Raises NonFiniteState if an end state is not finite.
    """
    end = np.column_stack(rk4_flat(list(x.T), f, list(tau.T), params, dt))
    if not np.isfinite(end).all():
        raise NonFiniteState("integration produced non-finite values")
    return end


def default_spec(domain: BarrierDomain) -> BarrierSpec:
    """The family's default region and poles."""
    return BarrierSpec(domain, DEFAULTS[domain].center, DEFAULTS[domain].half_width)


def _velocity_scale(spec: BarrierSpec) -> tuple[float, ...] | None:
    """All that draw_states reads of a spec: the half-widths that scale its
    drawn lateral velocity, or None where it draws no such pair. Specs with
    the same scale draw the same states from the same stream."""
    return spec.p if spec.domain is BarrierDomain.LATERAL_VELOCITY else None


def draw_states(
    rng: _Pcg64, k: int, spec: BarrierSpec, params: QuadParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k random flat states inside the safe set, each with a modest random
    frozen input: x (k, 18), thrusts f (k,) and moments tau (k, 3).

    rng is any object with random(shape): the checks pass a _Pcg64, and
    numpy's Generator, whose random gives the same bits, serves too. One
    rng.random call draws a row per state, and each field is scaled as
    rng.uniform scales it, low + (high - low) * u, in the order of the
    state-by-state draw: r, v, (vx, vy) again over the lateral velocity
    barrier's half-widths, the Euler angles, omega, thrust / (m g), tau. So
    the rows are the states that per-state rng.uniform calls would draw,
    bit for bit. Of the spec only _velocity_scale(spec) is read.
    """
    scale = _velocity_scale(spec)
    velocity = scale is not None
    fields = [(-1.5, 1.5, 3), (-0.6, 0.6, 3), *([(-0.8, 0.8, 2)] if velocity else []),
              (-0.25, 0.25, 3), (-1.0, 1.0, 3), (0.5, 1.8, 1), (-0.5, 0.5, 3)]
    lows, highs, sizes = zip(*fields)
    low, high = np.repeat(lows, sizes), np.repeat(highs, sizes)
    u = low + (high - low) * rng.random((k, len(low)))
    r, v = u[:, 0:3], u[:, 3:6]
    if velocity:
        v[:, :2] = u[:, 6:8] * np.array(scale)
    angles, omega, f, tau = np.split(u[:, 8 if velocity else 6:], [3, 6, 7], axis=1)
    R = R_of_euler(*angles.T).reshape(k, 9)
    return np.concatenate([r, R, v, omega], axis=1), f[:, 0] * params.m * params.g, tau


def check_chain(domain: BarrierDomain, n_states: int = 100, seed: int = 12345) -> ChainCheck:
    """Worst-case relative FD errors for one chain: check_all_chains' pass
    over this chain alone, bit for bit its result for the chain."""
    (check,) = _check_chains([domain], n_states, seed)
    return check


def check_all_chains(n_states: int = 100, seed: int = 12345) -> list[ChainCheck]:
    """Worst-case relative FD errors of every chain, in BarrierDomain's
    order, each with the family's default spec and QuadParams(), over
    random in-set states drawn from _Pcg64(seed), which gives the bits of
    numpy's default_rng(seed) without importing numpy.random.

    Works a block of FD_BLOCK states at a time, in one pass over the
    chains: draw_states draws the block once for all chains whose spec it
    reads alike (the same _velocity_scale), each such group from its own
    stream, so the three families without a drawn lateral velocity share a
    draw; one flow call integrates the stencil flows (+FD_DT, then -FD_DT)
    of every distinct block; and one evaluate_chain call per chain
    evaluates it at its block's states and stencil ends. The errors then
    reduce as arrays. Each result is the one a state-by-state loop over
    that chain alone gives, bit for bit, except that a NaN or inf error is
    kept rather than lost in the maximum, and memory does not grow with
    n_states. Raises ValueError if n_states < 1, whose errors of 0.0 would
    read as a pass without any state checked, or if seed is negative, and
    TypeError if seed is not an integer.
    """
    return _check_chains(list(BarrierDomain), n_states, seed)


def _check_chains(domains: list[BarrierDomain], n_states: int, seed: int) -> list[ChainCheck]:
    if n_states < 1:
        raise ValueError(f"n_states must be at least 1, got {n_states}")
    params = QuadParams()
    specs = [default_spec(domain) for domain in domains]
    # One stream per distinct draw, and the draw each spec reads.
    draws: dict[tuple[float, ...] | None, tuple[BarrierSpec, _Pcg64]] = {}
    for spec in specs:
        draws.setdefault(_velocity_scale(spec), (spec, _Pcg64(seed)))
    which = [list(draws).index(_velocity_scale(spec)) for spec in specs]
    # Per derivative order of each chain; NaN stays NaN.
    worst = [np.zeros(RELATIVE_DEGREE[spec.domain]) for spec in specs]
    for start in range(0, n_states, FD_BLOCK):
        b = min(FD_BLOCK, n_states - start)
        # The distinct blocks stacked: (len(draws) * b, ...) each.
        x, f, tau = map(np.concatenate, zip(*(draw_states(rng, b, spec, params)
                                              for spec, rng in draws.values())))
        ends = flow(np.concatenate([x, x]), np.concatenate([f, f]), np.concatenate([tau, tau]),
                    params, np.repeat([FD_DT, -FD_DT], len(x)))
        # Each distinct block's states, then its +FD_DT and -FD_DT ends.
        states = np.concatenate([x, ends]).reshape(3, -1, b, 18)
        fs, taus = np.tile(f, 3).reshape(3, -1, b), np.tile(tau, (3, 1)).reshape(3, -1, b, 3)
        for spec, j, w in zip(specs, which, worst):
            H, top = evaluate_chain(states[:, j].reshape(-1, 18), spec, params,
                                    fs[:, j].reshape(-1), taus[:, j].reshape(-1, 3))
            H0, Hp, Hm, top0 = H[:b], H[b:2 * b], H[2 * b:], top[:b]
            fd = (Hp - Hm) / (2.0 * FD_DT)
            analytic = np.column_stack([H0[:, 1:], top0])
            scale = np.maximum(np.maximum(1.0, np.abs(H0).max(axis=1)), np.abs(top0))
            rel = np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1e-4 * scale[:, None])
            np.maximum(w, rel.max(axis=0), out=w)
    return [ChainCheck(spec.domain, float(w[:-1].max(initial=0.0)), float(w[-1]))
            for spec, w in zip(specs, worst)]
