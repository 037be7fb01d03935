"""The block-batched finite-difference oracle against the state-by-state one.

check_all_chains works each block in one pass over the chains: one draw of
Kronecker points for every chain, one flow call that takes every stencil
point (+h, -h, +2h, -2h), each one RK4 step, as float64 columns, one
evaluate_chain call per chain at every state of its block, and Richardson
differences and errors reduced as arrays; check_chain is the same pass over
one chain. The seed is the index of the first point. ref_unit_point,
ref_random_state_and_input, ref_evaluate_chain, ref_flow and ref_check_chain
below are the state-by-state oracle (only the names carry a ref_ prefix),
each point from Python integers; every result must match them bit for bit.
"""

import math
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from functools import partial

import numpy as np
import pytest

import quadsafe.oracle as oracle
from quadsafe.barriers import (
    FAMILIES,
    BarrierDomain,
    BarrierSpec,
    altitude_row,
    barrier_h_column,
    lateral_rows,
)
from quadsafe.cli import main
from quadsafe.dynamics import (
    QuadParams,
    QuadState,
    R_of_euler,
    flat_of,
    project_flat,
    rk4_flat,
)
from quadsafe.oracle import (
    FD_BLOCK,
    FD_DT,
    ChainCheck,
    check_all_chains,
    check_chain,
    default_spec,
    draw_states,
    evaluate_chain,
    flow,
)
from quadsafe.oracle import _STEPS

# Starts spread over [0, 2^62]: consecutive starts share all but one point.
SWEEP_STARTS = [0, 12345, 10**6, 10**9, 2**32, 2**40, 2**52, 2**62]


def ref_evaluate_chain(
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


def ref_unit_point(n: int) -> list[float]:
    """Point n of the Kronecker sequence in [0, 1)^d: coordinate j is the
    top 53 bits of n * A_j mod 2^64, scaled by 2^-53."""
    return [(n * a % 2**64 >> 11) * 2.0**-53 for a in _STEPS.tolist()]


def ref_random_state_and_input(n: int, params: QuadParams
                               ) -> tuple[QuadState, float, np.ndarray]:
    """State n inside every default safe set with a modest frozen input
    (thrust f, moments tau), each field low + (high - low) * u."""
    u = iter(ref_unit_point(n))

    def uniform(low, high, size):
        return np.array([low + (high - low) * next(u) for _ in range(size)])

    vx, vy = (0.8 * p for p in default_spec(BarrierDomain.LATERAL_VELOCITY).half_width)
    r = uniform(-1.5, 1.5, 3)
    v = np.concatenate([uniform(-vx, vx, 1), uniform(-vy, vy, 1), uniform(-0.6, 0.6, 1)])
    angles = uniform(-0.25, 0.25, 3)
    omega = uniform(-1.0, 1.0, 3)
    state = QuadState(r=r, R=R_of_euler(*angles), v=v, omega=omega)
    f = float(uniform(0.5, 1.8, 1)[0] * params.m * params.g)
    return state, f, uniform(-0.5, 0.5, 3)


def ref_flow(x, f, tau, params, dt):
    return rk4_flat(x, f, tau.tolist(), params, dt)


def ref_check_chain(domain, params=None, n_states=100, seed=12345, spec=None):
    params = params or QuadParams()
    spec = spec or default_spec(domain)
    delta = FAMILIES[domain].delta
    worst_lower = 0.0
    worst_top = 0.0
    for n in range(seed, seed + n_states):
        state, f, tau = ref_random_state_and_input(n, params)
        x = flat_of(state)
        H0, total0 = ref_evaluate_chain(x, spec, params, f, tau)
        Hp, Hm, Hp2, Hm2 = (ref_evaluate_chain(ref_flow(x, f, tau, params, dt * FD_DT),
                                               spec, params, f, tau)[0]
                            for dt in (1.0, -1.0, 2.0, -2.0))
        scale = max(1.0, float(np.max(np.abs(H0))), abs(total0))
        for k in range(delta):
            fd = (8.0 * (Hp[k] - Hm[k]) - (Hp2[k] - Hm2[k])) / (12.0 * FD_DT)
            analytic = H0[k + 1] if k + 1 < delta else total0
            rel = abs(fd - analytic) / max(abs(analytic), 1e-4 * scale)
            if k + 1 < delta:
                worst_lower = max(worst_lower, rel)
            else:
                worst_top = max(worst_top, rel)
    return ChainCheck(domain, worst_lower, worst_top)


@pytest.mark.parametrize("start", [0, 12345, 2**40, 2**62])
def test_batched_flow_is_the_single_flow(start):
    params = QuadParams()
    draws = [ref_random_state_and_input(n, params) for n in range(start, start + 76)]
    xs = [flat_of(state) for state, _, _ in draws]
    fs = [f for _, f, _ in draws]
    taus = [tau for _, _, tau in draws]
    dts = [(FD_DT, -FD_DT, 2 * FD_DT, -2 * FD_DT)[j % 4] for j in range(len(draws))]
    got = flow(np.array(xs), np.array(fs), np.array(taus), params, np.array(dts))
    want = np.array([ref_flow(*args, params, dt) for args, dt in zip(zip(xs, fs, taus), dts)])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_states", [1, 100, FD_BLOCK + 3])  # the last leaves a partial block
@pytest.mark.parametrize("seed", [12345, 99, 7, 2**63 - 100])  # the last crosses 2^63
def test_check_chain_is_the_state_by_state_check(seed, n_states):
    for domain in BarrierDomain:
        got = check_chain(domain, n_states=n_states, seed=seed)
        want = ref_check_chain(domain, n_states=n_states, seed=seed)
        assert got.domain is want.domain
        assert got.max_rel_lower == want.max_rel_lower, (domain, got, want)
        assert got.max_rel_top == want.max_rel_top, (domain, got, want)


@pytest.mark.parametrize("start", [0, 12345, 2**63 - 1])
@pytest.mark.parametrize("k", [1, 2, 37, FD_BLOCK])
def test_block_draw_is_the_state_by_state_draw(start, k):
    # Two blocks in a row: the second continues at index start + k.
    params = QuadParams()
    for first in (start, start + k):
        x, f, tau = draw_states(first, k, params)
        want = [ref_random_state_and_input(n, params) for n in range(first, first + k)]
        assert x.shape == (k, 18) and f.shape == (k,) and tau.shape == (k, 3)
        assert x.tobytes() == np.array([flat_of(state) for state, _, _ in want]).tobytes()
        assert f.tobytes() == np.array([f for _, f, _ in want]).tobytes()
        assert tau.tobytes() == np.array([tau for _, _, tau in want]).tobytes()


def test_kronecker_steps_are_the_generalized_golden_ratio():
    # A_j = floor(2^64 phi^-(j+1)), phi the positive root of x^(d+1) = x + 1,
    # here from Newton's method in 60-digit decimals.
    d = len(_STEPS)
    with localcontext() as ctx:
        ctx.prec = 60
        phi = Decimal(2)
        for _ in range(40):
            phi -= (phi ** (d + 1) - phi - 1) / ((d + 1) * phi**d - 1)
        for j, a in enumerate(_STEPS.tolist()):
            assert 0 <= phi ** -(j + 1) * 2**64 - a < 1, j


def test_states_lie_inside_every_default_safe_set():
    x, _, _ = draw_states(0, 20 * FD_BLOCK, QuadParams())
    for domain in BarrierDomain:
        assert barrier_h_column(x, default_spec(domain)).min() > 0.0, domain


def test_start_index_errors():
    for bad in (-1, 2**63):
        with pytest.raises(ValueError, match="seed"):
            check_chain(BarrierDomain.ALTITUDE_POSITION, n_states=1, seed=bad)
    with pytest.raises(TypeError):
        check_chain(BarrierDomain.ALTITUDE_POSITION, n_states=1, seed=1.5)


@pytest.mark.parametrize("domain", list(BarrierDomain), ids=lambda d: d.value)
def test_block_evaluation_is_the_state_by_state_evaluation(domain):
    # The oracle's states, and flowed states whose R is off SO(3) by round-off.
    params, spec = QuadParams(), default_spec(domain)
    x, f, tau = draw_states(31, 200, params)
    x[100:] = flow(x[100:], f[100:], tau[100:], params, np.full(100, 0.3))
    H, top = evaluate_chain(x, spec, params, f, tau)
    want = [ref_evaluate_chain(xi, spec, params, fi, taui)
            for xi, fi, taui in zip(x.tolist(), f.tolist(), tau)]
    assert H.shape == (200, FAMILIES[domain].delta)
    assert H.tobytes() == np.array([H for H, _ in want]).tobytes()
    assert top.tobytes() == np.array([top for _, top in want]).tobytes()


def test_chain_check_holds_plain_floats():
    for chk in check_all_chains(n_states=1) + check_all_chains(n_states=3, seed=7):
        assert type(chk.max_rel_lower) is float and type(chk.max_rel_top) is float, chk


def nan_at_forward_stencil_points(monkeypatch):
    """Sets H[0] of every forward (+h, +2h) stencil point to NaN, through the
    row builders: the states that flow returns at a positive step are recorded,
    and altitude_row and lateral_rows, each called on a block of states,
    write NaN into the first column of H at every recorded state."""
    forward = set()
    real_flow, real_altitude_row, real_lateral_rows = flow, altitude_row, lateral_rows

    def recording_flow(x, f, tau, params, dt):
        end = real_flow(x, f, tau, params, dt)
        forward.update(map(tuple, end[dt > 0.0].tolist()))
        return end

    def nan_altitude_row(spec, z, zd, R33, params):
        a, b, h, H = real_altitude_row(spec, z, zd, R33, params)
        at = {(state[2], state[14], state[11]) for state in forward}
        hit = np.array([point in at for point in zip(z.tolist(), zd.tolist(), R33.tolist())])
        H[hit, 0] = math.nan
        return a, b, h, H

    def nan_lateral_rows(x, f, specs, params):
        rows = real_lateral_rows(x, f, specs, params)
        hit = np.array([tuple(state) in forward for state in x.tolist()])
        for _, _, _, H in rows:
            H[hit, 0] = math.nan
        return rows

    monkeypatch.setattr(oracle, "flow", recording_flow)
    monkeypatch.setattr(oracle, "altitude_row", nan_altitude_row)
    monkeypatch.setattr(oracle, "lateral_rows", nan_lateral_rows)


@pytest.mark.parametrize("domain", [BarrierDomain.ALTITUDE_POSITION,
                                    BarrierDomain.LATERAL_POSITION], ids=lambda d: d.value)
def test_a_nan_error_is_not_a_pass(monkeypatch, domain):
    # max(0.0, nan) is 0.0: a state-by-state max would report 0.0 here.
    nan_at_forward_stencil_points(monkeypatch)
    chk = check_chain(domain, n_states=20)
    assert math.isnan(chk.max_rel_lower), chk
    assert not chk.max_rel_lower <= 1e-4  # A1's test, which must fail


def test_a_nan_error_fails_the_oracle_command(monkeypatch, capsys):
    nan_at_forward_stencil_points(monkeypatch)
    assert main(["oracle", "--states", "20"]) == 1
    out = capsys.readouterr().out
    assert "altitude_position: max_rel_err lower-derivatives=nan" in out
    assert out.endswith("oracle: FAIL\n")


def test_one_step_is_four_substeps_and_a_projection():
    # Why a stencil point is one RK4 step: at A1's states, one step of +-FD_DT
    # or +-2 FD_DT lands within 1e-14 of four RK4 substeps followed by a
    # re-projection onto SO(3), and its R is orthogonal within 1e-14. RK4's
    # O(h^5) error and drift off SO(3) are below rounding at h = 2 FD_DT.
    params = QuadParams()
    x, f, tau = draw_states(12345, 100, params)
    for dt in (FD_DT, -FD_DT, 2 * FD_DT, -2 * FD_DT):
        got = flow(x, f, tau, params, np.full(len(x), dt))
        for end, xi, fi, taui in zip(got, x.tolist(), f.tolist(), tau.tolist()):
            for _ in range(4):
                xi = rk4_flat(xi, fi, taui, params, dt / 4)
            want = project_flat(xi)
            assert np.abs(end - want).max() <= 1e-14, dt
            R = end[3:12].reshape(3, 3)
            assert np.abs(R @ R.T - np.eye(3)).max() <= 1e-14, dt


def test_memory_does_not_grow_with_states():
    def peak(check, n_states):
        tracemalloc.start()
        try:
            check(n_states=n_states)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for check in (partial(check_chain, BarrierDomain.ALTITUDE_POSITION), check_all_chains):
        check(n_states=1)   # first-call set-up outside the measurement
        one_block, eight_blocks = peak(check, FD_BLOCK), peak(check, 8 * FD_BLOCK)
        assert eight_blocks <= 1.5 * one_block, (check, one_block, eight_blocks)


def test_one_pass_per_block_for_all_chains(monkeypatch):
    # Per block: one draw for every chain, one flow call for every stencil
    # point and one evaluate_chain call per chain.
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(oracle, name, wrapper)

    for name in ("draw_states", "flow", "evaluate_chain"):
        counting(name, getattr(oracle, name))
    check_all_chains(n_states=FD_BLOCK + 3)
    assert calls == {"draw_states": 2, "flow": 2, "evaluate_chain": 8}
    calls.clear()
    check_chain(BarrierDomain.LATERAL_VELOCITY, n_states=FD_BLOCK + 3)
    assert calls == {"draw_states": 2, "flow": 2, "evaluate_chain": 2}


@pytest.mark.parametrize("n_states, seed", [(1, 12345), (100, 12345), (259, 7)])
def test_all_chains_are_each_chains_check(n_states, seed):
    got = check_all_chains(n_states, seed)
    assert repr(got) == repr([check_chain(domain, n_states, seed) for domain in BarrierDomain])


@pytest.mark.parametrize("n_states", [0, -5])
def test_no_states_is_an_error(n_states):
    # An oracle that checked no state must not report errors of 0.0.
    with pytest.raises(ValueError, match="n_states"):
        check_chain(BarrierDomain.ALTITUDE_POSITION, n_states=n_states)
    with pytest.raises(ValueError, match="n_states"):
        check_all_chains(n_states=n_states)


@pytest.mark.parametrize("n_states", [100, 500])
def test_a1_limits_hold_at_every_start(n_states):
    # A1's limits at starts spread over [0, 2^62]; about 0.2 s for both sizes.
    for start in SWEEP_STARTS:
        for chk in check_all_chains(n_states, start):
            assert chk.max_rel_lower <= 1e-4 and chk.max_rel_top <= 1e-3, (start, chk)


def scaled_chains(monkeypatch, lower, top):
    """Makes evaluate_chain return H with its entries after the first scaled
    by lower and the top derivative scaled by top: a wrong chain."""
    real = oracle.evaluate_chain

    def wrong(*args):
        H, total = real(*args)
        return np.column_stack([H[:, :1], H[:, 1:] * lower]), total * top

    monkeypatch.setattr(oracle, "evaluate_chain", wrong)


def test_a_wrong_lower_entry_fails_a1(monkeypatch):
    # altitude_posvel has relative degree 1: it has no lower entry to scale.
    scaled_chains(monkeypatch, 1 + 1e-3, 1.0)
    for chk in check_all_chains():
        if FAMILIES[chk.domain].delta > 1:
            assert chk.max_rel_lower > 1e-4, chk


def test_a_wrong_top_derivative_fails_a1(monkeypatch):
    scaled_chains(monkeypatch, 1.0, 1 + 1e-2)
    for chk in check_all_chains():
        assert chk.max_rel_top > 1e-3, chk
