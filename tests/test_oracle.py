"""The block-batched finite-difference oracle against the state-by-state one.

check_all_chains works each block in one pass over the chains: one random
call per distinct drawn block, one flow call that takes every chain's
stencil points, each one RK4 step, as float64 columns, one evaluate_chain
call per chain at every state of its block, and errors reduced as arrays;
check_chain is the same pass over one chain. The draws come from _Pcg64,
the in-package PCG64 stream, whose bytes must be those of numpy's
default_rng(seed): the package never imports numpy.random, and these tests
use numpy's generator as the reference. ref_random_state_and_input,
ref_evaluate_chain, ref_flow and ref_check_chain below are the
state-by-state oracle (only the names carry a ref_ prefix); every result
must match them bit for bit.
"""

import math
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest

import quadsafe.oracle as oracle
from quadsafe.barriers import (
    RELATIVE_DEGREE,
    BarrierDomain,
    BarrierSpec,
    altitude_row,
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
from quadsafe.oracle import _PCG_LANES, _Pcg64


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


def ref_random_state_and_input(
    rng: np.random.Generator, spec: BarrierSpec, params: QuadParams
) -> tuple[QuadState, float, np.ndarray]:
    """Random state inside the safe set with a modest random frozen input
    (thrust f, moments tau)."""
    r = rng.uniform(-1.5, 1.5, size=3)
    v = rng.uniform(-0.6, 0.6, size=3)
    if spec.domain is BarrierDomain.LATERAL_VELOCITY:
        v[:2] = rng.uniform(-0.8, 0.8, size=2) * spec.half_width
    angles = rng.uniform(-0.25, 0.25, size=3)
    omega = rng.uniform(-1.0, 1.0, size=3)
    state = QuadState(r=r, R=R_of_euler(*angles), v=v, omega=omega)
    f = float(rng.uniform(0.5, 1.8) * params.m * params.g)
    return state, f, rng.uniform(-0.5, 0.5, size=3)


def ref_flow(x, f, tau, params, dt):
    return rk4_flat(x, f, tau.tolist(), params, dt)


def ref_check_chain(domain, params=None, n_states=100, seed=12345, spec=None):
    params = params or QuadParams()
    spec = spec or default_spec(domain)
    rng = np.random.default_rng(seed)
    delta = RELATIVE_DEGREE[domain]
    worst_lower = 0.0
    worst_top = 0.0
    for _ in range(n_states):
        state, f, tau = ref_random_state_and_input(rng, spec, params)
        x = flat_of(state)
        H0, total0 = ref_evaluate_chain(x, spec, params, f, tau)
        Hp, _ = ref_evaluate_chain(ref_flow(x, f, tau, params, FD_DT), spec, params, f, tau)
        Hm, _ = ref_evaluate_chain(ref_flow(x, f, tau, params, -FD_DT), spec, params, f, tau)
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


@pytest.mark.parametrize("domain", list(BarrierDomain), ids=lambda d: d.value)
def test_batched_flow_is_the_single_flow(domain):
    params = QuadParams()
    rng = np.random.default_rng(2024)
    draws = [ref_random_state_and_input(rng, default_spec(domain), params) for _ in range(75)]
    xs = [flat_of(state) for state, _, _ in draws]
    fs = [f for _, f, _ in draws]
    taus = [tau for _, _, tau in draws]
    dts = [FD_DT if j % 2 else -FD_DT for j in range(len(draws))]
    got = flow(np.array(xs), np.array(fs), np.array(taus), params, np.array(dts))
    want = np.array([ref_flow(*args, params, dt) for args, dt in zip(zip(xs, fs, taus), dts)])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_states", [1, 100, FD_BLOCK + 3])  # the last leaves a partial block
@pytest.mark.parametrize("seed", [12345, 99, 7])
def test_check_chain_is_the_state_by_state_check(seed, n_states):
    for domain in BarrierDomain:
        got = check_chain(domain, n_states=n_states, seed=seed)
        want = ref_check_chain(domain, n_states=n_states, seed=seed)
        assert got.domain is want.domain
        assert got.max_rel_lower == want.max_rel_lower, (domain, got, want)
        assert got.max_rel_top == want.max_rel_top, (domain, got, want)


@pytest.mark.parametrize("domain", list(BarrierDomain), ids=lambda d: d.value)
@pytest.mark.parametrize("k", [1, 2, 37, FD_BLOCK])
def test_block_draw_is_the_state_by_state_draw(domain, k):
    # Two blocks in a row from one generator: the second must start where the
    # state-by-state draw of the first left the stream.
    params, spec = QuadParams(), default_spec(domain)
    rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
    for _ in range(2):
        x, f, tau = draw_states(rng, k, spec, params)
        want = [ref_random_state_and_input(ref_rng, spec, params) for _ in range(k)]
        assert x.shape == (k, 18) and f.shape == (k,) and tau.shape == (k, 3)
        assert x.tobytes() == np.array([flat_of(state) for state, _, _ in want]).tobytes()
        assert f.tobytes() == np.array([f for _, f, _ in want]).tobytes()
        assert tau.tobytes() == np.array([tau for _, _, tau in want]).tobytes()


# The stream's internal boundaries: a call of n draws has min(n, lanes) lanes
# and ceil(n / lanes) rows.
BOUNDARY_SIZES = [n + d for n in (_PCG_LANES, 2 * _PCG_LANES) for d in (-1, 0, 1)]


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 + 1, 2**130 + 7])
def test_stream_is_default_rng(seed):
    # 2**32 + 1 has two 32-bit entropy words, 2**130 + 7 more than the
    # seed pool's 4. Consecutive calls continue the stream as numpy's do.
    shapes = [(1,), (17,), (100, 17), (FD_BLOCK, 19), (0,), (3, 0)]
    shapes += [(n,) for n in BOUNDARY_SIZES]
    rng, want = _Pcg64(seed), np.random.default_rng(seed)
    for shape in shapes + shapes[::-1]:
        got, expected = rng.random(shape), want.random(shape)
        assert got.shape == expected.shape and got.dtype == expected.dtype, shape
        assert got.tobytes() == expected.tobytes(), shape


def test_stream_seed_errors_are_numpys():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="seed"):
        check_chain(BarrierDomain.ALTITUDE_POSITION, n_states=1, seed=-1)
    with pytest.raises(TypeError):
        np.random.default_rng(1.5)
    with pytest.raises(TypeError):
        check_chain(BarrierDomain.ALTITUDE_POSITION, n_states=1, seed=1.5)


@pytest.mark.parametrize("domain", list(BarrierDomain), ids=lambda d: d.value)
def test_block_evaluation_is_the_state_by_state_evaluation(domain):
    # The oracle's states, and flowed states whose R is off SO(3) by round-off.
    params, spec = QuadParams(), default_spec(domain)
    x, f, tau = draw_states(np.random.default_rng(31), 200, spec, params)
    x[100:] = flow(x[100:], f[100:], tau[100:], params, np.full(100, 0.3))
    H, top = evaluate_chain(x, spec, params, f, tau)
    want = [ref_evaluate_chain(xi, spec, params, fi, taui)
            for xi, fi, taui in zip(x.tolist(), f.tolist(), tau)]
    assert H.shape == (200, RELATIVE_DEGREE[domain])
    assert H.tobytes() == np.array([H for H, _ in want]).tobytes()
    assert top.tobytes() == np.array([top for _, top in want]).tobytes()


def test_chain_check_holds_plain_floats():
    for chk in check_all_chains(n_states=1) + check_all_chains(n_states=3, seed=7):
        assert type(chk.max_rel_lower) is float and type(chk.max_rel_top) is float, chk


def nan_at_forward_stencil_points(monkeypatch):
    """Sets H[0] of every +FD_DT stencil point to NaN, through the row
    builders: the states that flow returns at a positive step are recorded,
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
    # Why a stencil point is one RK4 step: at A1's states, for every family,
    # one step of +-FD_DT lands within 1e-14 of four RK4 substeps followed by
    # a re-projection onto SO(3), and its R is orthogonal within 1e-14. RK4's
    # O(h^5) error and drift off SO(3) are below rounding at h = FD_DT.
    params = QuadParams()
    for domain in BarrierDomain:
        x, f, tau = draw_states(_Pcg64(12345), 100, default_spec(domain), params)
        for dt in (FD_DT, -FD_DT):
            got = flow(x, f, tau, params, np.full(len(x), dt))
            for end, xi, fi, taui in zip(got, x.tolist(), f.tolist(), tau.tolist()):
                for _ in range(4):
                    xi = rk4_flat(xi, fi, taui, params, dt / 4)
                want = project_flat(xi)
                assert np.abs(end - want).max() <= 1e-14, (domain, dt)
                R = end[3:12].reshape(3, 3)
                assert np.abs(R @ R.T - np.eye(3)).max() <= 1e-14, (domain, dt)


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
    # Per block: one draw per distinct drawn block (the three families
    # without a drawn lateral velocity share one), one flow call for every
    # chain's stencils and one evaluate_chain call per chain.
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(oracle, name, wrapper)

    for name in ("draw_states", "flow", "evaluate_chain"):
        counting(name, getattr(oracle, name))
    check_all_chains(n_states=FD_BLOCK + 3)
    assert calls == {"draw_states": 4, "flow": 2, "evaluate_chain": 8}
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
