"""The block-batched finite-difference oracle against the state-by-state one.

check_chain integrates the stencil flows of a whole block of states as
float64 columns and re-projects them with one stacked SVD. ref_flow and
ref_check_chain below are verbatim copies of the state-by-state oracle it
replaced; every result must match them bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from quadsafe.barriers import RELATIVE_DEGREE, BarrierDomain
from quadsafe.dynamics import QuadParams, flat_of, project_flat, project_to_rotation, rk4_flat
from quadsafe.oracle import (
    _DEFAULT_GAINS,
    FD_BLOCK,
    FD_DT,
    FD_SUBSTEPS,
    ChainCheck,
    check_all_chains,
    check_chain,
    default_spec,
    evaluate_chain,
    flow,
    random_state_and_input,
)


def ref_flow(x, f, tau, params, dt):
    h = dt / FD_SUBSTEPS
    tau = tau.tolist()
    for _ in range(FD_SUBSTEPS):
        x = rk4_flat(x, f, tau, params, h)
    return project_flat(x)


def ref_check_chain(domain, params=None, n_states=100, seed=12345, spec=None, gains=None):
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
        Hp, _ = evaluate_chain(ref_flow(x, f, tau, params, FD_DT), spec, gains, params, f, tau)
        Hm, _ = evaluate_chain(ref_flow(x, f, tau, params, -FD_DT), spec, gains, params, f, tau)
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
    draws = [random_state_and_input(rng, default_spec(domain), params) for _ in range(75)]
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


def test_stacked_projection_is_the_single_projection():
    # Perturbed rotations and reflections (det -1, which take the flip
    # branch), and general matrices.
    rng = np.random.default_rng(5)
    k = 600
    R = np.array([project_to_rotation(m) for m in rng.normal(size=(k, 3, 3))])
    R[::3, :, 2] *= -1.0
    R += rng.normal(scale=1e-3, size=R.shape)
    R[1::7] = rng.normal(size=R[1::7].shape)
    assert np.count_nonzero(np.linalg.det(R) < 0.0) > k // 4
    got = project_to_rotation(R)
    for j in range(k):
        assert got[j].tobytes() == project_to_rotation(R[j]).tobytes(), j
    assert np.all(np.linalg.det(got) > 0.0)


def test_memory_does_not_grow_with_states():
    domain = BarrierDomain.ALTITUDE_POSITION
    check_chain(domain, n_states=1)   # first-call set-up outside the measurement

    def peak(n_states):
        tracemalloc.start()
        try:
            check_chain(domain, n_states=n_states)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block, eight_blocks = peak(FD_BLOCK), peak(8 * FD_BLOCK)
    assert eight_blocks <= 1.5 * one_block, (one_block, eight_blocks)


@pytest.mark.parametrize("n_states", [0, -5])
def test_no_states_is_an_error(n_states):
    # An oracle that checked no state must not report errors of 0.0.
    with pytest.raises(ValueError, match="n_states"):
        check_chain(BarrierDomain.ALTITUDE_POSITION, n_states=n_states)
    with pytest.raises(ValueError, match="n_states"):
        check_all_chains(n_states=n_states)
