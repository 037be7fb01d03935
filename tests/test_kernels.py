"""The numpy kernel identities that the batched lateral level, the 2-D QP
and the batched finite-difference oracle rely on.

lateral_rows and the 2-D solver batch many small products into one numpy
call, each family in the layout the code uses, and must round every product
as the separate numpy call did; lateral_rows does so across the specs of one
state and across the states of a block, each state's operands in the single
state's layout. The oracle builds a block of states with stacked rotations
and runs many RK4 steps as float64 columns, and must give each state the
bits of its own rotation and float integration; the SO(3)
projection calls numpy's SVD kernel without its Python wrapper. Each test
here checks one such identity on random data (zeros, -0.0, subnormals and
scales 1e-150..1e150 included), so that a numpy or BLAS build that breaks
one fails here, by name, and not only as a bitwise mismatch of a whole row
or QP. sim.run computes the reference, roll, pitch and barrier values of
EXPORT_ROWS steps at once; those column calls are checked against the
per-step calls on every step of every preset.
"""

import dataclasses
import io
import itertools
import math
import os

import numpy as np
import pytest
from numpy.linalg._umath_linalg import svd_f

from quadsafe.barriers import BarrierDomain, BarrierSpec, barrier_h_column
from quadsafe.cli import main
from quadsafe.config import PRESETS, load_preset, load_scenario
from quadsafe.controller import ControllerGains, body_rate_loop
from quadsafe.dynamics import (
    NonFiniteState,
    QuadParams,
    QuadState,
    R_of_euler,
    deriv,
    rk4_flat,
    roll_pitch_of_R,
    yaw_of_R,
)
from quadsafe.sim import EXPORT_ROWS, Scenario, reference_rows, run

from conftest import preset_trace

N = 4000


def sample(rng, *shape):
    """Floats over many binades, with exact zeros, -0.0 and subnormals."""
    v = rng.normal(size=shape) * 10.0 ** rng.uniform(-4.0, 4.0, size=shape)
    flat = v.reshape(-1)
    k = flat.size
    special = rng.random(k)
    flat[special < 0.02] = 0.0
    flat[(special >= 0.02) & (special < 0.04)] = -0.0
    flat[(special >= 0.04) & (special < 0.05)] *= 1e-310
    flat[(special >= 0.05) & (special < 0.06)] *= 1e146
    return v


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    bad = np.flatnonzero(got.reshape(-1).view(np.int64) != want.reshape(-1).view(np.int64))
    assert bad.size == 0, f"{bad.size} of {got.size} differ, first at {bad[:5]}"


def test_interleaved_vecdot_is_the_1d_dot():
    # lateral_rows: dot i reads u from pairs[i, 0] and w from pairs[i, 1].
    rng = np.random.default_rng(1)
    pairs = sample(rng, N, 2, 2)
    same(np.vecdot(pairs[:, 0], pairs[:, 1]), [u @ w for u, w in pairs])


def test_broadcast_vecdot_is_the_1d_dot():
    # The 2-D QP: every a . u of the stacked rows at once.
    rng = np.random.default_rng(2)
    a_stack = sample(rng, 6, 2)
    for u in sample(rng, N // 6, 2):
        same(np.vecdot(a_stack, u), [a @ u for a in a_stack])


def test_batched_2x2_products_are_the_single_products():
    # (-V) Wdot and (R33 V) diag, from slices of one stacked array; then
    # Vdot = M0 V written into a slot of that array.
    rng = np.random.default_rng(3)
    for mats in sample(rng, N // 4, 7, 2, 2):
        prods = mats[0:2] @ mats[2:4]
        same(prods, [mats[0] @ mats[2], mats[1] @ mats[3]])
        want = prods[0] @ mats[4]
        np.matmul(prods[0], mats[4], out=mats[5])
        same(mats[5], want)


def test_batched_matrix_vector_products_are_the_single_products():
    # [V, Vdot] times [A, gyro], the vectors as (2, 2, 1) columns, against
    # the 2x2 @ 1-D products (BLAS gemv).
    rng = np.random.default_rng(4)
    for mats in sample(rng, N // 4, 3, 2, 2):
        got = (mats[0:2, None] @ mats[2].reshape(2, 2, 1)).reshape(4, 2)
        same(got, [mats[0] @ mats[2, 0], mats[0] @ mats[2, 1],
                   mats[1] @ mats[2, 0], mats[1] @ mats[2, 1]])


def test_batched_vector_matrix_products_are_the_single_products():
    # eta3 of each row, read as (k, 1, 2) from every second pair, times L.
    rng = np.random.default_rng(5)
    for pairs, L in zip(sample(rng, N // 2, 2, 2, 2), sample(rng, N // 2, 2, 2)):
        got = pairs[:, :1] @ L
        same(got[:, 0], [pairs[0, 0] @ L, pairs[1, 0] @ L])


def test_one_power_call_is_the_separate_powers():
    # numpy's pow, which rounds differently from libm's: one call with an
    # exponent per entry against xy ** 3 and xy ** 4 on 2-arrays, and one
    # array call against the scalar np.power of each entry.
    rng = np.random.default_rng(6)
    exponents = np.array([3.0, 3.0, 4.0, 4.0, 3.0, 3.0])
    with np.errstate(over="ignore"):
        for xd, xdd in zip(sample(rng, N, 2), sample(rng, N, 2)):
            got = np.power([*xd.tolist(), *xd.tolist(), *xdd.tolist()], exponents)
            same(got, np.concatenate([xd**3, xd**4, xdd**3]))
        for s in sample(rng, N, 2):
            same(np.power(s.tolist(), 4.0), [np.power(v, 4.0) for v in s.tolist()])


def test_float_arithmetic_rules():
    # An array's ** 2 is x * x; numpy's sin and cos of a float are math's
    # (see also test_sim's check on every preset grid).
    rng = np.random.default_rng(7)
    v = sample(rng, N)
    same(v**2, [x * x for x in v.tolist()])
    wt = rng.uniform(-25.0, 25.0, size=N).tolist()
    same([math.sin(x) for x in wt], [float(np.sin(x)) for x in wt])
    same([math.cos(x) for x in wt], [float(np.cos(x)) for x in wt])


def test_float_objective_is_the_numpy_sum():
    # _solve_2d ranks candidates by 0.5 * |u - u_hat|^2 in floats.
    rng = np.random.default_rng(8)
    for scale in (1e-8, 1.0, 1e3):
        u, u_hat = sample(rng, 2, N, 2) * scale
        want = [0.5 * float(np.sum((a - b) ** 2)) for a, b in zip(u, u_hat)]
        got = []
        for (u0, u1), (x0, x1) in zip(u.tolist(), u_hat.tolist()):
            d0, d1 = u0 - x0, u1 - x1
            got.append(0.5 * (d0 * d0 + d1 * d1))
        same(got, want)


def test_body_rate_loop_is_a_fixed_point_of_np_clip():
    # sim.run hands body_rate_loop's (tau_x, tau_y) to the moment QP and to
    # the trace as they are: for every (finite) bound tau_max > 0 they must
    # already be np.clip(., -tau_max, tau_max), bit for bit, NaN included.
    values = [0.0, -0.0, 1.0, -1.0, 0.3, -7.0, 1e-310, -1e-310, 1e300, -1e300,
              math.inf, -math.inf, math.nan]
    gains = ControllerGains()
    for bound in (20.0, 0.5, 1e-300, 5e-324):
        params = QuadParams(tau_max=(bound, 2.0 * bound))
        lo, hi = np.array([-bound, -2.0 * bound]), np.array([bound, 2.0 * bound])
        for cmd, rate, other in itertools.product(values, repeat=3):
            x = [0.0] * 15 + [rate, other, -rate]
            got = np.array(body_rate_loop(x, [cmd, -cmd, other], gains, params)[:2])
            same(got, np.clip(got, lo, hi))
    # With a bound of 0 a negative moment stays -0.0, where np.clip gives 0.0.
    got = body_rate_loop([0.0] * 18, [-1.0, -1.0, 0.0], gains, QuadParams(tau_max=(0.0, 0.0)))
    assert [math.copysign(1.0, v) for v in got[:2]] == [-1.0, -1.0]


def test_rk4_on_float64_columns_is_rk4_on_floats():
    # The oracle's flows: 18 state columns, column inputs and a signed step
    # per column, NaN and infinities included.
    rng = np.random.default_rng(9)
    params = QuadParams()
    k = 600
    x = sample(rng, 18, k)
    x[rng.integers(0, 18, 30), rng.integers(0, k, 30)] = [math.nan, math.inf, -math.inf] * 10
    f, dt = sample(rng, k), rng.choice([1e-4, -1e-4, 2.5e-5, -2.5e-5, 0.3, -0.3], k)
    tau = sample(rng, 3, k)
    with np.errstate(all="ignore"):
        same(deriv(list(x), f, list(tau), params),
             np.transpose([deriv(*args, params) for args in
                           zip(x.T.tolist(), f.tolist(), tau.T.tolist())]))
        same(rk4_flat(list(x), f, list(tau), params, dt),
             np.transpose([rk4_flat(*args, params, h) for *args, h in
                           zip(x.T.tolist(), f.tolist(), tau.T.tolist(), dt.tolist())]))


def test_svd_kernel_is_np_linalg_svd():
    # project_flat calls svd_f, the gufunc np.linalg.svd runs for
    # float64 with full matrices, without the wrapper; on one matrix and on a
    # stack it must return the wrapper's bits. A numpy that moves or changes
    # the private kernel fails here (or at import of quadsafe.dynamics).
    rng = np.random.default_rng(12)
    stack = sample(rng, 600, 3, 3)
    with np.errstate(all="ignore"):
        for got, want in zip(svd_f(stack, signature="d->ddd"), np.linalg.svd(stack)):
            same(got, want)
        for m in stack:
            for got, want in zip(svd_f(m, signature="d->ddd"), np.linalg.svd(m)):
                same(got, want)


def stacked(single, axis):
    """k single-state arrays stacked with the state axis at the given axis,
    each state's operands in the single state's contiguous layout."""
    return np.moveaxis(np.array(single), 0, axis)


def test_state_stacked_2x2_products_are_the_single_products():
    # lateral_rows over k states: mats is (7, k, 2, 2); (-V) Wdot and
    # (R33 V) diag, Vdot written into slot 5, then [V, Vdot] times the
    # columns A and gyro of slot 6, against each state's own (7, 2, 2).
    rng = np.random.default_rng(13)
    single = sample(rng, 300, 7, 2, 2)
    mats = stacked(single, 1)
    prods = mats[0:2] @ mats[2:4]
    np.matmul(prods[0], mats[4], out=mats[5])
    mv = mats[4:6, None] @ mats[6].swapaxes(0, -2)[..., None]
    for j, m in enumerate(single):
        want = m[0:2] @ m[2:4]
        same(prods[:, j], want)
        np.matmul(want[0], m[4], out=m[5])
        same(mats[5, j], m[5])
        same(mv[:, :, j], m[4:6, None] @ m[6].reshape(2, 2, 1))
        same(m[4:6, None] @ m[6].swapaxes(0, -2)[..., None], m[4:6, None] @ m[6].reshape(2, 2, 1))


def test_state_stacked_dots_and_row_products_are_the_single_ones():
    # lateral_rows over k states: vecs is (m, 2, k, 2), the 2-vector dots of
    # its first n pairs and the (1, 2) row eta3 of the rest times each
    # state's L, against each state's own (m, 2, 2).
    rng = np.random.default_rng(14)
    n = 11
    single = sample(rng, 300, n + 2, 2, 2)
    L = sample(rng, 300, 2, 2)
    vecs = stacked(single, 2)
    dots = np.vecdot(vecs[:n, 0], vecs[:n, 1])
    rows = vecs[n:, 0, ..., None, :] @ L
    for j, (v, l) in enumerate(zip(single, L)):
        same(dots[:, j], np.vecdot(v[:n, 0], v[:n, 1]))
        same(rows[:, j], v[n:, :1] @ l)
        same(v[n:, 0, ..., None, :] @ l, v[n:, :1] @ l)


def test_state_stacked_power_is_one_states_power():
    # The cubes and fourth powers of the derivatives: a (k, 6) block against
    # each state's (6,), the exponents broadcast.
    rng = np.random.default_rng(15)
    exponents = np.array([3.0, 3.0, 4.0, 4.0, 3.0, 3.0])
    block = sample(rng, 2000, 6)
    with np.errstate(over="ignore"):
        got = np.power(block, exponents)
        for row, want in zip(got, block):
            same(row, np.power(want, exponents))


def test_libm_pow_forms_are_numpy_scalar_pow():
    # The powers 2, 3 and 4 of the offsets from a center: math.pow of a
    # float, and np.float_power of an array, are the numpy scalar ** the
    # reference takes (all three call libm's pow); math.pow raises where it
    # overflows, and the others give inf.
    rng = np.random.default_rng(16)
    values = sample(rng, 4000).tolist() + [1e77, -1e77, 1e200, -3e154, math.inf, -math.inf]
    with np.errstate(over="ignore"):
        for e in (2.0, 3.0, 4.0):
            want = [np.float64(v) ** int(e) for v in values]
            same(np.float_power(values, e), want)
            same(np.float_power.outer(values[:50], [2.0, 3.0, 4.0])[:, int(e) - 2], want[:50])
            for v, w in zip(values, want):
                if math.isfinite(v) and not math.isfinite(w):
                    with pytest.raises(OverflowError):
                        math.pow(v, e)
                else:
                    same(math.pow(v, e), w)


def test_row_vecdot_is_the_1d_dot():
    # K @ H and a @ tau[:2] of each state, as one np.vecdot over rows.
    rng = np.random.default_rng(17)
    for d in (1, 2, 3, 4):
        H, K = sample(rng, 1000, d), sample(rng, d)
        same(np.vecdot(H, K), [K @ h for h in H])
    a, tau = sample(rng, 1000, 2), sample(rng, 1000, 3)
    same(np.vecdot(a, tau[:, :2]), [u @ t[:2] for u, t in zip(a, tau)])


def test_stacked_rotations_are_the_single_rotation():
    # R_of_euler on arrays of angles: stacked Rz @ Ry @ Rx against each
    # triple's, over the oracle's angles and beyond.
    rng = np.random.default_rng(19)
    angles = np.concatenate([rng.uniform(-0.25, 0.25, size=(600, 3)), sample(rng, 600, 3)])
    got = R_of_euler(*angles.T)
    assert got.shape == (1200, 3, 3)
    same(got, [R_of_euler(*a) for a in angles.tolist()])
    same(R_of_euler(*angles[:40].T.reshape(3, 8, 5)).reshape(40, 3, 3), got[:40])


def preset_blocks(name):
    """The flat states of every step of the preset's full run, in blocks of
    EXPORT_ROWS rows."""
    x = preset_trace(name)[0].x
    return [x[a:a + EXPORT_ROWS] for a in range(0, len(x), EXPORT_ROWS)]


def reference_floats(t, cfg):
    # The per-step reference: math's sin and cos, numpy's scalar arctan2.
    r_d, v_d, a_d = [], [], []
    for a, w in zip(cfg.amplitude, cfg.frequency):
        sin, cos = math.sin(w * t), math.cos(w * t)
        r_d.append(a * sin)
        v_d.append(a * w * cos)
        a_d.append(-a * (w * w) * sin)
    if cfg.yaw_mode == "constant":
        psi_d = cfg.yaw_constant
    elif r_d[0] == 0.0 and r_d[1] == 0.0:
        psi_d = 0.0
    else:
        psi_d = float(np.arctan2(r_d[1], r_d[0]))
    return [*r_d, *v_d, *a_d, psi_d]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_reference_columns_are_the_per_step_calls(name):
    # np.sin, np.cos and np.arctan2 on (EXPORT_ROWS,) columns of every step
    # t = k dt against math.sin, math.cos and the scalar np.arctan2.
    scenario = load_preset(name)
    cfg, dt = scenario.reference, scenario.dt
    n = int(round(scenario.duration / dt))
    for first in range(0, n, EXPORT_ROWS):
        t = np.arange(first, min(first + EXPORT_ROWS, n)) * dt
        same(t, [k * dt for k in range(first, first + len(t))])
        for w in cfg.frequency:
            wt = w * t
            same(np.sin(wt), [math.sin(v) for v in wt.tolist()])
            same(np.cos(wt), [math.cos(v) for v in wt.tolist()])
        refs = reference_rows(t, cfg)
        same([[*r.r_d, *r.v_d, *r.a_d, r.psi_d] for r in refs],
             [reference_floats(v, cfg) for v in t.tolist()])
        r_d = np.array([r.r_d for r in refs])
        same(np.arctan2(r_d[:, 1], r_d[:, 0]),
             [float(np.arctan2(y, x)) for x, y, _ in r_d.tolist()])
    constant = dataclasses.replace(cfg, yaw_mode="constant", yaw_constant=0.7)
    assert [r.psi_d for r in reference_rows(np.arange(3) * dt, constant)] == [0.7] * 3


def gimbal_states():
    """Flat states with |R31| within 1e-9 of 1, where roll_pitch_of_R and
    yaw_of_R take their gimbal branch, and just outside it."""
    rows = []
    for theta in (math.pi / 2, -math.pi / 2, math.pi / 2 - 1e-6, -math.pi / 2 + 2e-5,
                  math.pi / 2 - 1e-4, -math.pi / 2 + 1e-4):
        for phi, psi in ((0.3, -1.2), (-2.0, 0.4), (0.0, math.pi)):
            R = R_of_euler(phi, theta, psi)
            rows.append([0.0] * 3 + R.ravel().tolist() + [0.0] * 6)
    return np.array(rows)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_euler_columns_are_single_state_calls(name):
    # np.arcsin and np.arctan2 on the roll/pitch columns of EXPORT_ROWS
    # states against roll_pitch_of_R on each state alone, and yaw_of_R's
    # scalar np.arctan2 against np.arctan2 on the yaw columns.
    for x in [*preset_blocks(name), gimbal_states()]:
        phi, theta = roll_pitch_of_R(x[:, 3:12])
        want = [roll_pitch_of_R(x[i:i + 1, 3:12]) for i in range(len(x))]
        same(np.column_stack([phi, theta]), [(p[0], t[0]) for p, t in want])
        yaw = np.where(np.abs(x[:, 9]) > 1.0 - 1e-9, np.arctan2(-x[:, 4], x[:, 7]),
                       np.arctan2(x[:, 6], x[:, 3]))
        same([yaw_of_R(row) for row in x.tolist()], yaw)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_barrier_h_columns_are_barrier_h(name):
    # np.power on the scaled offsets of EXPORT_ROWS states against a
    # one-row call on each state, for every barrier of the preset.
    specs = load_preset(name).barriers
    assert specs
    for x in preset_blocks(name):
        rows = x.tolist()
        for spec in specs:
            same(barrier_h_column(x, spec),
                 [barrier_h_column(np.array([row]), spec).item() for row in rows])


def posvel_scenario(z, zd):
    """Two steps from altitude z and climb rate zd, one altitude_posvel
    barrier of unit half-widths recorded, no filter."""
    spec = BarrierSpec(BarrierDomain.ALTITUDE_POSVEL, [0.0, 0.0], [1.0, 1.0])
    state = QuadState(r=np.array([0.0, 0.0, z]), v=np.array([0.0, 0.0, zd]))
    return Scenario(duration=0.002, barriers=(spec,), initial_state=state,
                    filter_high=False, filter_low=False)


@pytest.mark.parametrize("scale", [1.0 - 1e-15, 1.0, 1.0 + 1e-15, 10.0])
def test_offsets_about_the_guard_keep_h_finite(scale):
    # Two offsets z about 1e75: h = 1 - 2 z^4 is finite while 2 z^4 is (up
    # to about 9.7e76), and the trace records barrier_h_column's value.
    z = 1e75 * scale
    scenario = posvel_scenario(z, z)
    trace = run(scenario)
    h = trace.h[BarrierDomain.ALTITUDE_POSVEL]
    assert np.isfinite(h).all()
    same(h[0], barrier_h_column(np.array([trace.x[0].tolist()]), scenario.barriers[0]).item())
    assert h[0] < -1e299


# An offset of 2e77 makes the fourth power, and h, overflow from step 0.
HUGE_Z = ("run: {duration_s: 0.01, dt_s: 0.001}\n"
          "initial: {z_m: 2.0e+77}\n"
          "barriers:\n  - {domain: altitude_position, c_z_m: 0.0, p_z_m: 1.0}\n")


@pytest.mark.parametrize("filters, message", [
    ("", "altitude_position barrier overflows at z = 2e+77, zdot = 0"),
    ("filters: {high: false}\n", "altitude_position barrier value is -inf"),
], ids=["filtered", "unfiltered"])
def test_overflowing_h_exits_2_with_the_barrier_message(tmp_path, capsys, filters, message):
    # Filtered, the row builder stops the run at step 0; unfiltered, the
    # h column of the first block does, before any output is made. Either
    # way the exit is 2, with the barrier's own message.
    path = tmp_path / "huge.yaml"
    path.write_text(HUGE_Z + filters)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: simulation aborted on non-finite state: {message}\n")
    assert not (tmp_path / "out").exists()
    with pytest.raises(ChildProcessError):  # no trace.csv writer was forked
        os.waitpid(-1, os.WNOHANG)


def test_overflowing_h_reaches_no_consumer():
    # The block whose h column is not finite raises before it is handed on.
    blocks = []
    with pytest.raises(NonFiniteState, match="altitude_position barrier value is -inf"):
        run(load_scenario(io.StringIO(HUGE_Z + "filters: {high: false}\n")),
            lambda trace, rows: blocks.append(rows))
    assert blocks == []
