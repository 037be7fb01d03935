"""The numpy kernel identities that the batched lateral level and the 2-D QP
rely on.

lateral_rows and the 2-D solver batch many small products into one numpy
call, each family in the layout the code uses, and must round every product
as the separate numpy call did. Each test here checks one such identity on
random data (zeros, -0.0, subnormals and scales 1e-150..1e150 included), so
that a numpy or BLAS build that breaks one fails here, by name, and not
only as a bitwise mismatch of a whole row or QP.
"""

import math

import numpy as np

from quadsafe.qp import _clip

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


def test_float_clip_is_np_clip():
    # filter_torque clips the nominal moments in floats.
    values = [0.0, -0.0, 1.0, -1.0, 20.0, -20.0, 25.0, -25.0, 1e-310, -1e-310,
              math.inf, -math.inf, math.nan]
    for bound in (20.0, 0.0, 1e-300, math.inf):
        for v in values:
            want = np.clip(np.array([v]), np.array([-bound]), np.array([bound]))[0]
            got = _clip(v, -bound, bound)
            assert np.array([got]).tobytes() == np.array([want]).tobytes() or (
                math.isnan(got) and math.isnan(want)), (v, bound, got, want)
