"""Acceptance suite: one criterion per test, pinned tolerances.

Each test prints a single ``<ID> ...: PASS`` line on success so the run log
doubles as an acceptance report. Preset simulations are cached per session
and shared across criteria.
"""

import time

import numpy as np
import pytest

from quadsafe.barriers import ALTITUDE_DOMAINS, BarrierDomain
from quadsafe.cli import main
from quadsafe.config import load_preset
from quadsafe.oracle import check_all_chains
from quadsafe.qp import QpStatus, solve_qp
from quadsafe.sim import reference_rows, run

from conftest import preset_trace
from kkt import kkt_residual

EPS_NUM = 0.02          # discretization slack on barrier invariance


def h_series(trace, domain):
    hs = trace.h[domain]
    active = ~np.isnan(hs)
    return trace.t[active], hs[active]


def min_h_after_entry(trace, domain):
    ts, hs = h_series(trace, domain)
    inside = hs >= 0.0
    assert np.any(inside), f"{domain.value}: safe set never entered"
    entry = ts[inside][0]
    return float(entry), float(hs[ts >= entry].min())


def test_a1_chain_correctness():
    t0 = time.perf_counter()
    checks = check_all_chains(n_states=100)
    elapsed = time.perf_counter() - t0
    for chk in checks:
        assert chk.max_rel_lower <= 1e-4, chk
        assert chk.max_rel_top <= 1e-3, chk
    assert elapsed <= 30.0, f"chain check took {elapsed:.1f} s"
    worst = max(max(c.max_rel_lower, c.max_rel_top) for c in checks)
    print(f"\nA1 chain-correctness (4 chains x 100 states, "
          f"worst rel err {worst:.2e}, {elapsed:.1f} s): PASS")


def test_a2_altitude_invariance():
    trace, wall = preset_trace("fig4-altitude")
    scenario = load_preset("fig4-altitude")
    mins = {}
    for domain in ALTITUDE_DOMAINS:
        _, m = min_h_after_entry(trace, domain)
        assert m >= -EPS_NUM, f"{domain.value}: min h after entry {m:.4f}"
        mins[domain] = m
    limit = 2.0
    exceed = sum(
        1 for ref in reference_rows(trace.t, scenario.reference) if abs(ref.r_d[2]) > limit
    )
    frac = exceed / len(trace)
    assert frac >= 0.20, f"reference exceeds the limit only {frac:.1%} of steps"
    assert wall <= 10.0, f"simulation took {wall:.1f} s"
    worst = min(mins.values())
    print(f"\nA2 altitude-invariance (min h {worst:+.4f} >= -{EPS_NUM}, "
          f"reference beyond limit {frac:.0%} of steps, {wall:.1f} s): PASS")


def test_a3_lateral_invariance_and_tracking():
    trace, _ = preset_trace("fig5-lateral-pos")
    scenario = load_preset("fig5-lateral-pos")
    _, m = min_h_after_entry(trace, BarrierDomain.LATERAL_POSITION)
    assert m >= -EPS_NUM, f"lateral position min h {m:.4f}"
    # Tracking is judged after a 2 s spin-up (the quad starts at rest while
    # the reference velocity starts at its full sinusoid amplitude).
    margin = 2.0 - 0.5
    errs = [
        float(np.hypot(x - ref.r_d[0], y - ref.r_d[1]))
        for t, (x, y), ref in zip(trace.t.tolist(), trace.r[:, :2].tolist(),
                                  reference_rows(trace.t, scenario.reference))
        if t >= 2.0 and max(abs(ref.r_d[0]), abs(ref.r_d[1])) <= margin
    ]
    worst_err = max(errs)
    assert worst_err <= 0.15, f"tracking error {worst_err:.3f} m with slack reference"
    print(f"\nA3 lateral-invariance (min h {m:+.4f}, interior tracking error "
          f"{worst_err:.3f} m <= 0.15): PASS")


def test_a4_mid_flight_tightening():
    trace, _ = preset_trace("fig6-velocity-switch")
    scenario = load_preset("fig6-velocity-switch")
    t_switch = 20.0
    # Velocity tracking with the loose limits inactive; the first 2 s are
    # excluded as the spin-up transient from rest (the criterion concerns
    # steady tracking while unconstrained).
    errs = [
        max(abs(vx - ref.v_d[0]), abs(vy - ref.v_d[1]))
        for t, (vx, vy), ref in zip(trace.t.tolist(), trace.v[:, :2].tolist(),
                                    reference_rows(trace.t, scenario.reference))
        if 2.0 <= t < t_switch
    ]
    pre_err = max(errs)
    assert pre_err <= 0.1, f"pre-switch velocity tracking error {pre_err:.3f}"
    vx_cap, vy_cap = 1.25 * 1.05, 0.9 * 1.05
    after = trace.v[trace.t >= t_switch + 2.0]
    vx_max = float(np.abs(after[:, 0]).max())
    vy_max = float(np.abs(after[:, 1]).max())
    assert vx_max <= vx_cap, f"|vx| {vx_max:.4f} exceeds {vx_cap}"
    assert vy_max <= vy_cap, f"|vy| {vy_max:.4f} exceeds {vy_cap}"
    print(f"\nA4 mid-flight-tightening (tracking {pre_err:.3f} m/s <= 0.1; after "
          f"switch |vx| {vx_max:.3f} <= {vx_cap}, |vy| {vy_max:.3f} <= {vy_cap}): PASS")


def test_a5_entry_from_outside():
    trace, _ = preset_trace("fig7-unified")
    entries = {}
    for domain in BarrierDomain:
        entry, m = min_h_after_entry(trace, domain)
        assert entry <= 10.0, f"{domain.value}: entered only at t={entry:.2f} s"
        assert m >= -EPS_NUM, f"{domain.value}: re-dropped to {m:.4f}"
        entries[domain] = (entry, m)
    latest = max(e for e, _ in entries.values())
    worst = min(m for _, m in entries.values())
    print(f"\nA5 entry-from-outside (all 4 barriers entered by {latest:.2f} s, "
          f"worst post-entry h {worst:+.4f} >= -{EPS_NUM}): PASS")


def _random_qp(rng):
    """A 1-D or 2-D QP as solve_qp's float arguments (u_hat, rows, lower, upper)."""
    dim = int(rng.integers(1, 3))
    if dim == 1:
        lower, upper = np.array([0.0]), np.array([36.0])
        u_hat = np.array([rng.uniform(-10.0, 46.0)])
    else:
        lower, upper = np.array([-20.0, -20.0]), np.array([20.0, 20.0])
        u_hat = rng.uniform(-30.0, 30.0, size=2)
    rows = tuple(
        (rng.normal(size=dim), float(rng.normal(scale=5.0)))
        for _ in range(rng.integers(0, 4))
    )
    return u_hat.tolist(), [(a.tolist(), b) for a, b in rows], lower.tolist(), upper.tolist()


def _grid_argmin(u_hat, rows, lower, upper, n=2001):
    """Sampling oracle for the projection QP.

    The minimizer is either the (clipped) nominal itself or a point on the
    boundary of the feasible region, so candidates are the nominal plus dense
    1-D sample grids along every constraint line and box face, with one
    refinement pass around the best coarse sample.  Sampling *on* the lines
    avoids the lattice artifact where the nearest feasible point of a 2-D grid
    slides several cells along a boundary that is shallow relative to the axes.
    """
    u_hat, lower, upper = np.array(u_hat), np.array(lower), np.array(upper)
    rows = [(np.array(a), b) for a, b in rows]

    def feasible(pts):
        ok = np.all((pts >= lower - 1e-9) & (pts <= upper + 1e-9), axis=1)
        for a, b in rows:
            ok &= pts @ a + b >= -1e-9
        return ok

    best, best_obj = None, np.inf

    def consider(pts):
        nonlocal best, best_obj
        keep = feasible(pts)
        if not np.any(keep):
            return None, None
        sub = pts[keep]
        obj = np.sum((sub - u_hat) ** 2, axis=1)
        k = int(np.argmin(obj))
        if obj[k] < best_obj:
            best_obj, best = obj[k], sub[k]
        return sub[k], keep

    if len(u_hat) == 1:
        cand = [np.clip(u_hat, lower, upper)[None, :],
                lower[None, :], upper[None, :]]
        for a, b in rows:
            if abs(a[0]) > 1e-12:
                cand.append(np.array([[-b / a[0]]]))
        consider(np.vstack(cand))
        return best

    # dim == 2: parameterize each boundary as base + t*d and sample it twice
    # (coarse pass over its full extent, fine pass around the best point).
    lines = []
    for a, b in rows:
        nrm = np.linalg.norm(a)
        if nrm > 1e-12:
            lines.append((-b * a / nrm**2, np.array([-a[1], a[0]]) / nrm))
    for j in (0, 1):
        d = np.zeros(2)
        d[1 - j] = 1.0
        for val in (lower[j], upper[j]):
            base = np.zeros(2)
            base[j] = val
            lines.append((base, d))
    half = 1.5 * float(upper[0] - lower[0])
    for base, d in lines:
        ts = np.linspace(-half, half, n)
        for _ in range(2):
            pt, _ = consider(base + ts[:, None] * d)
            if pt is None:
                break
            t_best = float(d @ (pt - base))
            step = ts[1] - ts[0]
            ts = np.linspace(t_best - step, t_best + step, n)
    consider(np.clip(u_hat, lower, upper)[None, :])
    return best


def test_a6_qp_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_checked = n_grid = n_pass = 0
    for _ in range(1000):
        p = _random_qp(rng)
        sol = solve_qp(*p)
        if sol.status is not QpStatus.OPTIMAL:
            continue
        n_checked += 1
        res = kkt_residual(*p, sol)
        assert res <= 1e-8, f"KKT residual {res:.2e}"
        u_grid = _grid_argmin(*p)
        if u_grid is not None:
            u_star, u_hat = np.array(sol.u_star), np.array(p[0])
            obj_qp = np.sum((u_star - u_hat) ** 2)
            obj_grid = np.sum((u_grid - u_hat) ** 2)
            # The solver can never lose to the sampling oracle, and the two
            # must agree per coordinate (oracle quantization is ~1e-4).
            assert obj_qp <= obj_grid + 1e-9
            assert np.all(np.abs(u_star - u_grid) <= 2e-3), (
                f"oracle disagreement {u_star} vs {u_grid}")
            n_grid += 1
    # Feasible-nominal pass-through must be bitwise exact.
    for _ in range(200):
        u_hat, rows, lower, upper = _random_qp(rng)
        u_hat = np.clip(u_hat, lower, upper).tolist()
        margin_rows = [(a, float(-np.array(a) @ u_hat + abs(b) + 1.0)) for a, b in rows]
        sol = solve_qp(u_hat, margin_rows, lower, upper)
        assert sol.status is QpStatus.OPTIMAL
        assert np.array_equal(sol.u_star, u_hat), "pass-through not exact"
        n_pass += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"QP exactness suite took {elapsed:.1f} s"
    print(f"\nA6 qp-exactness ({n_checked} KKT checks <= 1e-8, {n_grid} grid "
          f"agreements, {n_pass} exact pass-throughs, {elapsed:.1f} s): PASS")


def test_a7_actuator_bounds():
    names = ["fig4-altitude", "fig5-lateral-pos", "fig6-velocity-switch",
             "fig7-unified", "stress-infeasible"]
    total = 0
    for name in names:
        trace, _ = preset_trace(name)
        f, m = trace.f_star, trace.m_star
        assert np.all((0.0 <= f) & (f <= 36.0)), f"{name}: F* in [{f.min()}, {f.max()}]"
        assert np.all(np.abs(m) <= 20.0 + 1e-12), f"{name}: max |M*| {np.abs(m).max()}"
        total += len(trace)
    print(f"\nA7 actuator-bounds ({total} steps across {len(names)} runs, "
          f"F* in [0, 36] N and |M*| <= 20 N m throughout; bounds live inside "
          f"the QPs so no post-QP clamping exists): PASS")


def test_a8_discretization_consistency():
    import dataclasses

    coarse, _ = preset_trace("fig4-altitude")
    fine = run(dataclasses.replace(load_preset("fig4-altitude"), dt=2.5e-4))

    def undershoot(trace):
        worst = 0.0
        for domain in ALTITUDE_DOMAINS:
            _, m = min_h_after_entry(trace, domain)
            worst = max(worst, -m)
        return worst

    u_coarse, u_fine = undershoot(coarse), undershoot(fine)
    if u_coarse < 1e-9:
        # No measurable undershoot at the coarse step: nothing left to shrink.
        print(f"\nA8 discretization-consistency (no undershoot at dt=1e-3: "
              f"{u_coarse:.2e}; dt=2.5e-4 gives {u_fine:.2e}): PASS")
        return
    assert u_fine <= u_coarse / 3.0, (
        f"undershoot {u_coarse:.2e} -> {u_fine:.2e}, shrink factor "
        f"{u_coarse / max(u_fine, 1e-300):.2f} < 3"
    )
    print(f"\nA8 discretization-consistency (undershoot {u_coarse:.2e} -> "
          f"{u_fine:.2e}, factor {u_coarse / max(u_fine, 1e-12):.1f} >= 3): PASS")


def test_a9_infeasibility_observability(tmp_path):
    out = str(tmp_path / "stress")
    code = main(["run", "presets:stress-infeasible", "--out", out])
    assert code == 0, f"exit code {code}"
    events = open(f"{out}/events.csv").read().splitlines()
    n_inf = sum(1 for line in events[1:] if line.split(",")[1] == "infeasible")
    assert n_inf >= 1, "no infeasible events logged"
    import csv

    with open(f"{out}/trace.csv") as f:
        reader = csv.reader(f)
        header = next(reader)
        n_rows = 0
        for row in reader:
            n_rows += 1
            for name, val in zip(header, row):
                if not name.startswith("qp_") and val != "":
                    assert np.isfinite(float(val)), f"non-finite {name} at row {n_rows}"
    assert n_rows == 5000
    print(f"\nA9 infeasibility-observability ({n_inf} infeasible events, exit "
          f"code 0, {n_rows} finite trace rows): PASS")
