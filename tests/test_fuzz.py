"""Config fuzz: a scenario that ``check`` accepts runs to the end or stops
with a typed exit code, never with a traceback.

Each drawn scenario (valid keys, edge values, schedules, filter switches,
starting states outside the safe sets or near the tilt singularity), with at
most one known defect, is written to a YAML file and run through
``quadsafe.cli.main`` for at most 50 steps. ``check`` must reject it (exit 1)
exactly when it carries a defect, and so must ``run``. An accepted scenario
must abort on a non-finite state (exit 2) or complete (exit 0) with a finite
trace inside the actuator bounds and only typed events.
"""

import contextlib
import csv
import io
import math
import os
import tempfile

import numpy as np
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quadsafe.qp as qp
from quadsafe.cli import main

MAX_STEPS = 50
EVENT_DETAILS = {
    "barrier-switch": {"altitude_position", "altitude_posvel",
                       "lateral_position", "lateral_velocity"},
    "infeasible": {"high", "low"},
    "attitude-singular": {"thrust", "rates"},
    "thrust-floor": {"rates"},
    "lateral-singular": {""},
}


def value(lo, hi, *edges):
    """A float in [lo, hi], often exactly an edge value."""
    return st.one_of(st.sampled_from((lo, hi, *edges)),
                     st.floats(lo, hi, allow_nan=False, allow_infinity=False))


def section(**keys):
    return st.fixed_dictionaries({}, optional=keys)


def vec3(lo, hi):
    return st.lists(value(lo, hi, 0.0 if lo <= 0.0 else lo), min_size=3, max_size=3)


def poles(delta):
    return st.lists(value(-30.0, -0.5), min_size=delta, max_size=delta)


ACTIVE_FROM = st.sampled_from([0.0, 0.01, 0.02, 0.03])
BARRIERS = st.one_of(
    section(c_z_m=value(-2.0, 2.0, 0.0), p_z_m=value(0.05, 4.0), poles=poles(2),
            active_from_s=ACTIVE_FROM).map(lambda d: {"domain": "altitude_position", **d}),
    section(c_z_m=value(-2.0, 2.0, 0.0), p_z_m=value(0.05, 4.0), v_z_mps=value(0.05, 3.0),
            alpha=value(0.1, 10.0), active_from_s=ACTIVE_FROM)
    .map(lambda d: {"domain": "altitude_posvel", **d}),
    section(c_x_m=value(-2.0, 2.0, 0.0), c_y_m=value(-2.0, 2.0, 0.0),
            p_x_m=value(0.05, 4.0), p_y_m=value(0.05, 4.0), poles=poles(4),
            active_from_s=ACTIVE_FROM).map(lambda d: {"domain": "lateral_position", **d}),
    section(v_x_mps=value(0.05, 4.0), v_y_mps=value(0.05, 4.0), poles=poles(3),
            active_from_s=ACTIVE_FROM).map(lambda d: {"domain": "lateral_velocity", **d}),
)
TILT = value(-1.6, 1.6, 0.0, 1.3694, -1.3694, 1.5707963, -1.5707963)  # R33 ~ 0.2, ~ 0

VALID = st.fixed_dictionaries({
    "run": st.builds(lambda dt, k: {"dt_s": dt, "duration_s": k * dt},
                     st.sampled_from([1e-3, 2e-3, 5e-3, 0.02]), value(1.0, MAX_STEPS)),
    "barriers": st.lists(BARRIERS, max_size=4,
                         unique_by=lambda b: (b["domain"], b.get("active_from_s", 0.0))),
}, optional={
    "initial": section(
        x_m=value(-4.0, 4.0), y_m=value(-4.0, 4.0), z_m=value(-4.0, 4.0),
        vx_mps=value(-5.0, 5.0), vy_mps=value(-5.0, 5.0), vz_mps=value(-5.0, 5.0),
        phi_rad=TILT, theta_rad=TILT, psi_rad=value(-4.0, 4.0),
        p_radps=value(-20.0, 20.0), q_radps=value(-20.0, 20.0), r_radps=value(-20.0, 20.0),
    ),
    "reference": section(
        a_x_m=value(0.0, 4.0), a_y_m=value(0.0, 4.0), a_z_m=value(0.0, 4.0),
        w_x_radps=value(0.0, 3.0), w_y_radps=value(0.0, 3.0), w_z_radps=value(0.0, 3.0),
        yaw_mode=st.sampled_from(["atan2", "constant"]), psi_const_rad=value(-4.0, 4.0),
    ),
    "filters": section(high=st.booleans(), low=st.booleans()),
    "gains": section(
        kp=vec3(0.0, 30.0), kd=vec3(0.0, 30.0),
        k_r=value(0.1, 30.0), k_psi=value(0.1, 10.0), k_omega=vec3(0.1, 60.0),
    ),
    "params": section(
        g_mps2=value(1.0, 20.0), m_kg=value(0.1, 2.0), ix_kgm2=value(0.01, 0.5),
        iy_kgm2=value(0.01, 0.5), iz_kgm2=value(0.01, 0.5),
        f_max_n=value(45.0, 80.0),
        tau_max_x_nm=value(0.0, 40.0), tau_max_y_nm=value(0.0, 40.0),
    ),
})

# One defect that check must reject; None leaves the scenario valid.
DEFECTS = {
    None: lambda d: None,
    "zero steps": lambda d: d["run"].update(duration_s=0.5 * d["run"]["dt_s"]),
    "negative gain": lambda d: d.setdefault("gains", {}).update(kd=[5.0, -1.0, 7.0]),
    "thrust below hover": lambda d: d.setdefault("params", {}).update(
        m_kg=1.0, g_mps2=9.81, f_max_n=9.0),
    "wrong pole count": lambda d: d["barriers"].append(
        {"domain": "lateral_velocity", "poles": [-3.0, -4.0]}),
    "positive pole": lambda d: d["barriers"].append(
        {"domain": "altitude_position", "poles": [-3.0, 0.5]}),
    "overlapping schedule": lambda d: d["barriers"].extend(
        [{"domain": "lateral_position", "active_from_s": 0.05}] * 2),
    "poles on a degree-1 barrier": lambda d: d["barriers"].append(
        {"domain": "altitude_posvel", "poles": [-1.0], "active_from_s": 0.05}),
    "removed key": lambda d: d.setdefault("filters", {}).update(
        infeasible_policy="least_infeasible"),
}
# (defect, scenario) pairs.
SCENARIOS = st.builds(
    lambda data, defect: (defect, DEFECTS[defect](data) or data),
    VALID, st.sampled_from([None, None, None, *DEFECTS]),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SCENARIOS)
def test_check_accepts_then_run_completes(case):
    defect, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.yaml")
        with open(path, "w") as f:
            yaml.safe_dump(data, f)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            checked = main(["check", path])
            code = main(["run", path, "--out", out])
        assert checked == (0 if defect is None else 1), (defect, err.getvalue())
        if checked == 1:  # rejected at load
            assert code == 1 and not os.path.exists(out), err.getvalue()
            return
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert "non-finite state" in err.getvalue()
            return

        params = data.get("params", {})
        f_max = params.get("f_max_n", 36.0)
        tau_x, tau_y = params.get("tau_max_x_nm", 20.0), params.get("tau_max_y_nm", 20.0)
        with open(os.path.join(out, "trace.csv")) as f:
            rows = list(csv.DictReader(f))
        assert 1 <= len(rows) <= MAX_STEPS
        for row in rows:
            for name, text in row.items():
                if name not in ("qp_hi_status", "qp_lo_status") and text != "":
                    assert math.isfinite(float(text)), (name, text)
            assert 0.0 <= float(row["F_star"]) <= f_max
            assert 0.0 <= float(row["f_hat"]) <= f_max
            assert abs(float(row["Mx_star"])) <= tau_x + 1e-12
            assert abs(float(row["My_star"])) <= tau_y + 1e-12
            assert abs(float(row["tauz"])) <= tau_y
        with open(os.path.join(out, "events.csv")) as f:
            for event in csv.DictReader(f):
                assert event["detail"] in EVENT_DETAILS[event["event_type"]], event


def test_fallback_keeps_the_vertex_when_the_relaxed_qp_is_refused(monkeypatch, tmp_path):
    """A case the fuzz search drew: a lateral_position barrier 2 m off
    centre with a 5 cm half-width gives, on its first step, the single row
    a = (0, 2.566e8), b = -9.216e8. My >= 3.592 satisfies it, but the
    projection rounds off the row's line by more than the absolute
    feasibility tolerance, so the 2-D QP and the relaxed re-solve both
    report infeasible. least_infeasible then applies its least-violation
    vertex: in the box, with t* = 0."""
    calls = []
    fallback = qp.least_infeasible

    def least_infeasible(*problem):
        u = fallback(*problem)
        calls.append((problem, u))
        return u

    monkeypatch.setattr(qp, "least_infeasible", least_infeasible)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({
        "run": {"dt_s": 1e-3, "duration_s": 1e-3},
        "barriers": [{"domain": "lateral_position", "c_x_m": -2.0, "p_x_m": 0.05}],
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    (((u_hat, rows, lower, upper), u),) = calls
    ((a, b),) = rows
    assert a[0] == 0.0 and a[1] > 1e8 and b < -1e8
    assert qp.solve_qp(u_hat, rows, lower, upper).status is qp.QpStatus.INFEASIBLE
    relaxed = [(a, b + 1e-12)]
    assert qp.solve_qp(u_hat, relaxed, lower, upper).status is qp.QpStatus.INFEASIBLE
    assert np.all(np.array(lower) <= u) and np.all(u <= np.array(upper))
    a_u = float(np.array(a) @ np.array(u))
    assert -(a_u + b) <= 0.0  # t* = 0
    # A vertex of the epigraph LP: on the row's line and on a box face.
    assert abs(a_u + b) <= 1e-12 * abs(b) and u[0] in (lower[0], upper[0])
    with open(tmp_path / "out" / "trace.csv") as f:
        (step,) = csv.DictReader(f)
    assert step["qp_lo_status"] == "infeasible"
    assert [float(step["Mx_star"]), float(step["My_star"])] == u
