"""Closed-loop scenario simulation: reference, scheduling, and trace output."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from quadsafe import qp
from quadsafe.barriers import BarrierDomain, BarrierSpec, InvalidPoles
from quadsafe.config import PRESETS, load_preset
from quadsafe.controller import ControllerGains, Reference
from quadsafe.dynamics import NonFiniteState, QuadState
from quadsafe.sim import (
    ReferenceConfig,
    Scenario,
    active_barriers,
    reference_at,
    run,
)


def old_reference_at(t, cfg):
    # Verbatim copy of the array form reference_at replaced: the same floats,
    # returned as numpy arrays.
    r_d, v_d, a_d = [], [], []
    for a, w in zip(cfg.amplitude.tolist(), cfg.frequency.tolist()):
        wt = w * t
        # math's sin/cos equal numpy's on every preset's w * t (checked in
        # tests/test_sim.py); math.atan2 differs from np.arctan2, which stays.
        sin, cos = math.sin(wt), math.cos(wt)
        r_d.append(a * sin)
        v_d.append(a * w * cos)
        a_d.append(-a * (w * w) * sin)
    if cfg.yaw_mode == "atan2":
        psi_d = 0.0 if (r_d[0] == 0.0 and r_d[1] == 0.0) else float(
            np.arctan2(r_d[1], r_d[0])
        )
    else:
        psi_d = cfg.yaw_constant
    return Reference(np.array(r_d), np.array(v_d), np.array(a_d), psi_d)


def alt_barrier(active_from=0.0, half_width=2.0):
    return BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [half_width],
                       poles=(-3.0, -4.0), active_from=active_from)


class TestReference:
    def test_math_sin_cos_are_numpy_on_every_preset_grid(self):
        # reference_at evaluates math.sin/math.cos in place of numpy's scalar
        # np.sin/np.cos; they must agree bit for bit at every w * t a preset
        # reaches at dt = 1 ms (t = k * dt, as sim.run forms it).
        pack = struct.Struct("<d").pack
        n = 0
        for name in PRESETS:
            scenario = load_preset(name)
            dt = 1e-3
            for w in scenario.reference.frequency.tolist():
                wt = [w * (k * dt) for k in range(int(round(scenario.duration / dt)))]
                assert [pack(math.sin(v)) for v in wt] == [pack(float(np.sin(v))) for v in wt]
                assert [pack(math.cos(v)) for v in wt] == [pack(float(np.cos(v))) for v in wt]
                n += len(wt)
        assert n >= 400_000

    def test_closed_form_derivatives(self):
        cfg = ReferenceConfig()
        eps = 1e-6
        for t in (0.3, 1.7, 12.4):
            ref = reference_at(t, cfg)
            rp = reference_at(t + eps, cfg)
            rm = reference_at(t - eps, cfg)
            assert np.allclose((np.asarray(rp.r_d) - np.asarray(rm.r_d)) / (2 * eps),
                               ref.v_d, atol=1e-6)
            assert np.allclose((np.asarray(rp.v_d) - np.asarray(rm.v_d)) / (2 * eps),
                               ref.a_d, atol=1e-5)

    def test_floats_are_the_array_form_on_every_preset_grid(self):
        # reference_at returns float tuples; on every step a preset takes,
        # in both yaw modes, they hold the array form's bits.
        grids = {}
        for name in PRESETS:
            scenario = load_preset(name)
            cfg = scenario.reference
            key = (tuple(cfg.amplitude.tolist()), tuple(cfg.frequency.tolist()), scenario.dt)
            n = int(round(scenario.duration / scenario.dt))
            if n > grids.get(key, (None, 0, 0.0))[1]:
                grids[key] = (cfg, n, scenario.dt)
        n_steps = 0
        for cfg, n, dt in grids.values():
            for mode in (cfg, dataclasses.replace(cfg, yaw_mode="constant", yaw_constant=0.7)):
                for k in range(n):
                    t = k * dt
                    new, old = reference_at(t, mode), old_reference_at(t, mode)
                    got = [*new.r_d, *new.v_d, *new.a_d, new.psi_d]
                    want = [*old.r_d.tolist(), *old.v_d.tolist(), *old.a_d.tolist(), old.psi_d]
                    assert all(type(v) is float for v in got), (t, got)
                    assert struct.pack("<10d", *got) == struct.pack("<10d", *want), (t, mode)
            n_steps += n
        assert n_steps >= 45_000

    def test_yaw_tracks_position_direction(self):
        cfg = ReferenceConfig()
        ref = reference_at(1.0, cfg)
        assert ref.psi_d == pytest.approx(np.arctan2(ref.r_d[1], ref.r_d[0]))

    def test_yaw_at_origin_is_zero(self):
        assert reference_at(0.0, ReferenceConfig()).psi_d == 0.0

    def test_constant_yaw_mode(self):
        cfg = ReferenceConfig(yaw_mode="constant", yaw_constant=0.7)
        assert reference_at(5.0, cfg).psi_d == 0.7

    def test_rejects_unknown_yaw_mode(self):
        with pytest.raises(ValueError):
            ReferenceConfig(yaw_mode="spin")


class TestScheduling:
    def test_later_spec_supersedes(self):
        early = alt_barrier(0.0, 2.0)
        late = alt_barrier(10.0, 1.0)
        domains = (BarrierDomain.ALTITUDE_POSITION,)
        assert active_barriers((early, late), 5.0, domains) == [early]
        assert active_barriers((early, late), 10.0, domains) == [late]

    def test_not_yet_active(self):
        assert active_barriers((alt_barrier(5.0),), 1.0,
                               (BarrierDomain.ALTITUDE_POSITION,)) == []

    def test_duplicate_activation_rejected(self):
        with pytest.raises(ValueError):
            Scenario(barriers=(alt_barrier(0.0), alt_barrier(0.0)))

    def test_degree_mismatch_rejected(self):
        # Three poles: only lateral_velocity has relative degree 3.
        three = (-1.0, -2.0, -3.0)
        BarrierSpec(BarrierDomain.LATERAL_VELOCITY, [0.0, 0.0], [2.0, 2.0], poles=three)
        for domain, n in ((BarrierDomain.ALTITUDE_POSITION, 1),
                          (BarrierDomain.ALTITUDE_POSVEL, 2),
                          (BarrierDomain.LATERAL_POSITION, 2)):
            with pytest.raises(InvalidPoles):
                BarrierSpec(domain, [0.0] * n, [2.0] * n, poles=three)


class TestRun:
    def test_hover_regulation(self):
        # No filters, zero reference, hover start: stays put.
        sc = Scenario(
            duration=10.0,
            reference=ReferenceConfig(amplitude=np.zeros(3)),
            filter_high=False, filter_low=False,
        )
        trace = run(sc)
        assert np.linalg.norm(trace.r, axis=1).max() <= 1e-3

    def test_trace_shape_and_fields(self):
        sc = Scenario(duration=0.05, barriers=(alt_barrier(),))
        trace = run(sc)
        assert len(trace) == 50
        assert trace.t[0] == 0.0
        assert trace.x.shape == (50, 18) and trace.euler.shape == (50, 3)
        # Only the scheduled barrier has columns; H is as wide as its degree.
        assert set(trace.h) == set(trace.H) == {BarrierDomain.ALTITUDE_POSITION}
        assert not np.isnan(trace.h[BarrierDomain.ALTITUDE_POSITION][0])
        assert trace.H[BarrierDomain.ALTITUDE_POSITION].shape == (50, 2)
        assert not np.isnan(trace.H[BarrierDomain.ALTITUDE_POSITION][0]).any()
        assert trace.qp_hi_status[0] == "optimal"
        assert trace.qp_lo_status[0] == ""  # no lateral barriers scheduled

    def test_nan_marks_inactive_barriers_and_unbuilt_rows(self):
        # h is NaN before the barrier's first activation; H is NaN on every
        # step whose level built no row, here because the filter is off.
        sc = Scenario(duration=0.05, barriers=(alt_barrier(0.02),), filter_high=False)
        trace = run(sc)
        h = trace.h[BarrierDomain.ALTITUDE_POSITION]
        assert np.array_equal(np.isnan(h), trace.t < 0.02)
        assert np.isnan(trace.H[BarrierDomain.ALTITUDE_POSITION]).all()
        assert trace.qp_hi_status == [""] * 50

    def test_barrier_switch_event_logged(self):
        sc = Scenario(duration=0.05, barriers=(alt_barrier(0.0, 2.0),
                                               alt_barrier(0.02, 1.9)))
        trace = run(sc)
        switched = [trace.t[k] for k, ev in trace.events
                    if ev == "barrier-switch:altitude_position"]
        assert switched and switched[0] == pytest.approx(0.02)

    def test_filter_inactive_when_reference_deep_inside(self):
        # References well inside shrunken regions: filtered and unfiltered
        # trajectories must coincide (the QPs pass the nominal through).
        ref = ReferenceConfig(amplitude=np.array([0.5, 0.5, 0.5]))
        barriers = (
            alt_barrier(half_width=2.0),
            BarrierSpec(BarrierDomain.LATERAL_POSITION, [0.0, 0.0], [2.0, 2.0],
                        poles=(-3.0, -4.0, -5.0, -6.0)),
        )
        on = run(Scenario(duration=5.0, reference=ref, barriers=barriers))
        off = run(Scenario(duration=5.0, reference=ref,
                           filter_high=False, filter_low=False))
        worst = np.linalg.norm(on.r - off.r, axis=1).max()
        assert worst <= 1e-3

    def test_initial_state_respected(self):
        s0 = QuadState(r=np.array([0.0, 0.0, 0.5]), v=np.array([1.6, 0.0, 1.2]))
        sc = Scenario(duration=0.002, initial_state=s0)
        trace = run(sc)
        assert np.allclose(trace.r[0], s0.r)
        assert np.allclose(trace.v[0], s0.v)

    def test_zero_kp_tracks_velocity(self):
        gains = ControllerGains(Kp=np.array([0.0, 0.0, 12.0]))
        sc = Scenario(duration=8.0, gains=gains,
                      filter_high=False, filter_low=False)
        trace = run(sc)
        ref = reference_at(trace.t[-1], sc.reference)
        assert abs(trace.v[-1, 0] - ref.v_d[0]) <= 0.05
        assert abs(trace.v[-1, 1] - ref.v_d[1]) <= 0.05

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError):
            Scenario(duration=-1.0)
        with pytest.raises(ValueError):
            Scenario(dt=0.0)
        with pytest.raises(ValueError):  # rounds to zero steps
            Scenario(duration=0.0004, dt=1e-3)
        with pytest.raises(ValueError):
            Scenario(dt=float("nan"))

    def test_non_finite_barrier_value_stops_the_run(self):
        # With its level's filter off, a barrier's h is only recorded: the
        # run stops rather than write -inf into the trace.
        spec = BarrierSpec(BarrierDomain.LATERAL_POSITION, [0.0, 0.0], [2.0, 2.0])
        sc = Scenario(duration=0.01, barriers=(spec,), filter_low=False,
                      initial_state=QuadState(r=np.array([1.0e80, 0.0, 0.0])))
        with pytest.raises(NonFiniteState, match="lateral_position barrier"):
            run(sc)

    def test_dt_override_keeps_step_count_consistent(self):
        sc = dataclasses.replace(Scenario(duration=0.01), dt=2e-3)
        assert len(run(sc)) == 5


def test_lateral_rows_once_per_step(monkeypatch):
    # fig7 has both lateral barriers active: one lateral_rows call per step
    # builds both rows from one set of kinematic terms.
    calls = []
    rows = qp.lateral_rows
    monkeypatch.setattr(qp, "lateral_rows",
                        lambda x, f, specs, params: calls.append(len(specs))
                        or rows(x, f, specs, params))
    trace = run(dataclasses.replace(load_preset("fig7-unified"), duration=0.2))
    assert len(trace) == 200
    assert trace.qp_lo_status == ["optimal"] * len(trace)
    assert calls == [2] * len(trace)
