"""Closed-loop scenario simulation: reference, scheduling, and trace output."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from quadsafe import qp
from quadsafe.barriers import BarrierDomain, BarrierSpec, EcbfGains
from quadsafe.config import PRESETS, load_preset
from quadsafe.controller import ControllerGains
from quadsafe.dynamics import QuadState
from quadsafe.sim import (
    ReferenceConfig,
    Scenario,
    ScheduledBarrier,
    active_barriers,
    reference_at,
    run,
)


def alt_barrier(active_from=0.0, half_width=2.0):
    return ScheduledBarrier(
        spec=BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [half_width],
                         active_from=active_from),
        gains=EcbfGains(2, (-3.0, -4.0)),
    )


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
            assert np.allclose((rp.r_d - rm.r_d) / (2 * eps), ref.v_d, atol=1e-6)
            assert np.allclose((rp.v_d - rm.v_d) / (2 * eps), ref.a_d, atol=1e-5)

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
        with pytest.raises(ValueError):
            ScheduledBarrier(
                spec=BarrierSpec(BarrierDomain.ALTITUDE_POSITION, [0.0], [2.0]),
                gains=EcbfGains(3, (-1.0, -2.0, -3.0)),
            )


class TestRun:
    def test_hover_regulation(self):
        # No filters, zero reference, hover start: stays put.
        sc = Scenario(
            duration=10.0,
            reference=ReferenceConfig(amplitude=np.zeros(3)),
            filter_high=False, filter_low=False,
        )
        trace = run(sc)
        assert max(np.linalg.norm(rec.r) for rec in trace) <= 1e-3

    def test_trace_shape_and_fields(self):
        sc = Scenario(duration=0.05, barriers=(alt_barrier(),))
        trace = run(sc)
        assert len(trace) == 50
        rec = trace[0]
        assert rec.t == 0.0
        assert BarrierDomain.ALTITUDE_POSITION in rec.h
        assert BarrierDomain.ALTITUDE_POSITION in rec.H
        assert len(rec.H[BarrierDomain.ALTITUDE_POSITION]) == 2
        assert rec.qp_hi_status == "optimal"
        assert rec.qp_lo_status == ""  # no lateral barriers scheduled

    def test_barrier_switch_event_logged(self):
        sc = Scenario(duration=0.05, barriers=(alt_barrier(0.0, 2.0),
                                               alt_barrier(0.02, 1.9)))
        trace = run(sc)
        switched = [rec.t for rec in trace
                    if "barrier-switch:altitude_position" in rec.events]
        assert switched and switched[0] == pytest.approx(0.02)

    def test_filter_inactive_when_reference_deep_inside(self):
        # References well inside shrunken regions: filtered and unfiltered
        # trajectories must coincide (the QPs pass the nominal through).
        ref = ReferenceConfig(amplitude=np.array([0.5, 0.5, 0.5]))
        barriers = (
            alt_barrier(half_width=2.0),
            ScheduledBarrier(
                spec=BarrierSpec(BarrierDomain.LATERAL_POSITION,
                                 [0.0, 0.0], [2.0, 2.0]),
                gains=EcbfGains(4, (-3.0, -4.0, -5.0, -6.0)),
            ),
        )
        on = run(Scenario(duration=5.0, reference=ref, barriers=barriers))
        off = run(Scenario(duration=5.0, reference=ref,
                           filter_high=False, filter_low=False))
        worst = max(np.linalg.norm(a.r - b.r) for a, b in zip(on, off))
        assert worst <= 1e-3

    def test_initial_state_respected(self):
        s0 = QuadState(r=np.array([0.0, 0.0, 0.5]), v=np.array([1.6, 0.0, 1.2]))
        sc = Scenario(duration=0.002, initial_state=s0)
        trace = run(sc)
        assert np.allclose(trace[0].r, s0.r)
        assert np.allclose(trace[0].v, s0.v)

    def test_zero_kp_tracks_velocity(self):
        gains = ControllerGains(Kp=np.array([0.0, 0.0, 12.0]))
        sc = Scenario(duration=8.0, gains=gains,
                      filter_high=False, filter_low=False)
        trace = run(sc)
        ref = reference_at(trace[-1].t, sc.reference)
        assert abs(trace[-1].v[0] - ref.v_d[0]) <= 0.05
        assert abs(trace[-1].v[1] - ref.v_d[1]) <= 0.05

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError):
            Scenario(duration=-1.0)
        with pytest.raises(ValueError):
            Scenario(dt=0.0)
        with pytest.raises(ValueError):  # rounds to zero steps
            Scenario(duration=0.0004, dt=1e-3)
        with pytest.raises(ValueError):
            Scenario(dt=float("nan"))

    def test_dt_override_keeps_step_count_consistent(self):
        sc = dataclasses.replace(Scenario(duration=0.01), dt=2e-3)
        assert len(run(sc)) == 5


def test_lateral_chain_terms_once_per_step(monkeypatch):
    # fig7 has both lateral barriers active: one lateral_rows call per step
    # builds both rows from one set of kinematic terms.
    calls = []
    rows = qp.lateral_rows
    monkeypatch.setattr(qp, "lateral_rows",
                        lambda x, f, specs, params: calls.append(len(specs))
                        or rows(x, f, specs, params))
    trace = run(dataclasses.replace(load_preset("fig7-unified"), duration=0.2))
    assert len(trace) == 200
    assert all(rec.qp_lo_status == "optimal" for rec in trace)
    assert calls == [2] * len(trace)
