"""Scenario-driven closed-loop simulation.

Single-rate loop: analytic sinusoidal reference -> cascaded controller ->
high-level thrust QP -> attitude/body-rate loops -> low-level torque QP ->
RK4 dynamics step, recorded in a Trace of columns preallocated for the
known step count. All QP and singularity events are recorded in the
trace, never fatal; only a non-finite state, barrier value or barrier row
aborts, with NonFiniteState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import controller as ctl
from .barriers import RELATIVE_DEGREE, BarrierDomain, BarrierSpec, LateralSingular, barrier_h
from .controller import ControllerGains, Reference
from .dynamics import NonFiniteState, QuadParams, QuadState, advance, euler_of_R, flat_of
from .qp import QpStatus, clip_moments, filter_torque, thrust_filter

ALTITUDE_DOMAINS = (BarrierDomain.ALTITUDE_POSITION, BarrierDomain.ALTITUDE_POSVEL)
LATERAL_DOMAINS = (BarrierDomain.LATERAL_POSITION, BarrierDomain.LATERAL_VELOCITY)


@dataclass(frozen=True)
class ReferenceConfig:
    """Sinusoidal trajectory source: r_d = a * sin(w t) per axis."""

    amplitude: np.ndarray = field(default_factory=lambda: np.array([2.5, 2.5, 2.5]))
    frequency: np.ndarray = field(default_factory=lambda: np.array([0.4, 0.5, 0.3]))
    yaw_mode: str = "atan2"          # "atan2" -> psi_d = atan2(y_d, x_d)
    yaw_constant: float = 0.0

    def __post_init__(self) -> None:
        if self.yaw_mode not in ("atan2", "constant"):
            raise ValueError("yaw_mode must be 'atan2' or 'constant'")


@dataclass(frozen=True)
class Scenario:
    duration: float = 40.0
    dt: float = 1e-3
    initial_state: QuadState = field(default_factory=QuadState)
    reference: ReferenceConfig = field(default_factory=ReferenceConfig)
    barriers: tuple[BarrierSpec, ...] = ()
    gains: ControllerGains = field(default_factory=ControllerGains)
    params: QuadParams = field(default_factory=QuadParams)
    filter_high: bool = True
    filter_low: bool = True

    def __post_init__(self) -> None:
        steps = self.duration / self.dt if self.dt > 0 else math.nan
        if not (self.duration > 0 and math.isfinite(steps) and round(steps) >= 1):
            raise ValueError(
                f"duration ({self.duration} s) and dt ({self.dt} s) must be positive "
                "and give at least one step"
            )
        by_domain: dict[BarrierDomain, list[float]] = {}
        for spec in self.barriers:
            by_domain.setdefault(spec.domain, []).append(spec.active_from)
        for domain, starts in by_domain.items():
            if len(starts) != len(set(starts)):
                raise ValueError(
                    f"overlapping schedule for {domain.value}: duplicate "
                    f"activation times {sorted(starts)}"
                )


class TraceTooLong(Exception):
    """The run has more steps than its trace can be allocated for."""


class Trace:
    """One run's per-step record; row k of every column is step k (t = k dt).

    The float columns (t, x, euler, f_hat, f_star, tau_hat, m_star and, per
    scheduled barrier domain d, h[d] and H[d] = [h, L_f h, ...]) are views
    into one block that run fills with one row write per step; r, v and
    omega are slices of the flat state x. h[d] is NaN before the barrier's
    first activation, H[d] on steps where its level built no row. The lists
    qp_hi_status and qp_lo_status hold a string per step, events
    (k, "kind:detail") pairs in step order.
    """

    def __init__(self, n_steps: int, domains: list[BarrierDomain]) -> None:
        widths = [1, 18, 3, 1, 1, 3, 2] + [1 + RELATIVE_DEGREE[d] for d in domains]
        try:
            self.block = np.empty((n_steps, sum(widths)))
        except (MemoryError, ValueError) as exc:
            raise TraceTooLong(f"cannot allocate a {n_steps:.3g}-step trace ({exc})") from None
        edges = np.cumsum([0, *widths]).tolist()
        cols = [self.block[:, a] if b == a + 1 else self.block[:, a:b]
                for a, b in zip(edges, edges[1:])]
        self.t, self.x, self.euler, self.f_hat, self.f_star, self.tau_hat, self.m_star = cols[:7]
        self.r, self.v, self.omega = self.x[:, :3], self.x[:, 12:15], self.x[:, 15:]
        self.h = {d: col[:, 0] for d, col in zip(domains, cols[7:])}
        self.H = {d: col[:, 1:] for d, col in zip(domains, cols[7:])}
        self.qp_hi_status, self.qp_lo_status, self.events = [], [], []

    def __len__(self) -> int:
        return len(self.t)


def reference_at(t: float, cfg: ReferenceConfig) -> Reference:
    """Closed-form reference position/velocity/acceleration and yaw, as floats."""
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
    return Reference(tuple(r_d), tuple(v_d), tuple(a_d), psi_d)


def active_barriers(
    barriers: tuple[BarrierSpec, ...], t: float, domains
) -> list[BarrierSpec]:
    """Latest activated spec per domain (later specs supersede earlier ones)."""
    out = []
    for domain in domains:
        candidates = [
            spec for spec in barriers
            if spec.domain is domain and spec.active_from <= t
        ]
        if candidates:
            out.append(max(candidates, key=lambda spec: spec.active_from))
    return out


# numpy's floating-point warnings are off for the run: each non-finite
# value they would report raises NonFiniteState instead.
@np.errstate(all="ignore")
def run(scenario: Scenario) -> Trace:
    """Simulate the closed loop; returns the Trace of every step."""
    params = scenario.params
    gains = scenario.gains
    dt = scenario.dt
    n_steps = int(round(scenario.duration / dt))
    scenario.initial_state.validate(tol=1e-6)
    domains = [d for d in BarrierDomain if any(spec.domain is d for spec in scenario.barriers)]
    trace = Trace(n_steps, domains)
    events = trace.events
    # A step's h and H cells, in block order: d's h at h_cell[d], its H at H_cells[d].
    h_cell, H_cells, nan_cells = {}, {}, []
    for d in domains:
        i = h_cell[d] = len(nan_cells)
        H_cells[d] = slice(i + 1, i + 1 + RELATIVE_DEGREE[d])
        nan_cells += [math.nan] * (1 + RELATIVE_DEGREE[d])
    # The state, as 18 floats [r, R row-major, v, omega].
    x = flat_of(scenario.initial_state)
    prev_active: dict[BarrierDomain, float] = {}
    # The active set changes only at activation times, so the schedule is
    # re-read only once t reaches the next of them.
    next_switch = -math.inf

    for k in range(n_steps):
        t = k * dt
        ref = reference_at(t, scenario.reference)

        if t >= next_switch:
            hi_active = active_barriers(scenario.barriers, t, ALTITUDE_DOMAINS)
            lo_active = active_barriers(scenario.barriers, t, LATERAL_DOMAINS)
            active = hi_active + lo_active
            for spec in active:
                if prev_active.get(spec.domain) not in (None, spec.active_from):
                    events.append((k, f"barrier-switch:{spec.domain.value}"))
                prev_active[spec.domain] = spec.active_from
            # Each active barrier's cells, so that the steps look up none.
            h_at = [h_cell[spec.domain] for spec in active]
            hi_H_at = [H_cells[spec.domain] for spec in hi_active]
            lo_H_at = [H_cells[spec.domain] for spec in lo_active]
            next_switch = min(
                (spec.active_from for spec in scenario.barriers if spec.active_from > t),
                default=math.inf,
            )

        cells = nan_cells.copy()
        for spec, at, h in zip(active, h_at, barrier_h(x, active)):
            if not math.isfinite(h):
                raise NonFiniteState(f"{spec.domain.value} barrier value is {h}")
            cells[at] = h

        euler = euler_of_R(x)
        z, R33, zd = x[2], x[11], x[14]
        r_ddot_cmd = ctl.position_loop(x, ref, gains)
        try:
            f_hat = ctl.thrust_from_accel(r_ddot_cmd[2], R33, params)
        except ctl.AttitudeSingular:
            f_hat = min(max(params.m * params.g, 0.0), params.f_max)
            events.append((k, "attitude-singular:thrust"))

        qp_hi_status = ""
        if scenario.filter_high and hi_active:
            f_star, (_, status, _, _), rows = thrust_filter(
                z, zd, R33, f_hat, hi_active, params)
            qp_hi_status = status.value
            for at, (_, _, _, H) in zip(hi_H_at, rows):
                cells[at] = H.tolist()
            if status is QpStatus.INFEASIBLE:
                events.append((k, "infeasible:high"))
        else:
            f_star = f_hat

        try:
            omega_cmd = ctl.attitude_loop(
                x, r_ddot_cmd, f_star, euler[2], ref.psi_d, gains, params
            )
        except (ctl.AttitudeSingular, ctl.ThrustTooSmall) as exc:
            omega_cmd = [0.0, 0.0, 0.0]
            kind = "attitude-singular" if isinstance(exc, ctl.AttitudeSingular) else "thrust-floor"
            events.append((k, f"{kind}:rates"))
        tau_hat = ctl.body_rate_loop(x, omega_cmd, gains, params)

        qp_lo_status = ""
        m_star = tau_hat[:2]
        if scenario.filter_low and lo_active:
            try:
                m_star, solution, rows = filter_torque(
                    x, tau_hat[:2], f_star, lo_active, params)
                m_star = m_star.tolist()
                qp_lo_status = solution.status.value
                for at, (_, _, _, H) in zip(lo_H_at, rows):
                    cells[at] = H.tolist()
                if solution.status is QpStatus.INFEASIBLE:
                    events.append((k, "infeasible:low"))
            except LateralSingular:
                m_star = clip_moments(tau_hat[:2], params)
                qp_lo_status = "singular"
                events.append((k, "lateral-singular"))
        trace.block[k] = [t, *x, *euler, f_hat, f_star, *tau_hat, *m_star, *cells]
        trace.qp_hi_status.append(qp_hi_status)
        trace.qp_lo_status.append(qp_lo_status)
        x = advance(x, f_star, [*m_star, tau_hat[2]], params, dt)
    return trace
