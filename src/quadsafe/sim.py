"""Scenario-driven closed-loop simulation.

Single-rate loop: analytic sinusoidal reference -> cascaded controller ->
altitude rows and thrust QP -> attitude/body-rate loops -> lateral rows
and moment QP -> RK4 dynamics step, recorded in a Trace of columns
preallocated for the known step count. The loop does only the feedback
work per step; the reference, roll, pitch and barrier values are computed,
and the trace finished, in blocks of EXPORT_ROWS steps. All QP and
singularity events are recorded in the trace, never fatal; only a
non-finite state, barrier value or barrier row aborts, with NonFiniteState.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import controller as ctl
from . import qp
from .barriers import (
    ALTITUDE_DOMAINS,
    LATERAL_DOMAINS,
    BarrierDomain,
    BarrierSpec,
    LateralSingular,
    altitude_row,
    barrier_h_column,
    lateral_rows,
)
from .controller import ControllerGains, Reference
from .dynamics import (NonFiniteState, QuadParams, QuadState, advance, check_fields, flat_of,
                       roll_pitch_of_R, yaw_of_R)

EXPORT_ROWS = 256  # steps per block: run finishes, and export formats, this many rows at once


@dataclass(frozen=True)
class ReferenceConfig:
    """Sinusoidal trajectory source: r_d = a * sin(w t) per axis."""

    amplitude: tuple[float, ...] = (2.5, 2.5, 2.5)
    frequency: tuple[float, ...] = (0.4, 0.5, 0.3)
    yaw_mode: str = "atan2"          # "atan2" -> psi_d = atan2(y_d, x_d)
    yaw_constant: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self, {"amplitude": 3, "frequency": 3, "yaw_constant": 0})
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
        check_fields(self, {"duration": 0, "dt": 0})
        for name, kind in (("initial_state", QuadState), ("reference", ReferenceConfig),
                           ("gains", ControllerGains), ("params", QuadParams),
                           ("filter_high", bool), ("filter_low", bool), ("barriers", tuple)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        steps = self.duration / self.dt if self.dt > 0 else math.nan
        if not (self.duration > 0 and math.isfinite(steps) and round(steps) >= 1):
            raise ValueError(f"duration ({self.duration} s) and dt ({self.dt} s) must be "
                             "positive and give at least one step")
        if not all(isinstance(spec, BarrierSpec) for spec in self.barriers):
            raise ValueError(f"barriers must be a tuple of BarrierSpecs, got {self.barriers!r}")
        for spec in self.barriers:
            starts = sorted(s.active_from for s in self.barriers if s.domain is spec.domain)
            if len(starts) != len(set(starts)):
                raise ValueError(f"overlapping schedule for {spec.domain.value}: duplicate "
                                 f"activation times {starts}")


class TraceTooLong(Exception):
    """The run has more steps than its trace can be allocated for."""


class Trace:
    """One run's per-step record; row k of every column is step k (t = k dt).

    The float columns (t, x, euler, f_hat, f_star, tau_hat, m_star and, per
    scheduled barrier domain d, h[d]) are views into one block that run
    fills EXPORT_ROWS rows at a time; r, v and omega are slices of the flat
    state x. h[d] is NaN before the barrier's first activation. A chain
    H = [h, L_f h, ...] is not kept: the row builders give it back from x
    (and f_star, for the lateral chains). The lists
    qp_hi_status and qp_lo_status hold a string per step, events
    (k, "kind:detail") pairs in step order; dt is the run's step size.
    """

    def __init__(self, n_steps: int, domains: list[BarrierDomain], dt: float) -> None:
        self.dt = dt
        widths = [1, 18, 3, 1, 1, 3, 2] + [1] * len(domains)
        try:
            self.block = np.empty((n_steps, sum(widths)))
        except (MemoryError, ValueError) as exc:
            raise TraceTooLong(f"cannot allocate a {n_steps:.3g}-step trace ({exc})") from None
        edges = np.cumsum([0, *widths]).tolist()
        cols = [self.block[:, a] if b == a + 1 else self.block[:, a:b]
                for a, b in zip(edges, edges[1:])]
        self.t, self.x, self.euler, self.f_hat, self.f_star, self.tau_hat, self.m_star = cols[:7]
        self.r, self.v, self.omega = self.x[:, :3], self.x[:, 12:15], self.x[:, 15:]
        self.h = dict(zip(domains, cols[7:]))
        self.qp_hi_status, self.qp_lo_status, self.events = [], [], []

    def __len__(self) -> int:
        return len(self.t)


def reference_rows(t: np.ndarray, cfg: ReferenceConfig) -> list[Reference]:
    """The closed-form reference position/velocity/acceleration and yaw at
    each time of the float64 column t, as floats; numpy's sin, cos and
    arctan2 on columns round as on each single time."""
    a, w = np.array(cfg.amplitude)[:, None], np.array(cfg.frequency)[:, None]
    wt = w * t
    sin, cos = np.sin(wt), np.cos(wt)
    r_d = a * sin
    v_d = (a * w) * cos
    a_d = (-a * (w * w)) * sin
    if cfg.yaw_mode == "atan2":
        psi_d = np.where((r_d[0] == 0.0) & (r_d[1] == 0.0), 0.0,
                         np.arctan2(r_d[1], r_d[0])).tolist()
    else:
        psi_d = [cfg.yaw_constant] * len(t)
    return list(map(Reference, zip(*r_d.tolist()), zip(*v_d.tolist()), zip(*a_d.tolist()),
                    psi_d))


def activation_windows(barriers: tuple[BarrierSpec, ...]) -> dict[BarrierSpec, tuple]:
    """Each spec's activation window (start, stop): from its active_from to
    the next activation on its domain (inf if none), which supersedes it."""
    return {spec: (spec.active_from,
                   min((s.active_from for s in barriers if s.domain is spec.domain
                        and s.active_from > spec.active_from), default=math.inf))
            for spec in barriers}


def active_barriers(barriers: tuple[BarrierSpec, ...], t: float, domains) -> list[BarrierSpec]:
    """The spec active at time t on each of domains that has one, in their order."""
    windows = activation_windows(barriers).items()
    return [spec for domain in domains for spec, (start, stop) in windows
            if spec.domain is domain and start <= t < stop]


# numpy's floating-point warnings are off for the run: each non-finite
# value they would report raises NonFiniteState instead.
@np.errstate(all="ignore")
def run(scenario: Scenario, consumer: Callable[[Trace, slice], None] | None = None) -> Trace:
    """Simulate the closed loop; returns the Trace of every step. consumer,
    if given, gets the trace and the rows of each finished block, in order,
    unless a barrier value of the block is not finite: that raises first."""
    from array import array  # a row of C doubles per step, no float objects kept
    params, gains, dt = scenario.params, scenario.gains, scenario.dt
    n_steps = int(round(scenario.duration / dt))
    domains = [d for d in BarrierDomain if any(spec.domain is d for spec in scenario.barriers)]
    trace = Trace(n_steps, domains, dt)
    events = trace.events
    # A step's h cells stay NaN; finishing a block fills them.
    nan_h = [math.nan] * len(domains)
    # The state, as 18 floats [r, R row-major, v, omega].
    x = flat_of(scenario.initial_state)
    prev_active: dict[BarrierDomain, float] = {}
    # The active set changes only at activation times: re-read at the next.
    windows = activation_windows(scenario.barriers)
    next_switch = -math.inf
    # The actuator boxes of the two QPs.
    f_lower, f_upper = [0.0], [params.f_max]
    tau_lower, tau_upper = [-b for b in params.tau_max], list(params.tau_max)

    for first in range(0, n_steps, EXPORT_ROWS):
        block_rows = slice(first, min(first + EXPORT_ROWS, n_steps))
        t_col = np.arange(first, block_rows.stop) * dt
        record = array("d")  # block columns 1:, roll, pitch and h NaN
        for k, t, ref in zip(range(first, block_rows.stop), t_col.tolist(),
                             reference_rows(t_col, scenario.reference)):
            if t >= next_switch:
                hi_active = active_barriers(scenario.barriers, t, ALTITUDE_DOMAINS)
                lo_active = active_barriers(scenario.barriers, t, LATERAL_DOMAINS)
                for spec in hi_active + lo_active:
                    if prev_active.get(spec.domain) not in (None, spec.active_from):
                        events.append((k, f"barrier-switch:{spec.domain.value}"))
                    prev_active[spec.domain] = spec.active_from
                next_switch = min((start for start, _ in windows.values() if start > t),
                                  default=math.inf)

            psi = yaw_of_R(x)
            z, R33, zd = x[2], x[11], x[14]
            r_ddot_cmd = ctl.position_loop(x, ref, gains)
            try:
                f_hat = ctl.thrust_from_accel(r_ddot_cmd[2], R33, params)
            except ctl.AttitudeSingular:
                f_hat = params.m * params.g  # hover: QuadParams has f_max > m g > 0
                events.append((k, "attitude-singular:thrust"))

            qp_hi_status = ""
            f_star = f_hat
            if scenario.filter_high and hi_active:
                rows = [altitude_row(spec, z, zd, R33, params) for spec in hi_active]
                qp_rows = qp.finite_rows(hi_active, rows)
                (f_star,), status, _, _ = qp.solve_qp([f_hat], qp_rows, f_lower, f_upper)
                if status is qp.QpStatus.INFEASIBLE:
                    (f_star,) = qp.least_infeasible([f_hat], qp_rows, f_lower, f_upper)
                    events.append((k, "infeasible:high"))
                qp_hi_status = status.value

            try:
                omega_cmd = ctl.attitude_loop(x, r_ddot_cmd, f_star, psi, ref.psi_d, gains,
                                              params)
            except (ctl.AttitudeSingular, ctl.ThrustTooSmall) as exc:
                omega_cmd = [0.0, 0.0, 0.0]
                kind = ("attitude-singular" if isinstance(exc, ctl.AttitudeSingular)
                        else "thrust-floor")
                events.append((k, f"{kind}:rates"))
            tau_hat = ctl.body_rate_loop(x, omega_cmd, gains, params)

            qp_lo_status = ""
            m_star = tau_hat[:2]
            if scenario.filter_low and lo_active:
                try:
                    rows = lateral_rows(x, f_star, lo_active, params)
                except LateralSingular:
                    qp_lo_status = "singular"
                    events.append((k, "lateral-singular"))
                else:
                    qp_rows = qp.finite_rows(lo_active, rows)
                    m_star, status, _, _ = qp.solve_qp(tau_hat[:2], qp_rows, tau_lower, tau_upper)
                    if status is qp.QpStatus.INFEASIBLE:
                        m_star = qp.least_infeasible(tau_hat[:2], qp_rows, tau_lower, tau_upper)
                        events.append((k, "infeasible:low"))
                    qp_lo_status = status.value
            record.fromlist([*x, math.nan, math.nan, psi, f_hat, f_star, *tau_hat, *m_star, *nan_h])
            trace.qp_hi_status.append(qp_hi_status)
            trace.qp_lo_status.append(qp_lo_status)
            x = advance(x, f_star, [*m_star, tau_hat[2]], params, dt)

        block, x_rows = trace.block[block_rows], trace.x[block_rows]
        block[:, 1:] = np.frombuffer(record).reshape(len(block), -1)
        block[:, 0] = t_col
        trace.euler[block_rows, 0], trace.euler[block_rows, 1] = roll_pitch_of_R(x_rows[:, 3:12])
        for spec, (start, stop) in windows.items():
            on = (start <= t_col) & (t_col < stop)
            h = barrier_h_column(x_rows[on], spec)
            if not np.isfinite(h).all():  # before the consumer sees the block
                raise NonFiniteState(f"{spec.domain.value} barrier value is "
                                     f"{h[~np.isfinite(h)][0]}")
            trace.h[spec.domain][block_rows][on] = h
        if consumer is not None:
            consumer(trace, block_rows)
    return trace
