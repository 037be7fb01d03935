"""Outside-in span tracer for the traced benchmark run.

Each target is a function wrapped by name at the module attribute its
caller looks up at call time, so nothing under ``src/`` is edited.
``quadsafe.cli.run`` is wrapped rather than ``quadsafe.sim.run`` because
``cli`` binds that name at import. A target that no longer exists is
recorded as missing and skipped.

A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter_ns

CONTROLLER_LOOPS = ("position_loop", "thrust_from_accel", "attitude_loop", "body_rate_loop")

# (module, attribute, span name). solve_qp's span name is chosen per call.
TARGETS = (
    ("quadsafe.cli", "load_scenario", "config.load_scenario"),
    ("quadsafe.cli", "run", "sim.run"),
    ("quadsafe.cli", "export_trace", "cli.export_trace"),
    ("quadsafe.sim", "reference_at", "sim.reference_at"),
    ("quadsafe.sim", "active_barriers", "sim.active_barriers"),
    ("quadsafe.sim", "barrier_h", "barriers.barrier_h"),
    *(("quadsafe.controller", fn, "controller") for fn in CONTROLLER_LOOPS),
    ("quadsafe.controller", "euler_of_R", "dynamics.euler_of_R"),
    ("quadsafe.sim", "euler_of_R", "dynamics.euler_of_R"),
    ("quadsafe.sim", "filter_thrust", "qp.filter"),
    ("quadsafe.sim", "filter_torque", "qp.filter"),
    ("quadsafe.qp", "altitude_position_chain", "barriers.altitude_chain"),
    ("quadsafe.qp", "altitude_posvel_chain", "barriers.altitude_chain"),
    ("quadsafe.qp", "lateral_position_chain", "barriers.lateral_chain"),
    ("quadsafe.qp", "lateral_velocity_chain", "barriers.lateral_chain"),
    ("quadsafe.barriers", "lateral_chain_terms", "barriers.lateral_chain_terms"),
    ("quadsafe.qp", "solve_qp", "qp.solve"),
    ("quadsafe.qp", "least_infeasible", "qp.least_infeasible"),
    ("quadsafe.sim", "step", "dynamics.step"),
    ("quadsafe.dynamics", "project_to_rotation", "dynamics.project_to_rotation"),
    ("quadsafe.oracle", "check_all_chains", "oracle.check_all_chains"),
    ("quadsafe.oracle", "flow", "oracle.flow"),
    ("quadsafe.oracle", "evaluate_chain", "oracle.evaluate_chain"),
    ("quadsafe.oracle", "altitude_position_chain", "barriers.altitude_chain"),
    ("quadsafe.oracle", "altitude_posvel_chain", "barriers.altitude_chain"),
    ("quadsafe.oracle", "lateral_position_chain", "barriers.lateral_chain"),
    ("quadsafe.oracle", "lateral_velocity_chain", "barriers.lateral_chain"),
)


def _qp_dim(p) -> int | None:
    dim = getattr(p, "dim", None)
    if dim is None and getattr(p, "u_hat", None) is not None:
        dim = len(p.u_hat)
    return dim


class Tracer:
    """Spans and counters of one traced operation, kept in memory."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.first_ns: dict[str, int] = {}
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.step_marks: list[int] = []
        self.missing: list[str] = []
        self._children = [0]      # child time of each open span; [0] is the root

    def _close(self, name: str, dur: int) -> None:
        child = self._children.pop()
        self._children[-1] += dur
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child
        self.first_ns.setdefault(name, dur)

    def wrap(self, fn, name: str, name_of=None, observe=None):
        """fn inside a span; name_of(args) may pick the span name per call and
        observe(args, result) may count outcomes of a call that returned."""
        def traced(*args, **kwargs):
            span = name_of(args) if name_of else name
            self._children.append(0)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[span] += 1
                raise
            finally:
                self._close(span, _now() - t0)
            if observe:
                observe(args, result)
            return result
        return traced

    def _qp_name(self, args) -> str:
        return "qp.solve_1d" if _qp_dim(args[0]) == 1 else "qp.solve_2d"

    def _observe_solve(self, args, sol) -> None:
        u_star = getattr(sol, "u_star", None)
        u_hat = getattr(args[0], "u_hat", None)
        if u_star is not None and u_hat is not None and np.array_equal(u_star, u_hat):
            self.counts[self._qp_name(args) + ".passthrough"] += 1

    def _observe_filter(self, args, res) -> None:
        status = getattr(getattr(getattr(res, "solution", None), "status", None), "value", None)
        if status == "infeasible":
            self.counts["qp.filter.infeasible"] += 1

    def _mark_step(self, args, result) -> None:
        self.step_marks.append(_now())

    def install(self) -> None:
        hooks = {
            "qp.solve": {"name_of": self._qp_name, "observe": self._observe_solve},
            "qp.filter": {"observe": self._observe_filter},
            "sim.reference_at": {"observe": self._mark_step},
            "sim.run": {"observe": self._mark_step},
        }
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, **hooks.get(name, {})))

    def as_dict(self) -> dict:
        # A step runs from the return of its reference lookup to the next
        # one's, the last step until the simulation returns.
        marks = self.step_marks
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "first_ns": self.first_ns,
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "top_level_ns": self._children[0],     # time covered by spans with no parent
            "step_ns": [b - a for a, b in zip(marks, marks[1:])],
            "missing": self.missing,
        }
