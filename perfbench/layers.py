"""Per-layer metrics from the spans of traced operations.

Names ending in ``us_per_step``/``us_per_call`` are a span's whole duration
(children included) per simulated step or per call; names with ``self_``
exclude the children. Each ratio is printed next to its base: steps in
``sim.steps``, calls in the matching ``.calls`` metric.
"""

from __future__ import annotations

import statistics

END_TO_END_UNITS = {"step_us": "us", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "sim.steps": "count",
    "sim.run.self_us_per_step": "us",
    "sim.reference_at.us_per_step": "us",
    "sim.active_barriers.us_per_step": "us",
    "sim.step_p50_us": "us",
    "sim.step_p99_us": "us",
    "sim.step_max_us": "us",
    "sim.step_samples": "count",
    "controller.us_per_step": "us",
    "controller.singular_events": "count",
    "barriers.barrier_h.us_per_step": "us",
    "barriers.altitude_chain.us_per_step": "us",
    "barriers.lateral_chain.us_per_step": "us",
    "barriers.lateral_chain_terms.us_per_step": "us",
    "barriers.lateral_chain_terms.calls_per_step": "1/step",
    "qp.filter.calls": "count",
    "qp.filter.self_us_per_step": "us",
    "qp.solve_1d.us_per_call": "us",
    "qp.solve_1d.calls": "count",
    "qp.solve_2d.us_per_call": "us",
    "qp.solve_2d.calls": "count",
    "qp.passthrough_frac_1d": "fraction",
    "qp.passthrough_frac_2d": "fraction",
    "qp.infeasible_frac": "fraction",
    "qp.least_infeasible.us_per_call": "us",
    "qp.least_infeasible.calls": "count",
    "qp.least_infeasible.first_call_ms": "ms",
    "dynamics.step.self_us_per_step": "us",
    "dynamics.project_to_rotation.us_per_call": "us",
    "dynamics.project_to_rotation.calls": "count",
    "dynamics.euler_of_R.us_per_step": "us",
    "dynamics.euler_of_R.calls_per_step": "1/step",
    "cli.export_trace.s": "s",
    "cli.export_trace.us_per_row": "us",
    "config.load_scenario.ms": "ms",
    "oracle.flow.us_per_call": "us",
    "oracle.flow.calls": "count",
    "oracle.evaluate_chain.us_per_call": "us",
    "oracle.check_all_chains.s": "s",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.missing_targets": "count",
}

UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _one(report: dict, steps: int) -> dict:
    """Per-layer metrics of one traced operation (untraced overhead aside)."""
    s = report["spans"]
    calls, total, self_ = s["calls"], s["total_ns"], s["self_ns"]

    def n(name):
        return calls.get(name, 0)

    def per_step(ns_table, name):
        return _ratio(ns_table.get(name, 0) / 1e3, steps)

    def per_call(name):
        return _ratio(total.get(name, 0) / 1e3, n(name))

    step_us = sorted(d / 1e3 for d in s["step_ns"])
    p99 = statistics.quantiles(step_us, n=100)[98] if len(step_us) >= 2 else 0.0
    wall_ns = report["run_s"] * 1e9
    return {
        "sim.steps": steps,
        "sim.run.self_us_per_step": per_step(self_, "sim.run"),
        "sim.reference_at.us_per_step": per_step(total, "sim.reference_at"),
        "sim.active_barriers.us_per_step": per_step(total, "sim.active_barriers"),
        "sim.step_p50_us": statistics.median(step_us) if step_us else 0.0,
        "sim.step_p99_us": p99,
        "sim.step_max_us": step_us[-1] if step_us else 0.0,
        "sim.step_samples": len(step_us),
        "controller.us_per_step": per_step(total, "controller"),
        "controller.singular_events": s["errors"].get("controller", 0),
        "barriers.barrier_h.us_per_step": per_step(total, "barriers.barrier_h"),
        "barriers.altitude_chain.us_per_step": per_step(total, "barriers.altitude_chain"),
        "barriers.lateral_chain.us_per_step": per_step(total, "barriers.lateral_chain"),
        "barriers.lateral_chain_terms.us_per_step":
            per_step(total, "barriers.lateral_chain_terms"),
        "barriers.lateral_chain_terms.calls_per_step":
            _ratio(n("barriers.lateral_chain_terms"), steps),
        "qp.filter.calls": n("qp.filter"),
        "qp.filter.self_us_per_step": per_step(self_, "qp.filter"),
        "qp.solve_1d.us_per_call": per_call("qp.solve_1d"),
        "qp.solve_1d.calls": n("qp.solve_1d"),
        "qp.solve_2d.us_per_call": per_call("qp.solve_2d"),
        "qp.solve_2d.calls": n("qp.solve_2d"),
        "qp.passthrough_frac_1d":
            _ratio(s["counts"].get("qp.solve_1d.passthrough", 0), n("qp.solve_1d")),
        "qp.passthrough_frac_2d":
            _ratio(s["counts"].get("qp.solve_2d.passthrough", 0), n("qp.solve_2d")),
        "qp.infeasible_frac": _ratio(s["counts"].get("qp.filter.infeasible", 0), n("qp.filter")),
        "qp.least_infeasible.us_per_call": per_call("qp.least_infeasible"),
        "qp.least_infeasible.calls": n("qp.least_infeasible"),
        "qp.least_infeasible.first_call_ms": s["first_ns"].get("qp.least_infeasible", 0) / 1e6,
        "dynamics.step.self_us_per_step": per_step(self_, "dynamics.step"),
        "dynamics.project_to_rotation.us_per_call": per_call("dynamics.project_to_rotation"),
        "dynamics.project_to_rotation.calls": n("dynamics.project_to_rotation"),
        "dynamics.euler_of_R.us_per_step": per_step(total, "dynamics.euler_of_R"),
        "dynamics.euler_of_R.calls_per_step": _ratio(n("dynamics.euler_of_R"), steps),
        "cli.export_trace.s": total.get("cli.export_trace", 0) / 1e9,
        "cli.export_trace.us_per_row": per_step(total, "cli.export_trace"),
        "config.load_scenario.ms": total.get("config.load_scenario", 0) / 1e6,
        "oracle.flow.us_per_call": per_call("oracle.flow"),
        "oracle.flow.calls": n("oracle.flow"),
        "oracle.evaluate_chain.us_per_call": per_call("oracle.evaluate_chain"),
        "oracle.check_all_chains.s": total.get("oracle.check_all_chains", 0) / 1e9,
        "trace.unattributed_frac": _ratio(wall_ns - s["top_level_ns"], wall_ns),
        "trace.missing_targets": len(s["missing"]),
    }


def per_layer_metrics(traced: list[dict], untraced_step_us: float, steps: int) -> dict:
    """Medians over traced operations, plus the tracing overhead against the
    median untraced cost per unit. ``steps`` is 0 for the oracle."""
    ones = [_one(r, steps) for r in traced]
    metrics = {name: statistics.median(m[name] for m in ones) for name in ones[0]}
    traced_step_us = statistics.median(r["run_s"] * 1e6 / r["units"] for r in traced)
    metrics["trace.overhead_frac"] = traced_step_us / untraced_step_us - 1.0
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def self_time_shares(traced: list[dict]) -> dict:
    """Median share of traced wall time spent in each span's own code; with
    trace.unattributed_frac these add up to about one."""
    names = sorted({name for r in traced for name in r["spans"]["self_ns"]})
    return {name: statistics.median(r["spans"]["self_ns"].get(name, 0) / (r["run_s"] * 1e9)
                                    for r in traced)
            for name in names}
