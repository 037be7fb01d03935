"""Command-line front end: run scenarios, validate them, export traces.

Subcommands:
  run <scenario> [--out DIR] [--dt S]   simulate and write trace files
  presets                               list built-in scenarios
  check <scenario>                      validate without running
  oracle                                finite-difference chain check

``<scenario>`` is either a YAML file path or ``presets:<name>``.
Exit codes: 0 success, 1 validation error or a run too long to allocate,
2 non-finite state abort. QP infeasibility events are data, not failures.
The exports write every float of sim.run's Trace columns as repr(float).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .barriers import BarrierDomain
from .config import PRESETS, ScenarioError, load_preset, load_scenario
from .dynamics import NonFiniteState
from .oracle import check_all_chains
from .sim import Scenario, Trace, TraceTooLong, run

EPS_NUM = 0.02  # discretization slack on barrier invariance, for summaries

TRACE_HEADER = (
    "t,x,y,z,phi,theta,psi,vx,vy,vz,p,q,r_rate,f_hat,F_star,taux_hat,tauy_hat,"
    "Mx_star,My_star,tauz,h_alt,h_altvel,h_latpos,h_latvel,qp_hi_status,qp_lo_status"
)


def _atomic_write(path: str, text: str) -> None:
    # os.open with mode 0o666 lets the kernel apply the umask, as open() does;
    # mkstemp's mode 0600 would survive the rename.
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trace_csv(trace: Trace) -> str:
    """trace.csv: one row per step, h cells empty where the column is NaN."""
    floats = np.column_stack([
        trace.t, trace.r, trace.euler, trace.v, trace.omega, trace.f_hat, trace.f_star,
        trace.tau_hat[:, :2], trace.m_star, trace.tau_hat[:, 2],
    ])
    cols = [map(repr, col) for col in floats.T.tolist()]
    for domain in BarrierDomain:  # h_alt, h_altvel, h_latpos, h_latvel
        cols.append(["" if h != h else repr(h) for h in trace.h[domain].tolist()]
                    if domain in trace.h else [""] * len(trace))
    cols += [trace.qp_hi_status, trace.qp_lo_status]
    return "\n".join([TRACE_HEADER, *map(",".join, zip(*cols))]) + "\n"


def export_trace(trace: Trace, out_dir: str, wall_time_s: float = 0.0) -> None:
    """Write trace.csv, events.csv, summary.txt (atomically) into out_dir."""
    if not trace:
        raise ValueError("empty trace")
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "trace.csv"), trace_csv(trace))

    event_lines = ["t,event_type,detail"]
    for k, ev in trace.events:
        ev_type, _, detail = ev.partition(":")
        event_lines.append(f"{float(trace.t[k])!r},{ev_type},{detail}")
    _atomic_write(os.path.join(out_dir, "events.csv"), "\n".join(event_lines) + "\n")

    _atomic_write(os.path.join(out_dir, "summary.txt"),
                  summary_text(trace, wall_time_s))


def summary_text(trace: Trace, wall_time_s: float) -> str:
    dt = float(trace.t[1] - trace.t[0]) if len(trace) > 1 else 0.0
    lines = [f"steps: {len(trace)}", f"wall_time_s: {wall_time_s:.3f}"]
    for domain, col in trace.h.items():
        hs = [h for h in col.tolist() if h == h]
        if not hs:
            continue
        min_h = min(hs)
        violation_s = sum(dt for h in hs if h < -EPS_NUM)
        lines.append(
            f"barrier {domain.value}: min_h={min_h:.6f} "
            f"violation_beyond_eps_s={violation_s:.3f}"
        )
    n_infeasible = len({k for k, ev in trace.events if ev.startswith("infeasible")})
    lines.append(f"infeasible_steps: {n_infeasible}")
    return "\n".join(lines) + "\n"


def _load(spec_arg: str) -> Scenario:
    if spec_arg.startswith("presets:"):
        return load_preset(spec_arg.split(":", 1)[1])
    if not os.path.exists(spec_arg):
        raise ScenarioError(f"scenario file not found: {spec_arg}")
    return load_scenario(spec_arg)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadsafe",
        description="Quadrotor safety-filter simulator (cascaded CBF/ECBF QPs).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and export the trace")
    p_run.add_argument("scenario", help="YAML scenario file or presets:<name>")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--dt", type=float, default=None, help="override step size [s]")

    sub.add_parser("presets", help="list built-in scenario presets")

    p_check = sub.add_parser("check", help="validate a scenario without running it")
    p_check.add_argument("scenario", help="YAML scenario file or presets:<name>")

    p_oracle = sub.add_parser(
        "oracle", help="verify barrier chains against finite differences"
    )
    p_oracle.add_argument("--states", type=int, default=100)

    args = parser.parse_args(argv)

    if args.command == "presets":
        for name in sorted(PRESETS):
            first_comment = PRESETS[name].splitlines()[0].lstrip("# ")
            print(f"{name}: {first_comment}")
        return 0

    if args.command == "oracle":
        if args.states < 1:
            print("error: --states must be at least 1", file=sys.stderr)
            return 1
        ok = True
        for chk in check_all_chains(n_states=args.states):
            print(
                f"{chk.domain.value}: max_rel_err lower-derivatives="
                f"{chk.max_rel_lower:.3e} top-derivative={chk.max_rel_top:.3e}"
            )
            ok = ok and chk.max_rel_lower <= 1e-4 and chk.max_rel_top <= 1e-3
        print("oracle:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    try:
        scenario = _load(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "check":
        print("ok")
        return 0

    if args.dt is not None:
        try:
            scenario = dataclasses.replace(scenario, dt=args.dt)
        except ValueError as exc:
            print(f"error: --dt {args.dt}: {exc}", file=sys.stderr)
            return 1

    t0 = time.perf_counter()
    try:
        trace = run(scenario)
    except TraceTooLong as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteState as exc:
        print(f"error: simulation aborted on non-finite state: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0
    try:
        export_trace(trace, args.out, wall)
    except OSError as exc:
        print(f"error writing {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(trace)} steps to {args.out} ({wall:.2f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
