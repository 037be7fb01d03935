"""Command-line front end: run scenarios, validate them, export traces.

Subcommands:
  run <scenario> [--out DIR] [--dt S]   simulate and write trace files
  presets                               list built-in scenarios
  check <scenario>                      validate without running
  oracle                                finite-difference chain check

``<scenario>`` is either a YAML file path or ``presets:<name>``.
Exit codes: 0 success, 1 validation error, bad option, a run too long
to allocate or a failed write, 2 non-finite state abort. QP infeasibility
events are data, not failures.
The exports write every float of sim.run's Trace columns as repr(float),
trace.csv in blocks of EXPORT_ROWS rows, so that export memory does not
grow with the run. ``run`` streams the blocks to a forked writer process
(POSIX), which writes trace.csv while the simulation goes on. Where the
run may use another CPU, the writer runs off the run's own: otherwise each
pipe write wakes it onto the run's CPU while the other CPU sits idle.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import pickle
import sys
import time
from collections.abc import Iterable, Iterator

import numpy as np

from .barriers import BarrierDomain
from .config import PRESETS, ScenarioError, load_preset, load_scenario
from .dynamics import NonFiniteState
from .sim import EXPORT_ROWS, Scenario, Trace, TraceTooLong, run

EPS_NUM = 0.02  # discretization slack on barrier invariance, for summaries

TRACE_HEADER = (
    "t,x,y,z,phi,theta,psi,vx,vy,vz,p,q,r_rate,f_hat,F_star,taux_hat,tauy_hat,"
    "Mx_star,My_star,tauz,h_alt,h_altvel,h_latpos,h_latvel,qp_hi_status,qp_lo_status"
)


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    # os.open with mode 0o666 lets the kernel apply the umask, as open() does;
    # mkstemp's mode 0600 would survive the rename.
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _row_blocks(n: int) -> Iterator[slice]:
    """The slices of EXPORT_ROWS rows, in order, that cover n rows."""
    return (slice(a, a + EXPORT_ROWS) for a in range(0, n, EXPORT_ROWS))


def trace_csv(trace: Trace) -> Iterator[str]:
    """trace.csv as text blocks of EXPORT_ROWS rows each, after the header
    line."""
    yield TRACE_HEADER + "\n"
    for rows in _row_blocks(len(trace)):
        yield _csv_rows(*_csv_parts(trace, rows))


def _csv_parts(trace: Trace, rows: slice) -> tuple:
    """_csv_rows's input for the given rows: trace.csv's float columns side
    by side, each domain's h column (None if not scheduled), the statuses."""
    floats = [trace.t, trace.r, trace.euler, trace.v, trace.omega, trace.f_hat,
              trace.f_star, trace.tau_hat[:, :2], trace.m_star, trace.tau_hat[:, 2]]
    hs = [None if h is None else h[rows] for h in map(trace.h.get, BarrierDomain)]
    return (np.column_stack([col[rows] for col in floats]), hs,
            trace.qp_hi_status[rows], trace.qp_lo_status[rows])


def _csv_rows(floats: np.ndarray, hs: list, hi: list[str], lo: list[str]) -> str:
    """trace.csv's lines of one block, h cells empty where h is NaN."""
    cols = [map(repr, col) for col in floats.T.tolist()]
    cols += [[""] * len(floats) if h is None else ["" if v != v else repr(v) for v in h.tolist()]
             for h in hs]
    return "\n".join(map(",".join, zip(*cols, hi, lo))) + "\n"


class _TraceWriter:
    """sim.run's consumer that streams trace.csv to a forked writer process.

    The first block makes out_dir and forks _write_blocks; each block's
    _csv_parts (at most 53 KB, which the default 64 KiB pipe takes without
    the run waiting) then go down a pipe. A pipe write wakes the writer
    onto the writing process's CPU and nothing moves it back, so right
    after the fork the parent restricts the writer to its own allowed CPUs
    less the one it read just before the fork; set by the parent, the
    placement is race-free. With one CPU allowed, no /proc or an OSError,
    the writer stays where the kernel puts it. A failed fork closes both
    pipe ends. finish() sends the end, None, and waits for the writer; close()
    reaps a writer still running, which then drops its partial file, and
    removes the directories made. The writer calls no BLAS, so the threads
    OpenBLAS may have started do not matter.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir, self.made, self.pid = out_dir, [], 0

    def __call__(self, trace: Trace, rows: slice) -> None:
        if not self.pid:
            path = os.path.abspath(self.out_dir)
            while not os.path.lexists(path):
                self.made.insert(0, path)
                path = os.path.dirname(path)
            os.makedirs(self.out_dir, exist_ok=True)
            r, w = os.pipe()
            cpu = _cpu()
            try:
                self.pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if not self.pid:
                os.close(w)
                _write_blocks(r, os.path.join(self.out_dir, "trace.csv"))
            os.close(r)
            self.pipe = os.fdopen(w, "wb")
            if cpu is not None:
                with contextlib.suppress(OSError):
                    if others := os.sched_getaffinity(0) - {cpu}:
                        os.sched_setaffinity(self.pid, others)
        self._send(_csv_parts(trace, rows))

    def _send(self, parts: tuple | None) -> None:
        try:
            pickle.dump(parts, self.pipe)
        except BrokenPipeError:
            self._wait()  # raises the writer's own error
            raise

    def _wait(self) -> None:
        if self.pid:
            pid, self.pid = self.pid, 0
            with contextlib.suppress(BrokenPipeError):  # the exit code says why
                self.pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                raise OSError(code, os.strerror(code))

    def finish(self) -> None:
        self._send(None)
        self._wait()
        self.made = []

    def close(self) -> None:
        with contextlib.suppress(OSError):  # the run has failed already
            self._wait()
        with contextlib.suppress(OSError):
            for path in reversed(self.made):
                os.rmdir(path)


def _cpu() -> int | None:
    """The CPU this process last ran on, field 39 of /proc/self/stat; None
    where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as f:
            return int(f.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _write_blocks(r: int, path: str) -> None:
    """The writer process: path, written atomically from the blocks read
    from the pipe r; exits with the errno of an OSError. Never returns."""
    def chunks(pipe):
        yield TRACE_HEADER + "\n"
        while (parts := pickle.load(pipe)) is not None:
            yield _csv_rows(*parts)

    code = 255
    try:
        with os.fdopen(r, "rb") as pipe:
            _atomic_write(path, chunks(pipe))
        code = 0
    except OSError as exc:
        code = exc.errno or code
    except EOFError:
        pass  # the run failed
    except Exception:
        import traceback
        traceback.print_exc()
    finally:
        os._exit(code)


def events_csv(trace: Trace) -> Iterator[str]:
    """events.csv, one line per event in step order."""
    yield "t,event_type,detail\n"
    for k, ev in trace.events:
        ev_type, _, detail = ev.partition(":")
        yield f"{float(trace.t[k])!r},{ev_type},{detail}\n"


def export_trace(trace: Trace, out_dir: str, wall_time_s: float = 0.0) -> None:
    """Write trace.csv, events.csv, summary.txt (atomically) into out_dir."""
    if not trace:
        raise ValueError("empty trace")
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "trace.csv"), trace_csv(trace))
    _atomic_write(os.path.join(out_dir, "events.csv"), events_csv(trace))
    _atomic_write(os.path.join(out_dir, "summary.txt"), [summary_text(trace, wall_time_s)])


def summary_text(trace: Trace, wall_time_s: float) -> str:
    lines = [f"steps: {len(trace)}", f"wall_time_s: {wall_time_s:.3f}"]
    for domain, col in trace.h.items():
        min_h = np.fmin.reduce(col)  # fmin skips the NaN cells before activation
        if np.isnan(min_h):  # the barrier never activated
            continue
        violation_s = np.count_nonzero(col < -EPS_NUM) * trace.dt
        lines.append(f"barrier {domain.value}: min_h={min_h:.6f} "
                     f"violation_beyond_eps_s={violation_s:.3f}")
    n_infeasible = len({k for k, ev in trace.events if ev.startswith("infeasible")})
    lines.append(f"infeasible_steps: {n_infeasible}")
    return "\n".join(lines) + "\n"


def _load(spec_arg: str) -> Scenario:
    if spec_arg.startswith("presets:"):
        return load_preset(spec_arg.split(":", 1)[1])
    if not os.path.exists(spec_arg):
        raise ScenarioError(f"scenario file not found: {spec_arg}")
    return load_scenario(spec_arg)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the code for a bad
    option; argparse's own 2 is the non-finite-state abort here. Subparsers
    are made of the parser's class, so they exit 1 too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="quadsafe",
        description="Quadrotor safety-filter simulator (cascaded CBF/ECBF QPs).",
    )
    # Not required to argparse, which would report a missing command before
    # an unknown flag; a missing command is reported after parsing instead.
    sub = parser.add_subparsers(dest="command")

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
    if args.command is None:
        parser.error("the following arguments are required: command")

    if args.command == "presets":
        for name in sorted(PRESETS):
            first_comment = PRESETS[name].splitlines()[0].lstrip("# ")
            print(f"{name}: {first_comment}")
        return 0

    if args.command == "oracle":
        if args.states < 1:
            print("error: --states must be at least 1", file=sys.stderr)
            return 1
        from .oracle import check_all_chains  # only this command loads the oracle

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
    writer = _TraceWriter(args.out)
    try:
        trace = run(scenario, writer)
        wall = time.perf_counter() - t0
        writer.finish()
        _atomic_write(os.path.join(args.out, "events.csv"), events_csv(trace))
        _atomic_write(os.path.join(args.out, "summary.txt"), [summary_text(trace, wall)])
    except TraceTooLong as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteState as exc:
        print(f"error: simulation aborted on non-finite state: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error writing {args.out}: {exc}", file=sys.stderr)
        return 1
    finally:
        writer.close()
    print(f"wrote {len(trace)} steps to {args.out} ({wall:.2f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
