"""Block-wise export: the bytes of a one-shot formatter, in bounded memory,
and the forked writer of quadsafe run: its bytes, its lifecycle and its
CPU."""

import dataclasses
import errno
import hashlib
import math
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from quadsafe import cli, sim
from quadsafe.barriers import BarrierDomain
from quadsafe.cli import (
    EPS_NUM,
    EXPORT_ROWS,
    TRACE_HEADER,
    export_trace,
    main,
    summary_text,
    trace_csv,
)
from quadsafe.config import load_preset, load_scenario
from quadsafe.dynamics import NonFiniteState
from quadsafe.sim import Trace, run

from conftest import preset_trace
from test_golden import FULL_EXPORT_SHA256

B = EXPORT_ROWS
# The step at which the mid-run barrier activates: its h cells are empty
# on both sides of the edge at B and filled on both sides of the one at 2B.
ACTIVATION_STEP = B + B // 2


def one_shot_trace_csv(trace) -> str:
    """trace.csv built whole in memory, as the export did before it wrote
    blocks: the byte reference for the block-wise one."""
    floats = np.column_stack([
        trace.t, trace.r, trace.euler, trace.v, trace.omega, trace.f_hat, trace.f_star,
        trace.tau_hat[:, :2], trace.m_star, trace.tau_hat[:, 2],
    ])
    cols = [map(repr, col) for col in floats.T.tolist()]
    for domain in BarrierDomain:
        cols.append(["" if h != h else repr(h) for h in trace.h[domain].tolist()]
                    if domain in trace.h else [""] * len(trace))
    cols += [trace.qp_hi_status, trace.qp_lo_status]
    return "\n".join([TRACE_HEADER, *map(",".join, zip(*cols))]) + "\n"


def one_shot_barrier_lines(trace) -> list[str]:
    lines = []
    for domain, col in trace.h.items():
        hs = [h for h in col.tolist() if h == h]
        if hs:
            violation_s = sum(trace.dt for h in hs if h < -EPS_NUM)
            lines.append(f"barrier {domain.value}: min_h={min(hs):.6f} "
                         f"violation_beyond_eps_s={violation_s:.3f}")
    return lines


def mid_activation_run(n_steps: int):
    """fig7 cut to n_steps, its lateral velocity barrier active from
    ACTIVATION_STEP; the other three barriers are active from step 0."""
    scenario = load_preset("fig7-unified")
    barriers = tuple(
        dataclasses.replace(spec, active_from=(ACTIVATION_STEP - 0.5) * scenario.dt)
        if spec.domain is BarrierDomain.LATERAL_VELOCITY else spec
        for spec in scenario.barriers
    )
    return run(dataclasses.replace(
        scenario, duration=n_steps * scenario.dt, barriers=barriers))


@pytest.mark.parametrize("n_steps", [1, B - 1, B, B + 1, 2 * B + 1])
def test_blocks_match_the_one_shot_bytes(n_steps):
    trace = mid_activation_run(n_steps)
    assert len(trace) == n_steps
    blocks = list(trace_csv(trace))
    assert len(blocks) == 1 + math.ceil(n_steps / B)
    assert "".join(blocks) == one_shot_trace_csv(trace)
    assert summary_text(trace, 0.0).splitlines()[2:-1] == one_shot_barrier_lines(trace)


def test_mid_run_activation_spans_block_edges():
    trace = mid_activation_run(2 * B + 1)
    h = trace.h[BarrierDomain.LATERAL_VELOCITY]
    assert np.isnan(h[:ACTIVATION_STEP]).all() and not np.isnan(h[ACTIVATION_STEP:]).any()
    rows = "".join(trace_csv(trace)).splitlines()[1:]
    column = TRACE_HEADER.split(",").index("h_latvel")
    cells = [row.split(",")[column] for row in rows]
    assert cells[B - 1] == cells[B] == ""
    assert cells[2 * B - 1] != "" and cells[2 * B] != ""


def synthetic_trace(n_steps: int) -> Trace:
    """A trace of every barrier domain with n_steps rows of random floats;
    each h column is NaN for its first half."""
    trace = Trace(n_steps, list(BarrierDomain), 1e-3)
    trace.block[:] = np.random.default_rng(0).standard_normal(trace.block.shape)
    for h in trace.h.values():
        h[: n_steps // 2] = np.nan
    trace.qp_hi_status += ["optimal"] * n_steps
    trace.qp_lo_status += ["infeasible"] * n_steps
    return trace


# Traced, a one-shot export of the 40 B-row trace peaks at about 19 MB
# (1.8 KB a row); the block-wise one at about 0.5 MB for any row count.
EXPORT_PEAK_BOUND = 2**20


@pytest.mark.parametrize("blocks", [2, 40])
def test_export_memory_does_not_grow_with_the_run(blocks, tmp_path):
    trace = synthetic_trace(blocks * B)
    tracemalloc.start()
    try:
        export_trace(trace, str(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= EXPORT_PEAK_BOUND, f"{peak / 2**20:.2f} MB over {blocks} blocks"
    assert os.path.getsize(tmp_path / "trace.csv") > blocks * B * 400


ONE_STEP = """\
run: {duration_s: DURATION, dt_s: 0.001}
initial: {z_m: 2.5}
barriers:
  - {domain: altitude_position, c_z_m: 0.0, p_z_m: 2.0}
"""


@pytest.mark.parametrize("duration, violation", [("0.001", "0.001"), ("0.002", "0.002")])
def test_summary_counts_the_violation_of_a_one_step_run(tmp_path, duration, violation):
    path = tmp_path / "one.yaml"
    path.write_text(ONE_STEP.replace("DURATION", duration))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert f"violation_beyond_eps_s={violation}\n" in summary, summary


def test_summary_skips_a_barrier_that_never_activated():
    # fig7 cut to 0.1 s, its lateral velocity barrier active from 1 s: that
    # h column is all NaN, and the summary gives it no line.
    scenario = load_preset("fig7-unified")
    barriers = tuple(dataclasses.replace(spec, active_from=1.0)
                     if spec.domain is BarrierDomain.LATERAL_VELOCITY else spec
                     for spec in scenario.barriers)
    trace = run(dataclasses.replace(scenario, duration=0.1, barriers=barriers))
    assert np.isnan(trace.h[BarrierDomain.LATERAL_VELOCITY]).all()
    named = [line.partition(":")[0] for line in summary_text(trace, 0.0).splitlines()
             if line.startswith("barrier ")]
    assert named == ["barrier altitude_position", "barrier altitude_posvel",
                     "barrier lateral_position"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("duration", ["0.001", "0.256"])
def test_cli_files_are_export_traces_bytes(tmp_path, duration):
    # One step, and exactly one block: quadsafe run's streamed trace.csv
    # and its events.csv are export_trace's bytes of the same run.
    path = tmp_path / "run.yaml"
    path.write_text(ONE_STEP.replace("DURATION", duration))
    assert main(["run", str(path), "--out", str(tmp_path / "cli")]) == 0
    assert_no_child_left()
    export_trace(run(load_scenario(str(path))), str(tmp_path / "lib"))
    for name in ("trace.csv", "events.csv", "summary.txt"):
        got = (tmp_path / "cli" / name).read_text().splitlines()
        want = (tmp_path / "lib" / name).read_text().splitlines()
        if name == "summary.txt":  # wall_time_s differs
            got, want = got[:1] + got[2:], want[:1] + want[2:]
        assert got == want, name
    assert len((tmp_path / "cli" / "trace.csv").read_text().splitlines()) == 1 + round(
        float(duration) * 1000)


def fail_at_step(monkeypatch, step, exc):
    """Make sim.run's step `step` raise exc from the dynamics."""
    calls = []
    advance = sim.advance

    def failing(*args):
        calls.append(None)
        if len(calls) > step:
            raise exc
        return advance(*args)

    monkeypatch.setattr(sim, "advance", failing)


def leftovers(path):
    return [name for name in os.listdir(path) if name.startswith(".tmp-")]


@pytest.mark.parametrize("exists", [False, True], ids=["new-out", "existing-out"])
def test_abort_after_blocks_leaves_no_files(tmp_path, capsys, monkeypatch, exists):
    # Step 600 aborts after two blocks went to the writer: exit 2, no
    # trace.csv, no partial file, and an out directory only if it existed.
    out = tmp_path / "a" / "b"
    if exists:
        out.mkdir(parents=True)
    sent, parts = [], cli._csv_parts
    monkeypatch.setattr(cli, "_csv_parts", lambda *args: sent.append(args) or parts(*args))
    fail_at_step(monkeypatch, 600, NonFiniteState("integration produced non-finite values"))
    assert main(["run", "presets:stress-infeasible", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: simulation aborted on non-finite state: "
                                       "integration produced non-finite values\n")
    assert len(sent) == 2
    assert_no_child_left()
    if exists:
        assert os.listdir(out) == []
    else:
        assert os.listdir(tmp_path) == []


def test_out_naming_a_file_exits_1(tmp_path, capsys):
    out = tmp_path / "file"
    out.write_text("keep")
    assert main(["run", "presets:stress-infeasible", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error writing {out}: ") and err.count("\n") == 1, err
    assert_no_child_left()
    assert out.read_text() == "keep" and leftovers(tmp_path) == []


def test_unexpected_error_in_run_reaps_the_writer(tmp_path, monkeypatch):
    fail_at_step(monkeypatch, 600, ZeroDivisionError("boom"))
    with pytest.raises(ZeroDivisionError):
        main(["run", "presets:stress-infeasible", "--out", str(tmp_path / "out")])
    assert_no_child_left()
    assert os.listdir(tmp_path) == []


def test_writer_error_exits_1_with_its_errno(tmp_path, capsys, monkeypatch):
    # The forked writer formats with cli._csv_rows: failing there with
    # ENOSPC, it exits with that errno, which quadsafe run reports.
    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_csv_rows", full)
    out = tmp_path / "out"
    assert main(["run", "presets:stress-infeasible", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error writing {out}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    assert_no_child_left()
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_fork_closes_both_pipe_ends(tmp_path, capsys, monkeypatch):
    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    out = tmp_path / "out"
    assert main(["run", "presets:stress-infeasible", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error writing {out}: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n")
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert os.listdir(tmp_path) == []
    assert_no_child_left()


def allowed_cpus() -> set[int]:
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


@pytest.mark.skipif(len(allowed_cpus()) < 2, reason="needs two allowed CPUs")
def test_writer_runs_off_the_cpu_the_run_was_on(tmp_path, monkeypatch):
    read, own_cpu = [], cli._cpu

    def cpu():
        read.append(own_cpu())
        return read[-1]

    monkeypatch.setattr(cli, "_cpu", cpu)
    writer = cli._TraceWriter(str(tmp_path / "out"))
    try:
        writer(synthetic_trace(B), slice(0, B))
        assert len(read) == 1 and read[0] is not None
        assert os.sched_getaffinity(writer.pid) == allowed_cpus() - {read[0]}
        writer.finish()
    finally:
        writer.close()
    assert_no_child_left()
    assert len((tmp_path / "out" / "trace.csv").read_text().splitlines()) == 1 + B


@pytest.mark.skipif(not allowed_cpus(), reason="needs sched_setaffinity")
def test_one_cpu_run_leaves_the_writer_alone_and_writes_the_pinned_bytes(tmp_path):
    # Restricted to one CPU, quadsafe run has no other CPU to give its
    # writer: it makes no affinity call, and the files are the same.
    code = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "calls = []; os.sched_setaffinity = lambda *args: calls.append(args); "
            "from quadsafe.cli import main; "
            "code = main(['run', 'presets:stress-infeasible', '--out', sys.argv[1]]); "
            "print('affinity calls:', calls); sys.exit(code)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("affinity calls: []\n"), proc.stdout
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in ("trace.csv", "events.csv"))
    assert got == FULL_EXPORT_SHA256["stress-infeasible"]


def test_every_fig7_block_fits_the_default_pipe():
    # _TraceWriter sends each block without the run waiting only if its
    # pickled _csv_parts fit the default 64 KiB pipe; fig7 fills all four
    # h columns.
    trace, _ = preset_trace("fig7-unified")
    sizes = [len(pickle.dumps(cli._csv_parts(trace, rows)))
             for rows in cli._row_blocks(len(trace) // B * B)]
    assert len(sizes) == len(trace) // B and max(sizes) < 65536, max(sizes)
