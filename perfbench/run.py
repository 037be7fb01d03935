"""quadsafe benchmark: host cost per unit of work on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each operation is one fresh, single-threaded interpreter (see child.py)
that drives a public entry point once. Operations repeat, one after
another, until ``--seconds`` have passed, and every operation's outputs
are checked (see checks.py). The last line of standard output is one JSON
object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced operations, alternated with untraced ones so
that the tracing overhead is measured too. Lines before it record the
environment, the workload recipe and the fingerprint of the outputs.
``--smoke`` shrinks every workload to a tiny horizon for the self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_oracle, check_sim
from layers import UNITS, per_layer_metrics, self_time_shares
from workloads import BLAS_THREADS, ORACLE_SEED, WORKLOADS, describe, scenario

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_OPS = 3               # per measured kind, so that a median has company
LAST_START_S = 120.0      # start no operation after this, whatever --seconds says
DEADLINE_S = 170.0        # kill any operation still running at this time
OUT_DIR = ".perfbench_out"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(request: dict, root: str, env: dict, deadline: float
              ) -> tuple[dict | None, str]:
    """One operation in a fresh interpreter, killed if still running at
    ``deadline`` (a perf_counter time): its report, or None and why not."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(request)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        return None, "killed at the benchmark's deadline"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"unreadable report: {lines[-1][:200]!r}"


def environment(root: str) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "quadsafe")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizon, one operation of each kind")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quadsafe", "__init__.py")):
        print("error: no src/quadsafe here; run from the root of a quadsafe checkout",
              file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    size = w.smoke_size if args.smoke else w.size
    work = os.path.join(root, OUT_DIR, f"{w.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, w, size, root, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, OUT_DIR))
        except OSError:
            pass


def check_operation(w, size: int, report: dict | None, why: str, out: str):
    """Errors of one operation and the fingerprint of its outputs."""
    if report is None:
        return [why], None
    if report["error"] or report["exit_code"] != 0:
        return [f"exit code {report['exit_code']}: {report['error']}"], None
    if w.preset is None:
        return check_oracle(report.get("oracle"))
    return check_sim(w.name, out, size)


def measure(args, w, size: int, root: str, work: str, started: float) -> int:
    env = child_env(root)
    deadline = started + DEADLINE_S
    if w.preset is None:
        request = {"kind": "oracle", "n_states": size, "seed": ORACLE_SEED}
    else:
        scenario_path = os.path.join(work, "scenario.yaml")
        with open(scenario_path, "w") as f:   # JSON is a subset of YAML
            json.dump(scenario(w, args.seed, size), f, indent=1)
        request = {"kind": "sim", "scenario": scenario_path}
    print("env", json.dumps(environment(root)))
    print("workload", json.dumps(describe(w, size)))

    # Untimed: compiles the package's bytecode and warms the file cache.
    report, why = run_child({**request, "trace": False, "setup_only": True}, root, env,
                            deadline)
    if report is None:
        print(f"error: cannot start the workload: {why}", file=sys.stderr)
        return 1
    if not report["quadsafe_file"].startswith(os.path.join(root, "src")):
        print(f"error: quadsafe imported from {report['quadsafe_file']}", file=sys.stderr)
        return 1

    min_ops = 1 if args.smoke else MIN_OPS
    untraced, traced, failures, setup_s = [], [], [], []
    tried = {False: 0, True: 0}     # operations attempted, by whether traced
    fingerprint = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = tried[False] >= min_ops and (not args.trace or tried[True] >= min_ops)
        if time.perf_counter() - started >= LAST_START_S or (done and elapsed >= args.seconds):
            break
        trace = bool(args.trace) and tried[True] < tried[False]
        tried[trace] += 1
        attempted = tried[False] + tried[True]
        out = os.path.join(work, f"op{attempted}")
        report, why = run_child({**request, "trace": trace, "out": out}, root, env, deadline)
        errors, fp = check_operation(w, size, report, why, out)
        shutil.rmtree(out, ignore_errors=True)
        if not errors:
            if fingerprint is None:
                fingerprint = fp
            elif fp != fingerprint:
                errors.append(f"fingerprint {fp} differs from the first operation's")
        if not args.trace:
            # One more set-up sample per operation: set-up is short and noisy.
            extra, _ = run_child({**request, "trace": False, "setup_only": True}, root, env,
                                 deadline)
            if extra is not None:
                setup_s.append(extra["setup_s"])
        if errors:
            failures.append(attempted)
            print(f"failed operation {attempted}:", "; ".join(errors))
            continue
        report["units"] = w.units(size)
        if trace:
            traced.append(report)
        else:
            untraced.append(report)
            setup_s.append(report["setup_s"])

    print("fingerprint", json.dumps(fingerprint))
    if not untraced or (args.trace and not traced):
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    step_us = [r["run_s"] * 1e6 / r["units"] for r in untraced]
    print("operations", json.dumps({
        "untraced": len(untraced), "traced": len(traced),
        "os_threads": max(r["os_threads"] for r in untraced),
        "step_us": [round(v, 3) for v in step_us],
        "setup_s": [round(v, 4) for v in setup_s],
    }))
    if args.trace:
        steps = 0 if w.preset is None else size
        metrics = per_layer_metrics(traced, statistics.median(step_us), steps)
        print("self_time_share", json.dumps(
            {name: round(v, 4) for name, v in self_time_shares(traced).items()}))
        missing = sorted({m for r in traced for m in r["spans"]["missing"]})
        if missing:
            print("missing trace targets", json.dumps(missing))
    else:
        metrics = {
            "step_us": statistics.median(step_us),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    result = {
        "correct": not failures,
        "attempted": tried[False] + tried[True],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
