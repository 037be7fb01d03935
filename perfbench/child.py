"""One benchmark operation, run in a fresh single-threaded interpreter.

    python3 perfbench/child.py '<request json>'

The request names the workload kind ("sim" or "oracle"), its input and
whether to trace. The operation drives only public entry points:
``quadsafe.cli.main(["run", scenario, "--out", dir])`` or
``quadsafe.oracle.check_all_chains(n_states, seed)``. The last line of
standard output is one JSON object with the timings, peak memory, the
oracle's results and, when traced, the raw span totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _os_threads() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    req = json.loads(argv[1])
    out: dict = {"exit_code": None, "error": None}

    t0 = time.perf_counter()
    import quadsafe
    if req["kind"] == "sim":
        import quadsafe.cli
        import quadsafe.config
        quadsafe.config.load_scenario(req["scenario"])
    else:
        import quadsafe.oracle
    out["setup_s"] = time.perf_counter() - t0
    out["quadsafe_file"] = quadsafe.__file__
    if req.get("setup_only"):
        print(json.dumps(out))
        return 0

    tracer = None
    if req["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    t1 = time.perf_counter()
    try:
        if req["kind"] == "sim":
            with contextlib.redirect_stdout(io.StringIO()):
                out["exit_code"] = quadsafe.cli.main(
                    ["run", req["scenario"], "--out", req["out"]])
        else:
            checks = quadsafe.oracle.check_all_chains(req["n_states"], req["seed"])
            out["exit_code"] = 0
            out["oracle"] = [
                {"domain": c.domain.value, "max_rel_lower": c.max_rel_lower,
                 "max_rel_top": c.max_rel_top}
                for c in checks
            ]
    except Exception:
        out["error"] = traceback.format_exc()
    out["run_s"] = time.perf_counter() - t1
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["os_threads"] = _os_threads()
    if tracer is not None:
        out["spans"] = tracer.as_dict()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
