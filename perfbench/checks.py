"""Output checks and fingerprints of one benchmark operation.

An operation fails when its command exits non-zero, raises, or any check
here reports an error. The fingerprint holds the simulated statistics as
plain numbers, so a change meant only to be faster can be shown to leave
them unchanged.
"""

from __future__ import annotations

import csv
import math
import os

from workloads import F_MAX_N, ORACLE_CHAINS, TAU_MAX_NM

EPS_NUM = 0.02            # the acceptance suite's slack on barrier invariance
BOUND_TOL = 1e-9          # actuator bounds hold up to floating-point rounding
ORACLE_LOWER_TOL = 1e-4   # the acceptance suite's A1 limits
ORACLE_TOP_TOL = 1e-3

H_COLUMNS = ("h_alt", "h_altvel", "h_latpos", "h_latvel")
STATE_COLUMNS = ("x", "y", "z", "phi", "theta", "psi", "vx", "vy", "vz", "p", "q", "r_rate")
STATUS_COLUMNS = ("qp_hi_status", "qp_lo_status")
OUTPUT_FILES = ("trace.csv", "events.csv", "summary.txt")

# Which QP levels run on every step, and which barriers are active.
_PROPERTIES = {
    "altitude": {"hi": True, "lo": False, "h": ("h_alt", "h_altvel"), "safe": True},
    "unified": {"hi": True, "lo": True, "h": H_COLUMNS, "safe": True},
    "infeasible": {"hi": True, "lo": False, "h": ("h_alt", "h_altvel"), "safe": False},
}


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def check_sim(workload: str, out_dir: str, steps: int) -> tuple[list[str], dict]:
    """Errors found in a simulation's exported files, and its fingerprint."""
    missing = [n for n in OUTPUT_FILES if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        return [f"missing output files {missing}"], {}
    header, rows = _read_csv(os.path.join(out_dir, "trace.csv"))
    col = {name: i for i, name in enumerate(header)}
    absent = [c for c in (*STATE_COLUMNS, "F_star", "Mx_star", "My_star", *H_COLUMNS,
                          *STATUS_COLUMNS) if c not in col]
    if absent:
        return [f"trace.csv lacks columns {absent}"], {}

    errors = []
    if len(rows) != steps:
        errors.append(f"trace has {len(rows)} rows, expected {steps}")
    numeric = [i for name, i in col.items() if name not in STATUS_COLUMNS]
    values = []
    for k, row in enumerate(rows):
        if len(row) != len(header):
            errors.append(f"trace row {k} has {len(row)} fields, expected {len(header)}")
            return errors, {}
        vals = {}
        for i in numeric:
            if row[i] == "":
                continue
            try:
                v = float(row[i])
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                errors.append(f"trace row {k} column {header[i]} is not finite: {row[i]!r}")
                return errors, {}
            vals[header[i]] = v
        vals["hi"] = row[col["qp_hi_status"]]
        vals["lo"] = row[col["qp_lo_status"]]
        values.append(vals)

    for k, v in enumerate(values):
        f_star = v.get("F_star", math.nan)
        if not -BOUND_TOL <= f_star <= F_MAX_N + BOUND_TOL:
            errors.append(f"step {k}: F* = {f_star} outside [0, {F_MAX_N}] N")
            break
        if not all(abs(v.get(c, math.nan)) <= TAU_MAX_NM + BOUND_TOL
                   for c in ("Mx_star", "My_star")):
            errors.append(f"step {k}: |M*| above {TAU_MAX_NM} N m or missing")
            break

    prop = _PROPERTIES[workload]
    for level in ("hi", "lo"):
        bad = sum(1 for v in values if bool(v[level]) != prop[level])
        if bad:
            state = "ran" if not prop[level] else "did not run"
            errors.append(f"{level}-level QP {state} on {bad} steps")
    min_h = {}
    for name in H_COLUMNS:
        hs = [v[name] for v in values if name in v]
        if name not in prop["h"]:
            if hs:
                errors.append(f"barrier {name} active, expected inactive")
            continue
        if len(hs) != len(values):
            errors.append(f"barrier {name} inactive on {len(values) - len(hs)} steps")
            continue
        entry = next((k for k, h in enumerate(hs) if h >= 0.0), None)
        min_h[name] = None if entry is None else min(hs[entry:])
        if not prop["safe"]:
            continue
        if entry is None:
            errors.append(f"barrier {name}: safe set never entered")
        elif min_h[name] < -EPS_NUM:
            errors.append(f"barrier {name}: min h after entry {min_h[name]} < -{EPS_NUM}")

    _, events = _read_csv(os.path.join(out_dir, "events.csv"))
    by_type: dict[str, int] = {}
    infeasible_steps = set()
    for ev in events:
        if len(ev) != 3:
            errors.append(f"events.csv row {ev} does not have 3 fields")
            continue
        t, ev_type, detail = ev
        key = f"{ev_type}:{detail}" if detail else ev_type
        by_type[key] = by_type.get(key, 0) + 1
        if ev_type == "infeasible":
            infeasible_steps.add(t)
    if workload == "infeasible" and not infeasible_steps:
        errors.append("no infeasible events")

    last = values[-1] if values else {}
    fingerprint = {
        "steps": len(rows),
        "min_h_after_entry": min_h,
        "infeasible_steps": len(infeasible_steps),
        "events": dict(sorted(by_type.items())),
        "final_state": {c: last.get(c) for c in STATE_COLUMNS},
    }
    return errors, fingerprint


def check_oracle(results: list[dict] | None) -> tuple[list[str], dict]:
    """Errors in the oracle's per-chain results, and its fingerprint."""
    if not results or len(results) != ORACLE_CHAINS:
        return [f"expected {ORACLE_CHAINS} chain results, got {results!r}"], {}
    errors = []
    for r in results:
        lower, top = r["max_rel_lower"], r["max_rel_top"]
        if not (math.isfinite(lower) and lower <= ORACLE_LOWER_TOL):
            errors.append(f"{r['domain']}: lower-derivative error {lower} > {ORACLE_LOWER_TOL}")
        if not (math.isfinite(top) and top <= ORACLE_TOP_TOL):
            errors.append(f"{r['domain']}: top-derivative error {top} > {ORACLE_TOP_TOL}")
    fingerprint = {r["domain"]: [r["max_rel_lower"], r["max_rel_top"]] for r in results}
    return errors, fingerprint
