"""Workload recipes: the scenario each workload runs, how the seed perturbs
it, and which layers it exercises and bypasses.

The preset scenarios are copied here as data rather than read from
``quadsafe.config.PRESETS`` at run time, so a later change to a built-in
preset cannot silently change what the benchmark measures. Seed 0 gives the
preset exactly, truncated to the workload's step count; ``selftest.py``
checks that against the program's presets.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

BLAS_THREADS = 1
# The acceptance suite's A1 input. At other seeds or more states the oracle's
# relative error exceeds A1's limits at states where the analytic derivative
# is near zero, so the oracle workload keeps A1's states for every seed.
ORACLE_SEED = 12345
ORACLE_CHAINS = 4

F_MAX_N = 36.0                # actuator bounds of the default QuadParams
TAU_MAX_NM = 20.0

_REFERENCE = {"a_x_m": 2.5, "a_y_m": 2.5, "a_z_m": 2.5,
              "w_x_radps": 0.4, "w_y_radps": 0.5, "w_z_radps": 0.3}
_ALT_POS = {"domain": "altitude_position", "c_z_m": 0.0, "p_z_m": 2.0, "poles": [-3.0, -4.0]}
_ALT_POSVEL = {"domain": "altitude_posvel", "c_z_m": 0.0, "p_z_m": 2.0,
               "v_z_mps": 0.75, "alpha": 1.0}

PRESET_DATA = {
    "fig4-altitude": {
        "run": {"duration_s": 40.0, "dt_s": 0.001},
        "filters": {"high": True, "low": False},
        "reference": dict(_REFERENCE),
        "barriers": [dict(_ALT_POS), dict(_ALT_POSVEL)],
    },
    "fig7-unified": {
        "run": {"duration_s": 40.0, "dt_s": 0.001},
        "filters": {"high": True, "low": True},
        "initial": {"vx_mps": 1.6, "vz_mps": 1.2},
        "gains": {"kp": [0.0, 0.0, 12.0], "kd": [2.0, 2.0, 7.0]},
        "reference": dict(_REFERENCE),
        "barriers": [
            dict(_ALT_POS),
            dict(_ALT_POSVEL),
            {"domain": "lateral_position", "c_x_m": 0.0, "c_y_m": 0.0,
             "p_x_m": 2.0, "p_y_m": 2.0, "poles": [-3.0, -4.0, -5.0, -6.0]},
            {"domain": "lateral_velocity", "v_x_mps": 1.25, "v_y_mps": 0.9,
             "poles": [-16.0, -20.0, -24.0]},
        ],
    },
    "stress-infeasible": {
        "run": {"duration_s": 5.0, "dt_s": 0.001},
        "filters": {"high": True, "low": False},
        "initial": {"z_m": 0.5},
        "reference": {"a_x_m": 0.5, "a_y_m": 0.5, "a_z_m": 2.5,
                      "w_x_radps": 0.4, "w_y_radps": 0.5, "w_z_radps": 1.0},
        "barriers": [
            {"domain": "altitude_position", "c_z_m": 0.0, "p_z_m": 0.1, "poles": [-3.0, -4.0]},
            {"domain": "altitude_posvel", "c_z_m": 0.0, "p_z_m": 0.1,
             "v_z_mps": 0.3, "alpha": 1.0},
        ],
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str | None          # None: the oracle, which runs no scenario
    size: int                   # simulated steps, or oracle states per chain
    smoke_size: int             # tiny horizon for the self-test
    seed_rule: str
    perturb: tuple[tuple[str, float], ...]   # (initial key, half-width of U(-w, w))
    exercises: tuple[str, ...]
    bypasses: tuple[str, ...]
    property: str               # checked on every operation, see checks.py

    @property
    def unit(self) -> str:
        return "(chain, state) pair" if self.preset is None else "simulated step"

    def units(self, size: int) -> int:
        return ORACLE_CHAINS * size if self.preset is None else size


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="altitude",
            why="Thrust QP binds on most steps and the lateral QP never runs, so RK4 "
                "plus SO(3) re-projection, trace recording and CSV export dominate.",
            preset="fig4-altitude",
            size=10000,
            smoke_size=300,
            seed_rule="seed 0: the preset; seed n: initial x, y += U(-0.2, 0.2) m "
                      "from random.Random(n)",
            perturb=(("x_m", 0.2), ("y_m", 0.2)),
            exercises=("config", "cli", "sim", "controller", "barriers (altitude chains)",
                       "qp (1-D solve)", "dynamics"),
            bypasses=("qp (2-D solve, fallback)", "barriers (lateral chains)", "oracle"),
            property="thrust QP on every step, lateral QP on none, min h after "
                     "safe-set entry >= -0.02",
        ),
        Workload(
            name="unified",
            why="All four barriers are active and both QPs run every step, so the "
                "2-D QP enumeration and the lateral chains dominate.",
            preset="fig7-unified",
            size=3000,
            smoke_size=400,           # the lateral velocity safe set is entered at step 322
            seed_rule="seed 0: the preset; seed n: initial x, y += U(-0.2, 0.2) m, "
                      "vy += U(-0.05, 0.05) m/s from random.Random(n)",
            perturb=(("x_m", 0.2), ("y_m", 0.2), ("vy_mps", 0.05)),
            exercises=("config", "cli", "sim", "controller", "barriers (all chains)",
                       "qp (1-D and 2-D solve)", "dynamics"),
            bypasses=("qp (fallback)", "oracle"),
            property="both QPs on every step, all four barriers active, min h after "
                     "safe-set entry >= -0.02",
        ),
        Workload(
            name="infeasible",
            why="About 6% of steps are infeasible, so the HiGHS least-infeasible "
                "fallback and its lazy scipy import take a third of the time.",
            preset="stress-infeasible",
            size=5000,
            smoke_size=100,
            seed_rule="seed 0: the preset; seed n: initial x, y += U(-0.2, 0.2) m "
                      "from random.Random(n)",
            perturb=(("x_m", 0.2), ("y_m", 0.2)),
            exercises=("config", "cli", "sim", "controller", "barriers (altitude chains)",
                       "qp (1-D solve and fallback)", "dynamics"),
            bypasses=("qp (2-D solve)", "barriers (lateral chains)", "oracle"),
            property="at least one infeasible event, lateral QP on no step",
        ),
        Workload(
            name="oracle",
            why="Finite-difference check of all four chains through the signed RK4 "
                "flow, with no controller, QP or export.",
            preset=None,
            size=100,
            smoke_size=5,
            seed_rule=f"every seed: check_all_chains(n_states, seed={ORACLE_SEED}), "
                      "the acceptance suite's A1 input",
            perturb=(),
            exercises=("oracle", "barriers (all chains)", "dynamics (flow, re-projection)"),
            bypasses=("config", "cli", "sim", "controller", "qp"),
            property="relative chain errors <= 1e-4 (lower derivatives) and "
                     "<= 1e-3 (top derivative)",
        ),
    )
}


def scenario(w: Workload, seed: int, steps: int) -> dict:
    """The scenario dict for a simulation workload at this seed."""
    data = copy.deepcopy(PRESET_DATA[w.preset])
    data["run"]["duration_s"] = steps * data["run"]["dt_s"]
    if seed != 0:
        rng = random.Random(seed)
        initial = data.setdefault("initial", {})
        for key, width in w.perturb:
            initial[key] = initial.get(key, 0.0) + rng.uniform(-width, width)
    return data


def describe(w: Workload, size: int) -> dict:
    """The recipe of a workload as printed with every run."""
    return {
        "name": w.name,
        "why": w.why,
        "scenario": w.preset or "check_all_chains",
        "size": size,
        "unit": w.unit,
        "seed_rule": w.seed_rule,
        "exercises": list(w.exercises),
        "bypasses": list(w.bypasses),
        "property": w.property,
    }
