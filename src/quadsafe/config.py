"""Scenario files: YAML schema, validation, and built-in presets.

Every physical quantity carries its unit in the key name (``p_z_m``,
``v_x_mps``, ``dt_s``). Unknown keys are rejected so typos fail loudly
instead of silently falling back to defaults.
"""

from __future__ import annotations

import io
import math
from typing import Any

import numpy as np
import yaml

from .barriers import DEFAULTS, RELATIVE_DEGREE, BarrierDomain, BarrierSpec
from .controller import ControllerGains
from .dynamics import QuadParams, QuadState, R_of_euler
from .sim import ReferenceConfig, Scenario


class ScenarioError(ValueError):
    """Invalid scenario file; the message names the offending key."""


_RUN_KEYS = {"duration_s", "dt_s"}
_INITIAL_KEYS = {
    "x_m", "y_m", "z_m", "vx_mps", "vy_mps", "vz_mps",
    "phi_rad", "theta_rad", "psi_rad", "p_radps", "q_radps", "r_radps",
}
_REFERENCE_KEYS = {
    "a_x_m", "a_y_m", "a_z_m", "w_x_radps", "w_y_radps", "w_z_radps",
    "yaw_mode", "psi_const_rad",
}
_FILTER_KEYS = {"high", "low"}
_GAIN_KEYS = {"kp", "kd", "k_r", "k_psi", "k_omega"}
_PARAM_KEYS = {
    "g_mps2", "m_kg", "ix_kgm2", "iy_kgm2", "iz_kgm2",
    "f_max_n", "tau_max_x_nm", "tau_max_y_nm",
}
_BARRIER_COMMON = {"domain", "active_from_s", "poles", "alpha"}
# Per family, the keys of its center and half-width entries; None marks a
# velocity center, which is fixed at its default.
_REGION_KEYS = {
    "altitude_position": (("c_z_m",), ("p_z_m",)),
    "altitude_posvel": (("c_z_m", None), ("p_z_m", "v_z_mps")),
    "lateral_position": (("c_x_m", "c_y_m"), ("p_x_m", "p_y_m")),
    "lateral_velocity": ((None, None), ("v_x_mps", "v_y_mps")),
}
_TOP_KEYS = {"run", "initial", "reference", "filters", "gains", "params", "barriers"}


def _check_keys(table: dict, allowed: set, where: str) -> None:
    if not isinstance(table, dict):
        raise ScenarioError(f"'{where}' must be a mapping")
    unknown = set(table) - allowed
    if unknown:
        raise ScenarioError(
            f"unknown key(s) in '{where}': {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _num(table: dict, key: str, default: float, where: str) -> float:
    val = table.get(key, default)
    if not _is_number(val):
        raise ScenarioError(f"'{where}.{key}' must be a number (finite), got {val!r}")
    return float(val)


def _is_number(val: Any) -> bool:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an int beyond the largest float
        return False


def _vec3(table: dict, key: str, default, where: str) -> np.ndarray:
    val = table.get(key, default)
    if not (isinstance(val, (list, tuple)) and len(val) == 3 and all(map(_is_number, val))):
        raise ScenarioError(f"'{where}.{key}' must be a list of 3 numbers")
    return np.array([float(v) for v in val])


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    _check_keys(data, _TOP_KEYS, "<top level>")
    default = Scenario()  # each absent key takes its dataclass default

    run = data.get("run", {})
    _check_keys(run, _RUN_KEYS, "run")
    duration = _num(run, "duration_s", default.duration, "run")
    dt = _num(run, "dt_s", default.dt, "run")

    init = data.get("initial", {})
    _check_keys(init, _INITIAL_KEYS, "initial")
    r = np.array([_num(init, k, 0.0, "initial") for k in ("x_m", "y_m", "z_m")])
    v = np.array([_num(init, k, 0.0, "initial") for k in ("vx_mps", "vy_mps", "vz_mps")])
    euler = [_num(init, k, 0.0, "initial") for k in ("phi_rad", "theta_rad", "psi_rad")]
    omega = np.array([_num(init, k, 0.0, "initial") for k in ("p_radps", "q_radps", "r_radps")])
    initial_state = QuadState(r=r, R=R_of_euler(*euler), v=v, omega=omega)

    refc = data.get("reference", {})
    _check_keys(refc, _REFERENCE_KEYS, "reference")
    ref0 = default.reference
    amplitude = [_num(refc, k, d, "reference")
                 for k, d in zip(("a_x_m", "a_y_m", "a_z_m"), ref0.amplitude.tolist())]
    frequency = [_num(refc, k, d, "reference")
                 for k, d in zip(("w_x_radps", "w_y_radps", "w_z_radps"), ref0.frequency.tolist())]
    yaw_constant = _num(refc, "psi_const_rad", ref0.yaw_constant, "reference")
    try:
        reference = ReferenceConfig(np.array(amplitude), np.array(frequency),
                                    refc.get("yaw_mode", ref0.yaw_mode), yaw_constant)
    except ValueError as exc:
        raise ScenarioError(f"'reference.yaw_mode': {exc}") from None

    filt = data.get("filters", {})
    _check_keys(filt, _FILTER_KEYS, "filters")
    for key in ("high", "low"):
        if key in filt and not isinstance(filt[key], bool):
            raise ScenarioError(f"'filters.{key}' must be a boolean")

    g = data.get("gains", {})
    _check_keys(g, _GAIN_KEYS, "gains")
    g0 = default.gains
    try:
        gains = ControllerGains(
            Kp=_vec3(g, "kp", g0.Kp.tolist(), "gains"),
            Kd=_vec3(g, "kd", g0.Kd.tolist(), "gains"),
            k_R=_num(g, "k_r", g0.k_R, "gains"),
            k_psi=_num(g, "k_psi", g0.k_psi, "gains"),
            k_omega=_vec3(g, "k_omega", g0.k_omega.tolist(), "gains"),
        )
    except ValueError as exc:
        raise ScenarioError(f"'gains': {exc}") from None

    prm = data.get("params", {})
    _check_keys(prm, _PARAM_KEYS, "params")
    p0 = default.params
    try:
        params = QuadParams(
            g=_num(prm, "g_mps2", p0.g, "params"),
            m=_num(prm, "m_kg", p0.m, "params"),
            Ix=_num(prm, "ix_kgm2", p0.Ix, "params"),
            Iy=_num(prm, "iy_kgm2", p0.Iy, "params"),
            Iz=_num(prm, "iz_kgm2", p0.Iz, "params"),
            f_max=_num(prm, "f_max_n", p0.f_max, "params"),
            tau_max=(
                _num(prm, "tau_max_x_nm", p0.tau_max[0], "params"),
                _num(prm, "tau_max_y_nm", p0.tau_max[1], "params"),
            ),
        )
    except ValueError as exc:
        raise ScenarioError(f"'params': {exc}") from None

    barriers = []
    entries = data.get("barriers", [])
    if not isinstance(entries, list):
        raise ScenarioError("'barriers' must be a list of mappings")
    for idx, entry in enumerate(entries):
        barriers.append(_barrier_from_dict(entry, f"barriers[{idx}]"))

    try:
        return Scenario(
            duration=duration,
            dt=dt,
            initial_state=initial_state,
            reference=reference,
            barriers=tuple(barriers),
            gains=gains,
            params=params,
            filter_high=filt.get("high", default.filter_high),
            filter_low=filt.get("low", default.filter_low),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _barrier_from_dict(entry: dict, where: str) -> BarrierSpec:
    if not isinstance(entry, dict) or "domain" not in entry:
        raise ScenarioError(f"'{where}' must be a mapping with a 'domain' key")
    domain_name = entry["domain"]
    if not isinstance(domain_name, str) or domain_name not in _REGION_KEYS:
        raise ScenarioError(
            f"'{where}.domain' must be one of {sorted(_REGION_KEYS)}, got {domain_name!r}"
        )
    center_keys, half_width_keys = _REGION_KEYS[domain_name]
    _check_keys(entry, _BARRIER_COMMON | {*center_keys, *half_width_keys} - {None}, where)
    domain = BarrierDomain(domain_name)
    delta = RELATIVE_DEGREE[domain]
    defaults = DEFAULTS[domain]
    center = [d if key is None else _num(entry, key, d, where)
              for key, d in zip(center_keys, defaults.center)]
    half_width = [_num(entry, key, d, where)
                  for key, d in zip(half_width_keys, defaults.half_width)]

    if delta == 1:
        if "poles" in entry:
            raise ScenarioError(
                f"'{where}.poles' only applies to barriers of relative degree 2 or more; "
                "set 'alpha'"
            )
        alpha = _num(entry, "alpha", -defaults.poles[0], where)
        if alpha <= 0:
            raise ScenarioError(f"'{where}.alpha' must be positive")
        poles = (-alpha,)
    else:
        if "alpha" in entry:
            raise ScenarioError(f"'{where}.alpha' only applies to relative-degree-1 barriers")
        poles = entry.get("poles", defaults.poles)
        if not (isinstance(poles, (list, tuple)) and all(map(_is_number, poles))):
            raise ScenarioError(f"'{where}.poles' must be a list of {delta} numbers")

    try:
        return BarrierSpec(
            domain=domain,
            center=np.array(center),
            half_width=np.array(half_width),
            poles=poles,
            active_from=_num(entry, "active_from_s", BarrierSpec.active_from, where),
        )
    except ValueError as exc:
        raise ScenarioError(f"'{where}': {exc}") from None


def load_scenario(source: str | io.TextIOBase) -> Scenario:
    """Parse a YAML scenario file (path or open stream)."""
    try:
        if isinstance(source, str):
            with open(source, "rb") as f:
                data = yaml.safe_load(f)
        else:
            data = yaml.safe_load(source)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"not valid YAML: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must contain a YAML mapping")
    return scenario_from_dict(data)


# Built-in presets. Each reproduces one of the trajectory-rectification
# experiments; the YAML text doubles as documented example input.
PRESETS: dict[str, str] = {
    "fig4-altitude": """\
# Altitude-domain safety: position barrier +-2 m and velocity barrier
# +-0.75 m/s on z, enforced by the high-level (thrust) QP only. The
# sinusoidal reference (amplitude 2.5 m) deliberately exceeds the limits.
run: {duration_s: 40.0, dt_s: 0.001}
filters: {high: true, low: false}
reference: {a_x_m: 2.5, a_y_m: 2.5, a_z_m: 2.5,
            w_x_radps: 0.4, w_y_radps: 0.5, w_z_radps: 0.3}
barriers:
  - {domain: altitude_position, c_z_m: 0.0, p_z_m: 2.0, poles: [-3.0, -4.0]}
  - {domain: altitude_posvel, c_z_m: 0.0, p_z_m: 2.0, v_z_mps: 0.75, alpha: 1.0}
""",
    "fig5-lateral-pos": """\
# Lateral-domain safety: rectellipse position barrier +-2 m on x and y,
# enforced by the low-level (torque) QP only.
run: {duration_s: 40.0, dt_s: 0.001}
filters: {high: false, low: true}
reference: {a_x_m: 2.5, a_y_m: 2.5, a_z_m: 2.5,
            w_x_radps: 0.4, w_y_radps: 0.5, w_z_radps: 0.3}
barriers:
  - {domain: lateral_position, c_x_m: 0.0, c_y_m: 0.0, p_x_m: 2.0, p_y_m: 2.0,
     poles: [-3.0, -4.0, -5.0, -6.0]}
""",
    "fig6-velocity-switch": """\
# Lateral velocity barriers switched mid-flight: non-conservative limits
# (+-4, +-2 m/s) for the first half, then restricted to (+-1.25, +-0.9 m/s).
# Lateral kp = 0: the nominal tracks the velocity reference, so capping the
# velocity does not wind up a position error against the filter.
run: {duration_s: 40.0, dt_s: 0.001}
filters: {high: false, low: true}
gains: {kp: [0.0, 0.0, 12.0]}
reference: {a_x_m: 2.5, a_y_m: 2.5, a_z_m: 2.5,
            w_x_radps: 0.4, w_y_radps: 0.5, w_z_radps: 0.3}
barriers:
  - {domain: lateral_velocity, v_x_mps: 4.0, v_y_mps: 2.0,
     poles: [-3.0, -4.0, -5.0], active_from_s: 0.0}
  - {domain: lateral_velocity, v_x_mps: 1.25, v_y_mps: 0.9,
     poles: [-3.0, -4.0, -5.0], active_from_s: 20.0}
""",
    "fig7-unified": """\
# Unified safe set: barriers at both levels simultaneously, with initial
# vertical and lateral velocities starting outside their safety regions.
# Lateral gains favor gentle entry: velocity tracking only (kp = 0) with
# soft damping, so the approach deceleration stays within what the
# velocity-barrier chain can certify without saturating the torques.
# The velocity barrier gets fast poles to limit boundary undershoot when
# it becomes binding with inherited inward velocity.
run: {duration_s: 40.0, dt_s: 0.001}
filters: {high: true, low: true}
initial: {vx_mps: 1.6, vz_mps: 1.2}
gains: {kp: [0.0, 0.0, 12.0], kd: [2.0, 2.0, 7.0]}
reference: {a_x_m: 2.5, a_y_m: 2.5, a_z_m: 2.5,
            w_x_radps: 0.4, w_y_radps: 0.5, w_z_radps: 0.3}
barriers:
  - {domain: altitude_position, c_z_m: 0.0, p_z_m: 2.0, poles: [-3.0, -4.0]}
  - {domain: altitude_posvel, c_z_m: 0.0, p_z_m: 2.0, v_z_mps: 0.75, alpha: 1.0}
  - {domain: lateral_position, c_x_m: 0.0, c_y_m: 0.0, p_x_m: 2.0, p_y_m: 2.0,
     poles: [-3.0, -4.0, -5.0, -6.0]}
  - {domain: lateral_velocity, v_x_mps: 1.25, v_y_mps: 0.9,
     poles: [-16.0, -20.0, -24.0]}
""",
    "stress-infeasible": """\
# Infeasibility stress: a 0.1 m altitude corridor with the quadrotor
# starting outside it at zero vertical speed. The velocity row then has no
# thrust authority (a = 0, b < 0), so the high-level QP logs infeasible
# steps and falls back to the least-infeasible thrust.
run: {duration_s: 5.0, dt_s: 0.001}
filters: {high: true, low: false}
initial: {z_m: 0.5}
reference: {a_x_m: 0.5, a_y_m: 0.5, a_z_m: 2.5,
            w_x_radps: 0.4, w_y_radps: 0.5, w_z_radps: 1.0}
barriers:
  - {domain: altitude_position, c_z_m: 0.0, p_z_m: 0.1, poles: [-3.0, -4.0]}
  - {domain: altitude_posvel, c_z_m: 0.0, p_z_m: 0.1, v_z_mps: 0.3, alpha: 1.0}
""",
}


def load_preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise ScenarioError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return load_scenario(io.StringIO(PRESETS[name]))
