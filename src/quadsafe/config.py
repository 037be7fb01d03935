"""Scenario files: YAML schema, validation, and built-in presets.

Every physical quantity carries its unit in the key name (``p_z_m``,
``v_x_mps``, ``dt_s``). Unknown keys are rejected so typos fail loudly
instead of silently falling back to defaults. Each section is one table
of key -> default, in reading order, its defaults read off one
``Scenario()``; a key's type is its default's: a bool, a string (checked
by the dataclass that takes it), a 3-vector or a finite number.
"""

from __future__ import annotations

import io
import math
import re
from collections.abc import Hashable
from contextlib import nullcontext
from typing import Any

import yaml

from .barriers import FAMILIES, BarrierDomain, BarrierSpec
from .controller import ControllerGains
from .dynamics import QuadParams, QuadState, R_of_euler
from .sim import ReferenceConfig, Scenario


class ScenarioError(ValueError):
    """Invalid scenario file; the message names the offending key."""


# Per family, the keys of its center and half-width entries; None marks a
# velocity center, which is fixed at its default.
_REGION_KEYS = {
    "altitude_position": (("c_z_m",), ("p_z_m",)),
    "altitude_posvel": (("c_z_m", None), ("p_z_m", "v_z_mps")),
    "lateral_position": (("c_x_m", "c_y_m"), ("p_x_m", "p_y_m")),
    "lateral_velocity": ((None, None), ("v_x_mps", "v_y_mps")),
}
_TOP_KEYS = {"run", "initial", "reference", "filters", "gains", "params", "barriers"}


def _check_keys(table: dict, allowed: set | dict, where: str) -> None:
    if not isinstance(table, dict):
        raise ScenarioError(f"'{where}' must be a mapping")
    unknown = set(table).difference(allowed)
    if unknown:  # sorted by repr: YAML keys may mix types, as 1 and 'foo'
        raise ScenarioError(f"unknown key(s) in '{where}': {sorted(unknown, key=repr)}; "
                            f"allowed: {sorted(allowed)}")


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


def _section(data: dict, where: str, defaults: dict[str, Any]) -> list:
    """Section ``where`` of ``data``: one value per key of ``defaults``, in its
    order; a key's type is its default's, and a tuple is a 3-vector."""
    table = data.get(where, {})
    _check_keys(table, defaults, where)
    values = []
    for key, default in defaults.items():
        val = table.get(key, default)
        if isinstance(default, bool):
            if not isinstance(val, bool):
                raise ScenarioError(f"'{where}.{key}' must be a boolean")
        elif isinstance(default, tuple):
            if not (isinstance(val, (list, tuple)) and len(val) == 3
                    and all(map(_is_number, val))):
                raise ScenarioError(f"'{where}.{key}' must be a list of 3 numbers")
        elif not isinstance(default, str):
            val = _num(table, key, default, where)
        values.append(val)
    return values


def _build(where: str | None, cls: type, *args: Any) -> Any:
    """cls(*args), its ValueError re-raised as a ScenarioError at ``where``."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ScenarioError(f"'{where}': {exc}" if where else str(exc)) from None


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    _check_keys(data, _TOP_KEYS, "<top level>")
    sc = Scenario()  # each absent key takes its dataclass default

    duration, dt = _section(data, "run", {"duration_s": sc.duration, "dt_s": sc.dt})

    init = _section(data, "initial", dict.fromkeys((
        "x_m", "y_m", "z_m", "vx_mps", "vy_mps", "vz_mps",
        "phi_rad", "theta_rad", "psi_rad", "p_radps", "q_radps", "r_radps"), 0.0))
    initial_state = QuadState(r=init[0:3], R=R_of_euler(*init[6:9]), v=init[3:6], omega=init[9:12])

    ref = sc.reference
    *aw, yaw_mode, yaw_constant = _section(data, "reference", {
        **dict(zip(("a_x_m", "a_y_m", "a_z_m"), ref.amplitude)),
        **dict(zip(("w_x_radps", "w_y_radps", "w_z_radps"), ref.frequency)),
        "yaw_mode": ref.yaw_mode, "psi_const_rad": ref.yaw_constant,
    })
    reference = _build("reference.yaw_mode", ReferenceConfig,
                       aw[0:3], aw[3:6], yaw_mode, yaw_constant)

    high, low = _section(data, "filters", {"high": sc.filter_high, "low": sc.filter_low})

    g = sc.gains
    gains = _build("gains", ControllerGains, *_section(data, "gains", {
        "kp": g.Kp, "kd": g.Kd, "k_r": g.k_R, "k_psi": g.k_psi, "k_omega": g.k_omega}))

    p = sc.params
    *prm, tau_x, tau_y = _section(data, "params", {
        "g_mps2": p.g, "m_kg": p.m, "ix_kgm2": p.Ix, "iy_kgm2": p.Iy, "iz_kgm2": p.Iz,
        "f_max_n": p.f_max, "tau_max_x_nm": p.tau_max[0], "tau_max_y_nm": p.tau_max[1],
    })
    params = _build("params", QuadParams, *prm, (tau_x, tau_y))

    entries = data.get("barriers", [])
    if not isinstance(entries, list):
        raise ScenarioError("'barriers' must be a list of mappings")
    barriers = tuple(_barrier_from_dict(e, f"barriers[{i}]") for i, e in enumerate(entries))

    return _build(None, Scenario, duration, dt, initial_state, reference, barriers,
                  gains, params, high, low)


def _barrier_from_dict(entry: dict, where: str) -> BarrierSpec:
    if not isinstance(entry, dict) or "domain" not in entry:
        raise ScenarioError(f"'{where}' must be a mapping with a 'domain' key")
    domain_name = entry["domain"]
    if not isinstance(domain_name, str) or domain_name not in _REGION_KEYS:
        raise ScenarioError(
            f"'{where}.domain' must be one of {sorted(_REGION_KEYS)}, got {domain_name!r}"
        )
    center_keys, half_width_keys = _REGION_KEYS[domain_name]
    allowed = {"domain", "active_from_s", "poles", "alpha", *center_keys, *half_width_keys}
    _check_keys(entry, allowed - {None}, where)
    domain = BarrierDomain(domain_name)
    family = FAMILIES[domain]
    center = [d if key is None else _num(entry, key, d, where)
              for key, d in zip(center_keys, family.center)]
    half_width = [_num(entry, key, d, where)
                  for key, d in zip(half_width_keys, family.half_width)]

    if family.delta == 1:
        if "poles" in entry:
            raise ScenarioError(
                f"'{where}.poles' only applies to barriers of relative degree 2 or more; "
                "set 'alpha'"
            )
        alpha = _num(entry, "alpha", -family.poles[0], where)
        if alpha <= 0:
            raise ScenarioError(f"'{where}.alpha' must be positive")
        poles = (-alpha,)
    else:
        if "alpha" in entry:
            raise ScenarioError(f"'{where}.alpha' only applies to relative-degree-1 barriers")
        poles = entry.get("poles", family.poles)
        if not (isinstance(poles, (list, tuple)) and all(map(_is_number, poles))):
            raise ScenarioError(f"'{where}.poles' must be a list of {family.delta} numbers")

    active_from = _num(entry, "active_from_s", BarrierSpec.active_from, where)
    return _build(where, BarrierSpec, domain, center, half_width, poles, active_from)


class _UniqueKeyLoader(yaml.SafeLoader):
    """PyYAML's safe loader, except that a key repeated in one mapping is
    refused: PyYAML would keep its last value and drop the others. An
    exponent float without a dot or an exponent sign (1e-3, 1.0e3), which
    PyYAML (YAML 1.1) reads as a string, is a float, as in YAML 1.2 and JSON."""

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict:
        first_line: dict = {}
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":  # '<<' may override
                continue
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):  # the base loader refuses it
                continue
            line = key_node.start_mark.line + 1
            if key in first_line:
                raise ScenarioError(f"duplicate key {key!r} on line {line} "
                                    f"(first on line {first_line[key]})")
            first_line[key] = line
        return super().construct_mapping(node, deep)


# add_implicit_resolver copies SafeLoader's table first: yaml.safe_load is unchanged.
_UniqueKeyLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))

def load_scenario(source: str | io.TextIOBase) -> Scenario:
    """Parse a YAML scenario file (path or open stream); a key repeated in
    one mapping is refused."""
    try:
        with open(source, "rb") if isinstance(source, str) else nullcontext(source) as f:
            data = yaml.load(f, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:  # its message spans lines: one line here
        raise ScenarioError(f"not valid YAML: {' '.join(str(exc).split())}") from None
    if not isinstance(data, (dict, type(None))):
        raise ScenarioError("scenario file must contain a YAML mapping")
    return scenario_from_dict(data or {})


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
