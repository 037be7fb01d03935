"""Scenario file parsing: schema validation and built-in presets."""

import ast
import dataclasses
import io
import json
import re

import numpy as np
import pytest
import yaml

from quadsafe.barriers import FAMILIES, BarrierDomain
from quadsafe.config import (
    PRESETS,
    ScenarioError,
    load_preset,
    load_scenario,
    scenario_from_dict,
)
from quadsafe.oracle import default_spec
from quadsafe.sim import Scenario

MINIMAL = """
run: {duration_s: 1.0, dt_s: 0.001}
"""


def parse(text):
    return load_scenario(io.StringIO(text))


class TestSchema:
    def test_minimal_scenario_uses_defaults(self):
        sc = parse(MINIMAL)
        assert sc.duration == 1.0
        assert sc.dt == 1e-3
        assert sc.params.m == 0.45
        assert np.allclose(sc.reference.amplitude, [2.5, 2.5, 2.5])
        assert sc.filter_high and sc.filter_low

    def test_empty_file_is_all_defaults(self):
        sc = parse("")
        assert sc.duration == 40.0

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse(MINIMAL + "typo_section: {}\n")

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ScenarioError, match="run"):
            parse("run: {duration_s: 1.0, dt: 0.001}\n")  # missing unit suffix

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError):
            parse("- a\n- b\n")

    def test_initial_state_fields(self):
        sc = parse(MINIMAL + "initial: {z_m: 0.5, vx_mps: 1.6, vz_mps: 1.2}\n")
        assert sc.initial_state.r[2] == 0.5
        assert sc.initial_state.v[0] == 1.6
        assert sc.initial_state.v[2] == 1.2

    def test_bad_number_type(self):
        with pytest.raises(ScenarioError, match="must be a number"):
            parse("run: {duration_s: fast}\n")

    def test_negative_duration(self):
        with pytest.raises(ScenarioError):
            parse("run: {duration_s: -3.0}\n")

    def test_filter_flags_must_be_bool(self):
        with pytest.raises(ScenarioError, match="boolean"):
            parse("filters: {high: 1}\n")

    @pytest.mark.parametrize("text, key", [
        ("run: {duration_s: %s}", "run.duration_s"),
        ("gains: {kp: [%s, 8.0, 12.0]}", "gains.kp"),
        ("barriers:\n  - {domain: altitude_position, poles: [-3.0, -%s]}", "barriers[0].poles"),
    ], ids=["duration", "kp", "poles"])
    def test_int_beyond_largest_float_is_not_a_number(self, text, key):
        # math.isfinite raises OverflowError on such an int.
        with pytest.raises(ScenarioError, match=re.escape(key)):
            parse(text % ("9" * 400) + "\n")

    def test_bad_infeasible_policy(self):
        # The key is gone: the infeasible fallback is always least-infeasible.
        for value in ("explode", "least_infeasible"):
            with pytest.raises(ScenarioError, match=r"unknown key.*'infeasible_policy'"):
                parse(f"filters: {{infeasible_policy: {value}}}\n")

    def test_bad_yaw_mode_names_the_key(self):
        with pytest.raises(ScenarioError, match=re.escape("'reference.yaw_mode'")):
            parse("reference: {yaw_mode: spin}\n")

    @pytest.mark.parametrize("text, message", [
        ("gains: {k_r: 0.0}", "'gains': k_R must be > 0, got 0.0"),
        ("gains: {kd: [1, -2, 3]}", "'gains': Kd must be >= 0, got [1.0, -2.0, 3.0]"),
    ], ids=["k_r", "kd"])
    def test_gain_message_names_the_gain_and_its_rule(self, text, message):
        # Kp, Kd >= 0 and k_R, k_psi, k_omega > 0.
        with pytest.raises(ScenarioError) as info:
            parse(text + "\n")
        assert str(info.value) == message

    @pytest.mark.parametrize("text, value", [
        ("run: {dt_s: 1e-3}", lambda sc: sc.dt == 1e-3),
        ("run: {duration_s: 4000.0, dt_s: 1.0e3}", lambda sc: sc.dt == 1e3),
        ("run: {duration_s: 1000.0, dt_s: .5e3}", lambda sc: sc.dt == 500.0),
        ("gains: {kp: [1e0, 1.0, 1.0]}", lambda sc: sc.gains.Kp.tolist() == [1.0, 1.0, 1.0]),
        ("barriers:\n  - {domain: altitude_position, poles: [-3e0, -4e0]}",
         lambda sc: list(sc.barriers[0].poles) == [-3.0, -4.0]),
        (json.dumps({"run": {"dt_s": 1e-05, "duration_s": 0.01}}), lambda sc: sc.dt == 1e-05),
    ], ids=["no-dot", "unsigned-exponent", "leading-dot", "kp", "poles", "json"])
    def test_exponent_floats_read_as_in_yaml_1_2_and_json(self, text, value):
        # YAML 1.1, and so PyYAML, reads these as strings; JSON and YAML 1.2
        # read them as numbers, and so does the scenario loader.
        assert value(parse(text + "\n"))

    def test_quoted_exponent_float_is_refused(self):
        with pytest.raises(ScenarioError) as info:
            parse("run: {dt_s: '1e-3'}\n")
        assert str(info.value) == "'run.dt_s' must be a number (finite), got '1e-3'"

    def test_safe_load_still_reads_yaml_1_1(self):
        # The float resolver is the scenario loader's own.
        assert yaml.safe_load("a: 1e-3") == {"a": "1e-3"}

    @pytest.mark.parametrize("text, message", [
        ("barriers:\n  - {domain: altitude_position}\nrun: {duration_s: 1.0}\n"
         "barriers:\n  - {domain: lateral_position}\n",
         "duplicate key 'barriers' on line 4 (first on line 1)"),
        ("barriers:\n  - {domain: altitude_position, p_z_m: 2.0, p_z_m: 0.1}\n",
         "duplicate key 'p_z_m' on line 2 (first on line 2)"),
    ], ids=["barriers", "p_z_m"])
    def test_duplicate_key_refused(self, text, message):
        # PyYAML keeps a repeated key's last value: the first would be lost.
        with pytest.raises(ScenarioError) as info:
            parse(text)
        assert str(info.value) == message
        # Only the scenario loader refuses them; PyYAML's own is unpatched.
        assert yaml.safe_load("{a: 1, a: 2}") == {"a": 2}

    def test_merge_key_may_override(self):
        # A key that overrides one merged in by '<<' is not a repeat.
        sc = parse("run: {<<: {duration_s: 2.0, dt_s: 0.002}, duration_s: 1.0}\n")
        assert (sc.duration, sc.dt) == (1.0, 0.002)


class TestBarrierEntries:
    def test_lateral_velocity_barrier(self):
        sc = parse(MINIMAL + (
            "barriers:\n"
            "  - {domain: lateral_velocity, v_x_mps: 1.25, v_y_mps: 0.9}\n"
        ))
        spec = sc.barriers[0]
        assert spec.domain is BarrierDomain.LATERAL_VELOCITY
        assert np.allclose(spec.half_width, [1.25, 0.9])
        assert spec.poles == (-3.0, -4.0, -5.0)  # default poles applied

    def test_domain_required(self):
        with pytest.raises(ScenarioError, match="domain"):
            parse(MINIMAL + "barriers:\n  - {p_z_m: 2.0}\n")

    def test_unknown_domain(self):
        with pytest.raises(ScenarioError, match="domain"):
            parse(MINIMAL + "barriers:\n  - {domain: attitude}\n")

    def test_cross_domain_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse(MINIMAL + (
                "barriers:\n"
                "  - {domain: altitude_position, p_z_m: 2.0, v_x_mps: 1.0}\n"
            ))

    def test_alpha_only_for_degree_one(self):
        with pytest.raises(ScenarioError, match="alpha"):
            parse(MINIMAL + (
                "barriers:\n"
                "  - {domain: altitude_position, p_z_m: 2.0, alpha: 1.0}\n"
            ))

    def test_alpha_sets_class_kappa_slope(self):
        sc = parse(MINIMAL + (
            "barriers:\n"
            "  - {domain: altitude_posvel, p_z_m: 2.0, v_z_mps: 0.75, alpha: 2.5}\n"
        ))
        assert sc.barriers[0].K[0] == pytest.approx(2.5)

    def test_poles_refused_on_degree_one(self):
        # alpha sets the one pole of altitude_posvel; poles would be ignored.
        with pytest.raises(ScenarioError, match=r"barriers\[0\]\.poles'.*'alpha'"):
            parse(MINIMAL + (
                "barriers:\n"
                "  - {domain: altitude_posvel, poles: [5.0, 7.0, \"x\"]}\n"
            ))

    def test_pole_count_checked(self):
        with pytest.raises(ScenarioError):
            parse(MINIMAL + (
                "barriers:\n"
                "  - {domain: altitude_position, p_z_m: 2.0, poles: [-1.0]}\n"
            ))

    def test_scheduled_activation(self):
        sc = parse(MINIMAL + (
            "barriers:\n"
            "  - {domain: lateral_velocity, v_x_mps: 4.0, v_y_mps: 2.0}\n"
            "  - {domain: lateral_velocity, v_x_mps: 1.25, v_y_mps: 0.9,"
            " active_from_s: 20.0}\n"
        ))
        assert sc.barriers[1].active_from == 20.0

    @pytest.mark.parametrize("domain", list(BarrierDomain))
    def test_domain_alone_is_the_oracle_default(self, domain):
        # config and the oracle read one table of per-family defaults.
        (spec,) = parse(MINIMAL + f"barriers:\n  - {{domain: {domain.value}}}\n").barriers
        want = default_spec(domain)
        assert spec.domain is want.domain
        assert spec.center.tolist() == want.center.tolist()
        assert spec.half_width.tolist() == want.half_width.tolist()
        assert spec.poles == want.poles
        assert spec.K.tolist() == want.K.tolist()


class TestPresets:
    def test_all_presets_parse(self):
        for name in PRESETS:
            sc = load_preset(name)
            assert sc.duration > 0

    def test_expected_preset_names(self):
        assert set(PRESETS) == {
            "fig4-altitude", "fig5-lateral-pos", "fig6-velocity-switch",
            "fig7-unified", "stress-infeasible",
        }

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            load_preset("nope")

    def test_altitude_preset_filters(self):
        sc = load_preset("fig4-altitude")
        assert sc.filter_high and not sc.filter_low
        domains = {spec.domain for spec in sc.barriers}
        assert domains == {BarrierDomain.ALTITUDE_POSITION,
                           BarrierDomain.ALTITUDE_POSVEL}

    def test_velocity_switch_schedule(self):
        sc = load_preset("fig6-velocity-switch")
        starts = sorted(spec.active_from for spec in sc.barriers)
        assert starts == [0.0, 20.0]

    def test_unified_preset_has_all_domains(self):
        sc = load_preset("fig7-unified")
        assert {spec.domain for spec in sc.barriers} == set(BarrierDomain)


def test_scenario_from_dict_direct():
    sc = scenario_from_dict({"run": {"duration_s": 2.0}})
    assert sc.duration == 2.0


def test_empty_dict_is_the_dataclass_defaults():
    # config keeps no default of its own: an empty file is Scenario().
    got, want = scenario_from_dict({}), Scenario()
    for f in dataclasses.fields(Scenario):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if dataclasses.is_dataclass(a):
            for g in dataclasses.fields(a):
                assert np.array_equal(getattr(a, g.name), getattr(b, g.name)), (f.name, g.name)
        else:
            assert a == b, f.name


def same(a, b):
    """Field by field, through nested dataclasses and tuples of them."""
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, tuple) and a and dataclasses.is_dataclass(a[0]):
        return len(a) == len(b) and all(map(same, a, b))
    return np.array_equal(a, b)


def allowed_keys(data):
    """The allowed keys that the unknown-key message for ``data`` lists."""
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    return ast.literal_eval(re.search(r"allowed: (\[.*\])$", str(info.value)).group(1))


SECTIONS = ("run", "initial", "reference", "filters", "gains", "params")
# Per section key, one valid value that differs from its default.
CHANGED = {
    "run": {"duration_s": 2.0, "dt_s": 0.002},
    "initial": dict.fromkeys(allowed_keys({"initial": {"?": 0}}), 0.1),
    "reference": {"a_x_m": 1.0, "a_y_m": 1.0, "a_z_m": 1.0, "w_x_radps": 0.1,
                  "w_y_radps": 0.1, "w_z_radps": 0.1, "yaw_mode": "constant",
                  "psi_const_rad": 0.5},
    "filters": {"high": False, "low": False},
    "gains": {"kp": [1.0, 2.0, 3.0], "kd": [1.0, 2.0, 3.0], "k_r": 3.0, "k_psi": 3.0,
              "k_omega": [1.0, 2.0, 3.0]},
    "params": {"g_mps2": 9.0, "m_kg": 0.5, "ix_kgm2": 0.1, "iy_kgm2": 0.1,
               "iz_kgm2": 0.1, "f_max_n": 30.0, "tau_max_x_nm": 10.0, "tau_max_y_nm": 10.0},
}
SECTION_KEYS = [(sec, key) for sec in SECTIONS for key in allowed_keys({sec: {"?": 0}})]
FAMILY_KEYS = [
    (domain, key) for domain in BarrierDomain
    for key in allowed_keys({"barriers": [{"domain": domain.value, "?": 0}]})
]


def with_key(where, key, value):
    """A scenario that sets ``key`` of a section, or of a domain's barrier, to ``value``."""
    if where in SECTIONS:
        return {where: {key: value}}
    return {"barriers": [{"domain": value} if key == "domain" else {"domain": where, key: value}]}


@pytest.mark.parametrize("where, key", SECTION_KEYS + [(d.value, k) for d, k in FAMILY_KEYS],
                         ids=lambda v: v)
def test_wrong_type_names_its_location_once(where, key):
    loc = where if where in SECTIONS else "barriers[0]"
    for wrong in ("fast", {"x": 1}):
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(with_key(where, key, wrong))
        msg = str(info.value)
        assert msg.startswith(f"'{loc}.{key}'"), msg
        assert msg.count(f"'{loc}") == 1, msg


@pytest.mark.parametrize("sec, key", SECTION_KEYS, ids=lambda v: v)
def test_no_section_key_is_dead(sec, key):
    assert not same(scenario_from_dict(with_key(sec, key, CHANGED[sec][key])),
                    scenario_from_dict({}))


@pytest.mark.parametrize("domain, key", [
    (d, k) for d, k in FAMILY_KEYS
    # domain picks the family; the key a family refuses has its own test.
    if k not in ("domain", "poles" if FAMILIES[d].delta == 1 else "alpha")
], ids=lambda v: getattr(v, "value", v))
def test_no_barrier_key_is_dead(domain, key):
    poles = [-1.5 - i for i in range(FAMILIES[domain].delta)]
    value = {"poles": poles, "alpha": 2.0}.get(key, 0.5)
    (base,) = scenario_from_dict({"barriers": [{"domain": domain.value}]}).barriers
    (got,) = scenario_from_dict(with_key(domain.value, key, value)).barriers
    assert not same(got, base)
