"""Scenario file parsing: schema validation and built-in presets."""

import dataclasses
import io
import re

import numpy as np
import pytest

from quadsafe.barriers import BarrierDomain
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
