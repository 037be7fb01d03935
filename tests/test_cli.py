"""Command-line interface: subcommands, exit codes, and trace export."""

import copy
import csv
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
import yaml

import quadsafe
from quadsafe.cli import TRACE_HEADER, main

TINY_SCENARIO = """\
run: {duration_s: 0.2, dt_s: 0.001}
filters: {high: true, low: false}
barriers:
  - {domain: altitude_position, c_z_m: 0.0, p_z_m: 2.0}
"""


@pytest.fixture
def tiny_file(tmp_path):
    p = tmp_path / "tiny.yaml"
    p.write_text(TINY_SCENARIO)
    return str(p)


class TestSubcommands:
    def test_presets_lists_names(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4-altitude", "fig5-lateral-pos", "fig6-velocity-switch",
                     "fig7-unified", "stress-infeasible"):
            assert name in out

    def test_check_valid_file(self, tiny_file, capsys):
        assert main(["check", tiny_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_preset_syntax(self):
        assert main(["check", "presets:fig4-altitude"]) == 0

    def test_check_unknown_preset(self, capsys):
        assert main(["check", "presets:nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/does/not/exist.yaml"]) == 1

    def test_invalid_scenario_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("run: {duration_s: -5.0}\n")
        assert main(["run", str(bad)]) == 1

    def test_oracle_subcommand(self, capsys):
        assert main(["oracle", "--states", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_oracle_rejects_no_states(self, capsys):
        # Checking no state at all must not report PASS.
        assert main(["oracle", "--states", "0"]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("section,key", [
        ("barriers", "exponent"), ("params", "l_m"), ("params", "k_f"), ("params", "k_w"),
    ])
    def test_check_rejects_removed_keys(self, tmp_path, capsys, section, key):
        # Keys the model never used: check must refuse them, so that run
        # never meets them.
        text = TINY_SCENARIO
        if section == "params":
            text += f"params: {{{key}: 6}}\n"
        else:
            text = text.replace("p_z_m: 2.0}", f"p_z_m: 2.0, {key}: 6}}")
        path = tmp_path / "removed.yaml"
        path.write_text(text)
        assert main(["check", str(path)]) == 1
        assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("text,extra", [
    ("run: {duration_s: 0.0004, dt_s: 0.001}\n", []),          # rounds to zero steps
    ("presets:stress-infeasible", ["--dt", "100"]),            # zero steps after --dt
    (TINY_SCENARIO.replace("p_z_m: 2.0}", "p_z_m: 2.0, poles: 3}"), []),
    (TINY_SCENARIO.replace("p_z_m: 2.0}", "p_z_m: 2.0, poles: [a, b]}"), []),
    ("run: {duration_s: [1\n", []),                             # malformed YAML
    ("run: {duration_s: .inf}\n", []),
    ("barriers:\n  - {domain: [1]}\n", []),
    ("gains: {kp: [[1], 2, 3]}\n", []),
    (b"run: {duration_s: \xc3\x28}\n", []),                       # not UTF-8
    (TINY_SCENARIO.replace("p_z_m: 2.0}", "p_z_m: 1.0e-90}"), []),  # p_z^4 underflows to 0
    ("run: {duration_s: 1.0e+12, dt_s: 0.001}\n", []),         # no memory for the trace
    ("run: {duration_s: 1.0e+300, dt_s: 0.001}\n", []),        # trace size overflows
], ids=["zero-steps", "dt-override-zero-steps", "scalar-poles", "string-poles",
        "malformed-yaml", "infinite-duration", "list-domain", "nested-gain", "invalid-utf8",
        "underflowing-half-width", "too-long-run", "too-long-run-overflow"])
def test_bad_input_exits_1_without_traceback(tmp_path, capsys, text, extra):
    scenario = text
    if isinstance(text, bytes) or not text.startswith("presets:"):
        scenario = str(tmp_path / "bad.yaml")
        data = text if isinstance(text, bytes) else text.encode()
        (tmp_path / "bad.yaml").write_bytes(data)
    assert main(["run", scenario, "--out", str(tmp_path / "out"), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


ALTITUDE_PAIR = {
    "run": {"duration_s": 0.01, "dt_s": 0.001},
    "filters": {"high": True, "low": False},
    "initial": {},
    "barriers": [{"domain": "altitude_position", "c_z_m": 0.0, "p_z_m": 2.0},
                 {"domain": "altitude_posvel", "c_z_m": 0.0, "p_z_m": 2.0, "v_z_mps": 0.75}],
}


@pytest.mark.parametrize("where, key, check_code", [
    (0, "c_z_m", 0), (1, "c_z_m", 0),                  # the offset z - c overflows
    (0, "p_z_m", 1), (1, "p_z_m", 1), (1, "v_z_mps", 1),  # the half-width's fourth power does
    ("initial", "z_m", 0), ("initial", "vz_mps", 0),   # the state's powers do
    # A lateral barrier alone: h, or only the rows, overflow.
    ("lateral_position", "x_m", 0), ("lateral_position", "vx_mps", 0),
    ("lateral_velocity", "vx_mps", 0),
])
def test_overflow_exits_typed(tmp_path, capsys, where, key, check_code):
    # Python's float ** raises OverflowError where numpy's gives inf: a
    # half-width that overflows is refused by check, an overflow the state
    # drives stops the run as a non-finite state, at either level, with one
    # error line and no numpy warning.
    if where in ("lateral_position", "lateral_velocity"):
        data = {"run": ALTITUDE_PAIR["run"], "initial": {key: 1.0e80},
                "barriers": [{"domain": where}]}
    else:
        data = copy.deepcopy(ALTITUDE_PAIR)
        (data["initial"] if where == "initial" else data["barriers"][where])[key] = 1.0e80
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["check", str(path)]) == check_code
    capsys.readouterr()
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == (2 if check_code == 0 else 1)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert ("non-finite state" if code == 2 else "fourth power overflows") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("1: 2\nfoo: 3\n", "unknown key(s) in '<top level>': ['foo', 1]"),
    ("run: {1: 2, foo: 3}\n", "unknown key(s) in 'run': ['foo', 1]"),
    ("barriers:\n  - {domain: altitude_position, 1: 2, foo: 3}\n",
     "unknown key(s) in 'barriers[0]': ['foo', 1]"),
], ids=["top", "section", "barrier"])
def test_check_refuses_mixed_type_keys(tmp_path, capsys, text, message):
    # Unknown keys of mixed types, an int and a string, cannot be sorted as
    # they are: the message sorts them by repr, in one typed line.
    path = tmp_path / "keys.yaml"
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {message}"), err


@pytest.mark.parametrize("text", ["? [1, 2]\n: 3\n", "run: [1, 2\n"],
                         ids=["unhashable-key", "unclosed-bracket"])
def test_yaml_parse_error_is_one_line(tmp_path, capsys, text):
    # PyYAML's message spans several lines; check prints it on one.
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: not valid YAML: "), err


@pytest.mark.parametrize("argv", [
    ["run"], ["oracle", "--states", "abc"], ["check", "presets:fig4-altitude", "--bogus"],
], ids=["run-without-scenario", "non-integer-states", "unknown-flag"])
def test_usage_error_exits_1_with_usage(capsys, argv):
    # README's exit-code table: a bad option is 1; 2 is the non-finite abort.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: quadsafe")
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["--bogus", "presets"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
], ids=["unknown-flag-alone", "unknown-flag-before-command", "no-command"])
def test_top_level_usage_error_names_the_problem(capsys, argv, message):
    # An unknown flag is named even when no command follows; no command at
    # all is still reported as a missing command.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: quadsafe")
    assert f"quadsafe: error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["oracle", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quadsafe")


class TestRunExport:
    def test_run_writes_trace_files(self, tiny_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", tiny_file, "--out", out]) == 0
        for fname in ("trace.csv", "events.csv", "summary.txt"):
            assert os.path.exists(os.path.join(out, fname))

    def test_trace_csv_layout(self, tiny_file, tmp_path):
        out = str(tmp_path / "out")
        main(["run", tiny_file, "--out", out])
        with open(os.path.join(out, "trace.csv")) as f:
            reader = csv.reader(f)
            header = next(reader)
            assert header == TRACE_HEADER.split(",")
            rows = list(reader)
        assert len(rows) == 200
        first = rows[0]
        assert float(first[0]) == 0.0
        # Altitude barrier column populated, lateral columns empty.
        cols = dict(zip(header, first))
        assert cols["h_alt"] != ""
        assert cols["h_latpos"] == ""
        assert cols["qp_hi_status"] == "optimal"
        # Every numeric field round-trips as a finite float.
        for name in header[:24]:
            if cols[name] != "":
                assert np.isfinite(float(cols[name]))

    def test_summary_reports_barrier_minimum(self, tiny_file, tmp_path):
        out = str(tmp_path / "out")
        main(["run", tiny_file, "--out", out])
        text = open(os.path.join(out, "summary.txt")).read()
        assert "barrier altitude_position" in text
        assert "min_h=" in text
        assert "infeasible_steps:" in text

    def test_dt_override(self, tiny_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", tiny_file, "--out", out, "--dt", "0.002"]) == 0
        n = sum(1 for _ in open(os.path.join(out, "trace.csv"))) - 1
        assert n == 100

    def test_bad_dt_rejected(self, tiny_file, tmp_path, capsys):
        assert main(["run", tiny_file, "--out", str(tmp_path), "--dt", "-1"]) == 1

    def test_exported_files_follow_umask(self, tiny_file, tmp_path):
        out = str(tmp_path / "out")
        umask = 0o022
        old = os.umask(umask)
        try:
            assert main(["run", tiny_file, "--out", out]) == 0
        finally:
            os.umask(old)
        for fname in ("trace.csv", "events.csv", "summary.txt"):
            mode = stat.S_IMODE(os.stat(os.path.join(out, fname)).st_mode)
            assert mode == 0o666 & ~umask, (fname, oct(mode))

    def test_events_csv_has_header(self, tiny_file, tmp_path):
        out = str(tmp_path / "out")
        main(["run", tiny_file, "--out", out])
        lines = open(os.path.join(out, "events.csv")).read().splitlines()
        assert lines[0] == "t,event_type,detail"


def test_runs_without_scipy(tmp_path):
    # The package needs numpy and PyYAML only; scipy serves the tests' oracles.
    # A None entry in sys.modules makes every import of scipy fail.
    code = ("import sys; sys.modules['scipy'] = None; from quadsafe.cli import main; "
            "sys.exit(main(['run', 'presets:stress-infeasible', '--out', sys.argv[1]]))")
    src = os.path.dirname(os.path.dirname(quadsafe.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out / "events.csv") as f:
        assert any(ev["event_type"] == "infeasible" for ev in csv.DictReader(f))


def test_oracle_runs_without_numpy_random():
    # The oracle draws its states from a Kronecker sequence: numpy.random,
    # whose import loads OpenSSL among a dozen modules, must never be imported.
    code = ("import sys; sys.modules['numpy.random'] = None; from quadsafe.cli import main; "
            "sys.exit(main(['oracle', '--states', '5']))")
    src = os.path.dirname(os.path.dirname(quadsafe.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("oracle: PASS\n"), proc.stdout


def test_only_the_oracle_command_loads_the_oracle(tiny_file, tmp_path):
    # quadsafe run never imports quadsafe.oracle; quadsafe oracle still does
    # and still passes.
    code = ("import sys; from quadsafe.cli import main; "
            "assert 'quadsafe.oracle' not in sys.modules; "
            "assert main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0; "
            "assert 'quadsafe.oracle' not in sys.modules; "
            "assert main(['oracle', '--states', '5']) == 0; "
            "assert 'quadsafe.oracle' in sys.modules")
    src = os.path.dirname(os.path.dirname(quadsafe.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", code, tiny_file, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("wrote 200 steps to "), proc.stdout
    assert proc.stdout.endswith("oracle: PASS\n"), proc.stdout


def test_readme_minimal_scenario_passes_check(tmp_path, capsys):
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    block = readme.split("A minimal scenario file:", 1)[1].split("```yaml\n", 1)[1]
    path = tmp_path / "minimal.yaml"
    path.write_text(block.split("```", 1)[0])
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"
