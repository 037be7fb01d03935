"""Self-test of the benchmark, on tiny horizons.

    python3 perfbench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, that the output checks fire on corrupted outputs, that seed 0
reproduces the program's presets, that a missing trace target is reported
rather than fatal, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import yaml  # noqa: E402

import quadsafe.cli  # noqa: E402
from quadsafe.config import PRESETS  # noqa: E402

from checks import check_oracle, check_sim  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, scenario  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


def scratch_dir() -> str:
    base = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=base)


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


class SmokeRun(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for w in BENCHMARK["workloads"]:
            for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = bench(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared})

    def test_traced_counts_follow_the_workload(self):
        proc = bench("altitude", 1)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        self.assertEqual(metrics["qp.solve_2d.calls"]["value"], 0)
        self.assertEqual(metrics["qp.least_infeasible.calls"]["value"], 0)
        self.assertEqual(metrics["dynamics.euler_of_R.calls_per_step"]["value"], 2.0)
        self.assertEqual(metrics["trace.missing_targets"]["value"], 0)

    def test_refuses_to_run_without_the_program(self):
        bare = scratch_dir()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in BENCHMARK["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("altitude", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class OutputChecks(unittest.TestCase):
    """The checks pass on real outputs and fire on corrupted copies."""

    @classmethod
    def setUpClass(cls):
        cls.dirs = {}
        for name in ("altitude", "infeasible"):
            w = WORKLOADS[name]
            d = scratch_dir()
            path = os.path.join(d, "scenario.yaml")
            with open(path, "w") as f:
                json.dump(scenario(w, 0, w.smoke_size), f)
            with redirect_stdout(io.StringIO()):
                code = quadsafe.cli.main(["run", path, "--out", os.path.join(d, "out")])
            assert code == 0
            cls.dirs[name] = d

    @classmethod
    def tearDownClass(cls):
        for d in cls.dirs.values():
            shutil.rmtree(d)

    def corrupted(self, workload: str, edit) -> list[str]:
        """Errors of check_sim after edit(rows, events) changes a copy of the outputs."""
        src = os.path.join(self.dirs[workload], "out")
        dst = os.path.join(self.dirs[workload], "corrupt")
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst)
        tables = {}
        for name in ("trace.csv", "events.csv"):
            with open(os.path.join(dst, name), newline="") as f:
                tables[name] = list(csv.reader(f))
        edit(tables["trace.csv"], tables["events.csv"])
        for name, rows in tables.items():
            with open(os.path.join(dst, name), "w", newline="") as f:
                csv.writer(f).writerows(rows)
        errors, _ = check_sim(workload, dst, WORKLOADS[workload].smoke_size)
        return errors

    @staticmethod
    def set_cell(rows, row, column, value):
        rows[row][rows[0].index(column)] = value

    def test_intact_outputs_pass(self):
        for name in self.dirs:
            self.assertEqual(self.corrupted(name, lambda rows, events: None), [])

    def test_checks_fire(self):
        cases = {
            "rows": lambda rows, ev: rows.pop(),
            "not finite": lambda rows, ev: self.set_cell(rows, 5, "vz", "nan"),
            "outside [0": lambda rows, ev: self.set_cell(rows, 7, "F_star", "40.0"),
            "|M*|": lambda rows, ev: self.set_cell(rows, 7, "Mx_star", "-20.5"),
            "min h after entry": lambda rows, ev: self.set_cell(rows, 9, "h_alt", "-0.5"),
            "or missing": lambda rows, ev: self.set_cell(rows, 4, "My_star", ""),
            "lo-level QP ran":
                lambda rows, ev: self.set_cell(rows, 3, "qp_lo_status", "optimal"),
        }
        for needle, edit in cases.items():
            with self.subTest(needle):
                errors = self.corrupted("altitude", edit)
                self.assertTrue(any(needle in e for e in errors), errors)

    def test_infeasible_needs_infeasible_events(self):
        def drop_events(rows, events):
            del events[1:]
        errors = self.corrupted("infeasible", drop_events)
        self.assertIn("no infeasible events", errors)

    def test_oracle_limits(self):
        good = [{"domain": d, "max_rel_lower": 1e-6, "max_rel_top": 1e-5}
                for d in ("a", "b", "c", "d")]
        self.assertEqual(check_oracle(good)[0], [])
        bad = [dict(good[0], max_rel_top=2e-3), *good[1:]]
        self.assertEqual(len(check_oracle(bad)[0]), 1)
        self.assertTrue(check_oracle(good[:3])[0])


class Recipes(unittest.TestCase):
    def test_seed_zero_is_the_preset(self):
        for w in WORKLOADS.values():
            if w.preset is None:
                continue
            with self.subTest(w.name):
                preset = yaml.safe_load(PRESETS[w.preset])
                preset["run"]["duration_s"] = w.size * preset["run"]["dt_s"]
                self.assertEqual(scenario(w, 0, w.size), preset)

    def test_seed_gives_the_same_inputs(self):
        for w in WORKLOADS.values():
            if w.preset is not None:
                self.assertEqual(scenario(w, 7, 10), scenario(w, 7, 10))
                self.assertNotEqual(scenario(w, 7, 10), scenario(w, 8, 10))


class Tracing(unittest.TestCase):
    def test_missing_target_is_reported(self):
        import spans
        saved = spans.TARGETS
        spans.TARGETS = (("quadsafe.sim", "no_such_function", "x"),
                         ("quadsafe.no_such_module", "f", "y"))
        try:
            tracer = Tracer()
            tracer.install()
        finally:
            spans.TARGETS = saved
        self.assertEqual(tracer.missing,
                         ["quadsafe.sim.no_such_function", "quadsafe.no_such_module.f"])

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        inner = tracer.wrap(lambda: sum(range(10000)), "inner")
        outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
        outer()
        s = tracer.as_dict()
        self.assertEqual(s["calls"], {"inner": 3, "outer": 1})
        self.assertEqual(s["self_ns"]["outer"] + s["total_ns"]["inner"], s["total_ns"]["outer"])
        self.assertEqual(s["top_level_ns"], s["total_ns"]["outer"])


if __name__ == "__main__":
    unittest.main()
