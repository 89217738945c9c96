"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests     (or: python3 -m unittest discover perfbench/tests)

Run from the root of a checkout.  They check that the generators are
deterministic, that one mutated byte fails the output check, that the tracer
restores every name it patched, and that tracing leaves reports unchanged.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import horoscope  # noqa: E402,F401
import horoscope.cli  # noqa: E402,F401
import horoscope.graphs as graphs  # noqa: E402


def _pool(workload, seed, spec_dir):
    """The pool, spec texts included, with spec paths made relative."""
    rounds = workloads.generate(workload, seed, spec_dir)
    return json.loads(json.dumps(rounds).replace(spec_dir, "<specs>"))


def _horoscope_names():
    return {(n, attr): value for n, mod in list(sys.modules.items())
            if n == "horoscope" or n.startswith("horoscope.")
            for attr, value in vars(mod).items()}


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b:
                self.assertEqual(_pool(workload, 7, a), _pool(workload, 7, b),
                                 workload)

    def test_seeds_differ(self):
        for workload in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b:
                self.assertNotEqual(_pool(workload, 1, a),
                                    _pool(workload, 2, b), workload)

    def test_roadmap_rows_are_jobs(self):
        with tempfile.TemporaryDirectory() as d:
            names = {j["name"] for w in ("cayley-exact", "cayley-bfs")
                     for r in workloads.generate(w, 3, d) for j in r}
        for name in run.ROADMAP_JOBS:
            self.assertIn(name, names)


class CheckTests(unittest.TestCase):
    def test_mutated_byte_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            rounds = workloads.generate("cayley-exact", checks.DEFAULT_SEED,
                                        os.path.join(tmp, "specs"))
            pins = checks.load_pins("cayley-exact", rounds)
            job = rounds[0][0]
            rec = worker.CliRunner(tmp, pins).run(job, 0)
            with open(os.path.join(tmp, "report.json"), "rb") as fh:
                data = fh.read()
        self.assertTrue(rec["ok"], rec["reason"])
        pin = pins[0]
        self.assertIsNone(checks.check_report(job, 0, data, pin))
        for pos in (0, len(data) // 3, len(data) // 2, len(data) - 2):
            bad = bytearray(data)
            bad[pos] = ord("7") if bad[pos] != ord("7") else ord("8")
            self.assertIsNotNone(checks.check_report(job, 0, bytes(bad), pin))

    def test_stale_pins_are_refused(self):
        with tempfile.TemporaryDirectory() as tmp:
            rounds = workloads.generate("cayley-exact", 1,
                                        os.path.join(tmp, "specs"))
            with self.assertRaises(ValueError):
                checks.load_pins("cayley-exact", rounds)

    def test_invariants_catch_wrong_counts(self):
        with tempfile.TemporaryDirectory() as tmp:
            rounds = workloads.generate("cayley-exact", 5,
                                        os.path.join(tmp, "specs"))
            job = next(j for r in rounds for j in r
                       if j["name"] == "horo:lattice:radius8")
            rec = worker.CliRunner(tmp, []).run(job, 0)
            with open(os.path.join(tmp, "report.json")) as fh:
                rep = json.load(fh)
        self.assertTrue(rec["ok"], rec["reason"])
        row = rep["per_radius"][2]          # r = 3: frozen at 24 maps
        row["maps"].pop()
        row["count"] -= 1
        rep["counts"][2] -= 1
        bad = json.dumps(rep).encode()
        self.assertIn("frozen", checks.check_report(job, 0, bad))
        self.assertEqual(checks.check_report(job, 4, bad), "exit code 4")


class TracerTests(unittest.TestCase):
    def test_restores_every_name(self):
        before = _horoscope_names()
        neighbors = graphs.RootedGraph.neighbors
        import horoscope.cayley as cayley
        built_before = cayley.cayley_graph(cayley.GroupSpec("integers"))
        metric = built_before.exact_distance
        t = tracing.Tracer()
        t.install()
        try:
            import horoscope.cli as cli
            self.assertIsNot(cli.distance, before[("horoscope.graphs", "distance")])
            self.assertIs(cli.distance, graphs.distance)
            self.assertTrue(tracing.leftover_patches())
            t.count_exact(built_before)
            built_during = cayley.cayley_graph(cayley.GroupSpec("integers"))
            graphs.distance(built_before, 0, 5)
            graphs.distance(built_during, 0, 5)
            self.assertEqual(t.metrics()["graphs.exact_distance.calls"], 2)
        finally:
            t.uninstall()
        self.assertEqual(tracing.leftover_patches(), [])
        self.assertIs(graphs.RootedGraph.neighbors, neighbors)
        self.assertIs(built_before.exact_distance, metric)
        self.assertFalse(hasattr(built_during.exact_distance, "__wrapped__"))
        after = _horoscope_names()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_traced_reports_identical(self):
        for workload in ("cayley-exact", "cayley-bfs", "layered-cover"):
            with tempfile.TemporaryDirectory() as tmp:
                rounds = workloads.generate(workload, 11,
                                            os.path.join(tmp, "specs"))
                jobs = sorted(rounds[0], key=lambda j: j["name"])
                jobs = [j for j in jobs if "lattice" not in j["name"]
                        and j["check"]["cmd"] != "reroot"][:6]
                runner = worker.CliRunner(tmp, [])
                plain = [runner.run(j, i) for i, j in enumerate(jobs)]
                t = tracing.Tracer()
                t.install()
                try:
                    traced = [runner.run(j, i) for i, j in enumerate(jobs)]
                finally:
                    t.uninstall()
            for a, b in zip(plain, traced):
                self.assertTrue(a["ok"], a["reason"])
                self.assertEqual(a["sha256"], b["sha256"], a["name"])
            self.assertEqual(t.metrics()["cli.main.calls"], len(jobs))
            self.assertGreater(t.metrics()["cli.report_bytes"], 0)


class ContractTests(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [name for name, _ in run.END_TO_END])
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         dict(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_tail(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        times = [float(i) for i in range(100)]
        self.assertEqual(run.tail(times), (89.0, 90.0))


if __name__ == "__main__":
    unittest.main()
