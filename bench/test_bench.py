"""Self-tests of the benchmark: metric emission, output checks, diagnostics.

Run from the repository root:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402  (pins BLAS threads before numpy is imported)
import numpy as np  # noqa: E402
import workloads as w  # noqa: E402
from mcmc import bulk_ess, split_rhat  # noqa: E402


class TinyRuns(unittest.TestCase):
    """A tiny-size run of each workload emits every named metric and unit."""

    def test_every_metric_with_its_unit(self):
        for name in w.WORKLOADS:
            for trace, table in ((False, run.END_TO_END),
                                 (True, {k: v[0] for k, v in run.PER_LAYER.items()})):
                with self.subTest(workload=name, trace=trace):
                    result, facts = run.run_one(name, seed=7, seconds=0.0, trace=trace,
                                                tiny=True)
                    self.assertEqual(set(result), {"correct", "attempted", "failed",
                                                   "metrics"})
                    self.assertTrue(result["correct"], facts["problems"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, table)
                    for entry in result["metrics"].values():
                        self.assertTrue(np.isfinite(entry["value"]))
                    json.dumps(result, allow_nan=False)

    def test_benchmark_json_matches_tables(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([wl["name"] for wl in spec["workloads"]], list(w.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: v[0] for k, v in run.PER_LAYER.items()})


class HostScaling(unittest.TestCase):
    """Wall times are scaled by the reference over the bracketing probes."""

    def test_scaled_by_mean_of_bracketing_probes(self):
        with mock.patch.object(run, "host_probe", side_effect=[0.5, 0.3, 1.0]):
            host = run.HostScale(run.Tally())
            self.assertEqual(host.run("op", sum, [1, 2]), 3)
            host.run("op", sum, [])
        raw, scaled = host.raw["op"], host.scaled["op"]
        self.assertAlmostEqual(scaled[0], raw[0] * run.PROBE_REF_S / 0.4)
        self.assertAlmostEqual(scaled[1], raw[1] * run.PROBE_REF_S / 0.65)
        self.assertEqual(host.count("op"), 2)
        self.assertEqual(host.facts()["probe"]["n"], 3)


class OutputChecks(unittest.TestCase):
    """The output checks catch a corrupted result."""

    def test_flipped_action_index_fails_learner_check(self):
        spec = w.make_spec("ew-ball64-long", seed=3, tiny=True)
        setup = w.learner_setup(spec)
        idx, losses = w.records_arrays(w.learner_play(spec, setup))
        points = w.schedule_points(setup.schedule)
        self.assertEqual(w.check_trace(spec, points, losses, idx), [])
        flipped = idx.copy()
        flipped[17] = (flipped[17] + 1) % spec.actions.shape[0]
        self.assertTrue(w.check_trace(spec, points, losses, flipped))

    def test_out_of_ball_draw_fails_sampler_check(self):
        spec = w.make_spec("quad-sampler-d5", seed=3, tiny=True)
        chains = w.sampler_chains(spec, spec.chain_seeds(0))
        self.assertEqual(w.check_draws(chains), [])
        chains[1][5] = np.array([1.0, 0.1, 0.0, 0.0, 0.0])
        self.assertTrue(w.check_draws(chains))
        chains[1][5] = np.nan
        self.assertTrue(w.check_draws(chains))


class Diagnostics(unittest.TestCase):
    """The numpy-only ESS and R-hat estimators on chains with known answers."""

    def test_iid_normal(self):
        draws = np.random.default_rng(1).standard_normal((4, 2000))
        self.assertAlmostEqual(bulk_ess(draws) / draws.size, 1.0, delta=0.1)
        self.assertAlmostEqual(split_rhat(draws), 1.0, delta=0.01)

    def test_ar1(self):
        rng = np.random.default_rng(2)
        chains, n = 4, 10_000
        for rho in (0.5, 0.9):
            noise = rng.standard_normal((chains, n))
            x = np.empty_like(noise)
            x[:, 0] = noise[:, 0] / np.sqrt(1.0 - rho * rho)
            for t in range(1, n):
                x[:, t] = rho * x[:, t - 1] + noise[:, t]
            expected = chains * n * (1.0 - rho) / (1.0 + rho)
            with self.subTest(rho=rho):
                self.assertAlmostEqual(bulk_ess(x) / expected, 1.0, delta=0.15)
                self.assertAlmostEqual(split_rhat(x), 1.0, delta=0.02)


if __name__ == "__main__":
    unittest.main()
