"""The benchmark's own tests.

    python3 -m unittest discover -s benchsuite/tests -v     (from the repo root)

Builds the benchmark like run.py does (into $CARGO_TARGET_DIR or
.bench_build), then checks that every workload prints every declared
metric with its unit, in both the untraced and the traced run, and that
the deterministic counts of a seed (modeled launches, comm bytes, MG
V-cycles, CopierCache misses, checkpoints, final stateCrc, and
modeled_step_ms) repeat exactly across two runs. Takes a few minutes.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen_inputs  # noqa: E402


def run(workload, seed, trace, seconds=1):
    r = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{r.stdout}\n{r.stderr}")
    lines = r.stdout.strip().splitlines()
    counts = next(json.loads(l[len("counts: "):]) for l in lines if l.startswith("counts: "))
    return json.loads(lines[-1]), counts


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class InputGenerator(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for w in gen_inputs.WORKLOADS:
            self.assertEqual(gen_inputs.generate(w, 7), gen_inputs.generate(w, 7))
            self.assertNotEqual(gen_inputs.generate(w, 7), gen_inputs.generate(w, 8))

    def test_workloads_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        self.assertEqual(sorted(names), sorted(gen_inputs.WORKLOADS))


class Metrics(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = declared(kind)
            for w in gen_inputs.WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    res, _ = run(w, 3, trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    self.assertEqual(set(res["metrics"]), set(want))
                    for name, unit in want.items():
                        self.assertEqual(res["metrics"][name]["unit"], unit, name)
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0.0, name)

    def test_counts_repeat_for_a_seed(self):
        for w in gen_inputs.WORKLOADS:
            with self.subTest(workload=w):
                ra, a = run(w, 5, 0)
                rb, b = run(w, 5, 0)
                self.assertEqual(a, b)
                self.assertGreater(a["launches"], 0)
                self.assertEqual(ra["metrics"]["modeled_step_ms"],
                                 rb["metrics"]["modeled_step_ms"])


if __name__ == "__main__":
    unittest.main()
