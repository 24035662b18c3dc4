"""Self-tests of the benchmark's arithmetic.

    python3 perfbench/tests/test_analysis.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import analysis  # noqa: E402
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def check(self, n):
        values = [float(v) for v in range(n)]
        value, pct, count = analysis.tail(values)
        self.assertEqual(count, n)
        self.assertEqual(sum(v > value for v in values), 10)
        # One rank higher would leave only nine samples beyond.
        self.assertEqual(pct, 100.0 * (n - 10) / n)
        return value, pct

    def test_too_few_samples_give_the_minimum(self):
        for n in (1, 5, 10):
            values = [float(v) for v in range(n, 0, -1)]
            self.assertEqual(analysis.tail(values), (1.0, 100.0 / n, n))

    def test_eleven_samples_give_the_minimum(self):
        self.assertEqual(self.check(11), (0.0, 100.0 / 11))

    def test_twenty_samples_give_the_median_rank(self):
        self.assertEqual(self.check(20), (9.0, 50.0))

    def test_hundred_and_thousand_samples(self):
        self.assertEqual(self.check(100), (89.0, 90.0))
        self.assertEqual(self.check(1000), (989.0, 99.0))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 5
        self.assertEqual(analysis.tail(values),
                         analysis.tail(sorted(values)))


def span(name, start, end, parent=-1, cell=-1):
    return (name, start, end, parent, cell)


class SelfTimes(unittest.TestCase):
    def test_nested(self):
        spans = [span("driver.runCells", 0, 10),
                 span("driver.recordKernelTrace", 2, 6, 0),
                 span("isa.record", 3, 4, 1)]
        self.assertEqual(analysis.self_times(spans), [6, 3, 1])

    def test_overlapping_children_count_once(self):
        spans = [span("driver.runCells", 0, 10), span("sim.replay", 1, 5, 0),
                 span("sim.replay", 3, 8, 0)]
        self.assertEqual(analysis.self_times(spans)[0], 3)

    def test_child_inside_sibling(self):
        spans = [span("driver.runCells", 0, 10), span("sim.replay", 1, 9, 0),
                 span("sim.replay", 2, 3, 0)]
        self.assertEqual(analysis.self_times(spans)[0], 2)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("driver.runCells", 0, 10), span("sim.replay", 8, 12, 0),
                 span("sim.replay", -3, 1, 0)]
        self.assertEqual(analysis.self_times(spans)[0], 7)

    def test_layers_add_up_to_the_sample(self):
        # Sample 0 makes two calls, each its own root; a decode probe
        # runs between them, outside the sample.
        spans = [span("driver.runCells", 0, 9, cell=0),
                 span("driver.recordKernelTrace", 0, 5, 0),
                 span("kernels.build", 0, 1, 1),
                 span("isa.record", 2, 4, 1),
                 span("sim.replay", 5, 8, 0),
                 span("probe", 10, 12, cell=0),
                 span("isa.trace_decode", 10, 11, 5),
                 span("ssl.runServerSims", 12, 15, cell=0),
                 span("ssl.server_sim", 12, 14, 7),
                 span("driver.runCells", 20, 21, cell=1),
                 span("probe", 21, 22, cell=1)]
        layers = analysis.layer_seconds(spans)
        first, second = layers[0], layers[1]
        # recordKernelTrace outside its phases: 1..2 and 4..5.
        self.assertEqual(first["driver.residue_s"], 2)
        # The sweep's gap 8..9 and the ssl call's gap 14..15.
        self.assertEqual(first["driver.unaccounted_s"], 2)
        self.assertEqual(first["isa.record_s"], 2)
        self.assertEqual(first["sim.replay_s"], 3)
        self.assertEqual(first["ssl.server_sim_s"], 2)
        self.assertEqual(sum(first.values()), 9 + 3)
        self.assertEqual(sum(second.values()), 1)
        self.assertEqual(analysis.decode_seconds(spans), {0: 1, 1: 0})

    def test_a_gap_in_the_sweep_is_unaccounted_not_residue(self):
        # A layer call without its span leaves 4..7 of the sweep uncovered.
        spans = [span("driver.runCells", 0, 10, cell=0),
                 span("driver.recordKernelTrace", 0, 4, 0),
                 span("isa.record", 0, 4, 1),
                 span("sim.replay", 7, 10, 0)]
        secs = analysis.layer_seconds(spans)[0]
        self.assertEqual(secs["driver.unaccounted_s"], 3)
        self.assertEqual(secs["driver.residue_s"], 0)


class TracingOverhead(unittest.TestCase):
    @staticmethod
    def rounds(*pairs):
        return [{"traced": {"wall_s": t}, "serial": {"wall_s": u}}
                for t, u in pairs]

    def test_pairs_cancel_the_order_of_the_passes(self):
        # Whichever pass runs first takes 0.3 s longer; tracing costs 0.1.
        self.assertAlmostEqual(analysis.overhead(self.rounds(
            (2.1, 2.3), (2.4, 2.0), (2.1, 2.3), (2.4, 2.0))), 0.1)

    def test_an_unpaired_last_round_is_dropped(self):
        self.assertAlmostEqual(analysis.overhead(self.rounds(
            (2.1, 2.3), (2.4, 2.0), (9.0, 1.0))), 0.1)
        self.assertAlmostEqual(analysis.overhead(self.rounds((3.0, 2.0))),
                               1.0)


class DigestGate(unittest.TestCase):
    LABELS = ["RC4/opt/4W/4096", "RC4/opt/DF/4096"]
    # outcome, instructions, cycles, ... as the harness reports them
    RESULTS = [[0, 1000, 2500, 10, 3], [0, 1000, 900, 10, 0]]

    def reference(self):
        return [analysis.cell_digest(label, result)
                for label, result in zip(self.LABELS, self.RESULTS)]

    def test_identical_results_pass(self):
        self.assertEqual(analysis.digest_failures(
            self.LABELS, [self.RESULTS, self.RESULTS], self.reference()), 0)

    def test_one_perturbed_cycle_count_fails_one_cell(self):
        perturbed = [list(r) for r in self.RESULTS]
        perturbed[1][2] += 1
        self.assertEqual(analysis.digest_failures(
            self.LABELS, [self.RESULTS, perturbed], self.reference()), 1)

    def test_results_under_another_label_fail(self):
        self.assertEqual(analysis.digest_failures(
            list(reversed(self.LABELS)), [self.RESULTS], self.reference()),
            2)

    def test_missing_reference_fails_every_cell(self):
        self.assertEqual(analysis.digest_failures(
            self.LABELS, [self.RESULTS], None), 2)
        self.assertEqual(analysis.digest_failures(
            self.LABELS, [self.RESULTS], self.reference()[:1]), 2)


class BenchmarkFile(unittest.TestCase):
    """The metrics the benchmark prints are the ones BENCHMARK.json
    declares, with the same units."""

    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            self.bench = json.load(fh)

    def declared(self, kind):
        return {m["name"]: m["unit"] for m in self.bench[kind]}

    def test_per_layer(self):
        self.assertEqual(self.declared("per_layer"), analysis.PER_LAYER_UNITS)

    def test_end_to_end(self):
        sample = {"wall_s": 1.0, "cpu_s": 2.0, "sessions": 4,
                  "instructions": 8, "idle_frac": 0.5, "others_s": 0.0,
                  "gate_checks": 1}
        metrics, _ = run.end_to_end(
            {"samples": [sample], "peak_rss_mb": 10.0}, [0.1])
        self.assertEqual(self.declared("end_to_end"),
                         {name: unit for name, (_, unit) in metrics.items()})


if __name__ == "__main__":
    unittest.main()
