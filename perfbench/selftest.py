"""Tests of the benchmark's own code:  python3 perfbench/selftest.py

Each oracle must accept the program's real report and reject the same
report with one corruption.  The reports come from small CLI runs of the
program in `src/`, so the suite takes a few seconds.  Also checked: the
kernel's checksum, BENCHMARK.json against the code, the normalisation
arithmetic and the per-layer hooks.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

import kernel
import oracles
import run
import workloads
from layers import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
GRID = [Fraction(i) for i in range(5)]
VALUES = [Fraction(5, 2), Fraction(3, 2), Fraction(7, 2)]


def cli(*argv: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "implab.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return json.loads(proc.stdout)


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        dominance = ("vickrey", "dominance", "--n", "3", "--grid", "0:4:1", "--values", "5/2,3/2,7/2")
        cls.reports = {
            "arrow": cli("arrow", "--agents", "2"),
            "allsat": cli("arrow", "--agents", "2", "--drop-axiom", "un", "--drop-axiom", "nd", "--count-models"),
            "discover": cli("ranksets", "discover", "--max-m", "4"),
            "spa": cli(*dominance),
            "first": cli(*dominance, "--rule", "first-price"),
            "sound": cli("vickrey", "soundness", "--n", "3", "--grid", "0:4:1"),
            "abstract": cli("vickrey", "abstract", "--n-max", "4", "--value", "5/2", "--delta", "1"),
        }
        cls.checks = {
            "arrow": lambda r: oracles.check_arrow(r, 2, ("UN", "ND")),
            "allsat": lambda r: oracles.check_arrow_allsat(r, 2),
            "discover": lambda r: oracles.check_discover(r, 4),
            "spa": lambda r: oracles.check_dominance(r, "second-price", VALUES, GRID),
            "first": lambda r: oracles.check_dominance(r, "first-price", VALUES, GRID),
            "sound": lambda r: oracles.check_soundness(r, 3, GRID),
            "abstract": lambda r: oracles.check_abstract(r, 4, Fraction(5, 2), Fraction(1)),
        }

    def corrupted(self, key: str, corrupt) -> list[str]:
        report = copy.deepcopy(self.reports[key])
        corrupt(report)
        return self.checks[key](report)

    def test_real_reports_pass(self):
        for key, check in self.checks.items():
            with self.subTest(key):
                self.assertEqual(check(self.reports[key]), [])

    def test_arrow_census_off_by_one(self):
        self.assertTrue(self.corrupted("arrow", lambda r: r["census"].update(small_range=r["census"]["small_range"] + 1)))
        self.assertTrue(self.corrupted("arrow", lambda r: r.update(iia_count=r["iia_count"] - 1)))
        self.assertTrue(self.corrupted("arrow", lambda r: r.update(wilson_survivors=3)))

    def test_arrow_survivor_not_a_projection(self):
        def flip(r):
            t = r["un_survivor_swfs"][0]["tables"]
            t["ac"] = ("1" if t["ac"][0] == "0" else "0") + t["ac"][1:]

        self.assertTrue(self.corrupted("arrow", flip))
        self.assertTrue(self.corrupted("arrow", lambda r: r.update(verdict="impossibility falsified")))

    def test_allsat_models_against_brute_force(self):
        self.assertEqual(len(oracles.brute_force_swfs(2)), 94)
        self.assertTrue(self.corrupted("allsat", lambda r: r["models"].pop()))
        self.assertTrue(self.corrupted("allsat", lambda r: r["models"].append(r["models"][0])))

        def flip(r):
            t = r["models"][5]["tables"]
            t["bc"] = t["bc"][:-1] + ("1" if t["bc"][-1] == "0" else "0")

        self.assertTrue(self.corrupted("allsat", flip))

    def test_discover_flipped_witness_bit(self):
        def flip(r):
            f = next(f for f in r["findings"] if f["witness"])
            rows = f["witness"]["geq_rows"]
            rows[0] = rows[0][:1] + ("1" if rows[0][1] == "0" else "0") + rows[0][2:]

        self.assertTrue(self.corrupted("discover", flip))

    def test_discover_witness_violating_an_axiom(self):
        def reverse(r):  # the reversed order is still linear but breaks dominance
            f = next(f for f in r["findings"] if f["axioms"] == ["dominance"])
            rows = f["witness"]["geq_rows"]
            f["witness"]["geq_rows"] = ["".join(row[a] for row in rows) for a in range(len(rows))]

        problems = self.corrupted("discover", reverse)
        self.assertTrue(any("violates dominance" in p for p in problems), problems)

    def test_discover_statuses(self):
        def status(axioms, m, value):
            def corrupt(r):
                f = next(f for f in r["findings"] if f["axioms"] == axioms)
                f["statuses"][str(m)] = value

            return corrupt

        # aversion and appeal clash from three objects on (brute force at m=3)
        self.assertTrue(self.corrupted("discover", status(["aversion", "appeal"], 3, "sat")))
        # not monotone in m, and the superset clashes where its subset does not
        self.assertTrue(self.corrupted("discover", status(["aversion", "appeal"], 4, "sat")))
        self.assertTrue(self.corrupted("discover", status(["dominance"], 4, "unsat")))
        self.assertTrue(self.corrupted("discover", lambda r: r.update(verdict="0 inconsistent axiom subsets up to m=4")))

    def test_vickrey_wrong_payoff(self):
        self.assertTrue(self.corrupted("first", lambda r: r["counterexample"].update(deviation_payoff="1")))
        self.assertTrue(self.corrupted("first", lambda r: r["counterexample"]["deviation_bids"].__setitem__(1, "4")))
        self.assertTrue(self.corrupted("first", lambda r: r.update(verdict="holds")))

    def test_vickrey_counts(self):
        self.assertEqual(oracles.dominance_cells(VALUES, GRID), 3 * 25 * 6)
        self.assertTrue(self.corrupted("spa", lambda r: r.update(cells=r["cells"] + 1)))
        self.assertTrue(self.corrupted("spa", lambda r: r.update(counterexample={})))
        self.assertTrue(self.corrupted("sound", lambda r: r.update(swept=5**3 - 1)))
        self.assertTrue(self.corrupted("abstract", lambda r: r["per_n"][-1].update(cells=80)))

    def test_first_price_payoff(self):
        bids = (Fraction(2), Fraction(2), Fraction(1))
        self.assertEqual(oracles.first_price_payoff(Fraction(5, 2), 0, bids), Fraction(1, 2))
        self.assertEqual(oracles.first_price_payoff(Fraction(5, 2), 1, bids), 0)


class HarnessTest(unittest.TestCase):
    def test_kernel_checksum(self):
        self.assertEqual(kernel.kernel(), kernel.EXPECTED)
        self.assertGreater(kernel.timed_kernel(), 0)

    def test_benchmark_json_matches_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(PER_LAYER))

    def test_vickrey_values_are_seeded_and_off_grid(self):
        self.assertEqual(workloads.vickrey_values(7), workloads.vickrey_values(7))
        for seed in range(50):
            values = workloads.vickrey_values(seed)
            self.assertTrue(all(v.denominator == 2 and v > 1 for v in values))

    def test_round_reference_uses_the_round_or_its_nearest_samples(self):
        samples = [(t / 10, t / 10 + 0.001, 0.004 + t / 1000) for t in range(40)]
        self.assertAlmostEqual(run.handler_seconds(samples, 0.0, 0.35), 4 * 0.001)
        self.assertAlmostEqual(run.round_reference(samples, 0.0, 3.0), 0.004 + 14.5 / 1000)
        self.assertAlmostEqual(run.round_reference(samples, 2.0, 2.1), 0.004 + 20 / 1000)

    def test_tracer_counts_each_layer(self):
        from implab import cli as implab_cli

        tracer = Tracer()
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            implab_cli.main(["arrow", "--agents", "2", "--drop-axiom", "un", "--drop-axiom", "nd", "--count-models"])
            implab_cli.main(["vickrey", "soundness", "--n", "2", "--grid", "0:2:1"])
        t = tracer.per_round(1)
        self.assertEqual(tracer.missing, [])
        self.assertEqual(t["swf.enumerate_calls"], 4)
        self.assertEqual(t["satkit.models"], 94)
        self.assertEqual(t["satkit.solve_calls"], 96)
        self.assertAlmostEqual(t["satkit.models_per_solve"], 94 / 95)
        self.assertEqual(t["auctions.cells"], 9)
        self.assertEqual(t["auctions.rule_calls"], 27)
        self.assertGreater(t["cli.report_bytes"], 10000)
        self.assertTrue(all(s["end"] >= s["start"] for s in tracer.spans))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    unittest.main()
