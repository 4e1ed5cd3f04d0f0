"""Self-tests of the benchmark: its checks reject corrupted outputs, and every
workload runs end to end at a tiny size.

Run from anywhere:  python3 bench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from distchrom import coloring  # noqa: E402
from tracing import Recorder  # noqa: E402

TINY_CERTIFY = [
    workloads.Group("PGL(3,2)", workloads.families.pgl3_action, (2,), 7, 2, "pgl"),
    workloads.Group("PGammaL(3,2)", workloads.families.pgammal3_action, (2,), 7, 3, "pgammal"),
    workloads.Group("S5 on 2-sets", workloads.permgroup.induced_action_on_ksets, (5, 2), 10, 2,
                    "sym"),
]


def tiny(name: str):
    return {
        "refute-krs": lambda: workloads.RefuteKrs(per_round=1, mono=4, pool_rounds=1),
        "sample-kneser": lambda: workloads.SampleKneser(per_round=3, pool_rounds=1),
        "sweep-gs": lambda: workloads.SweepGs(limit=20, aut_q=7, aut_per_round=1, pool_rounds=1),
        "certify-groups": lambda: workloads.CertifyGroups(groups=TINY_CERTIFY, pool_rounds=1),
    }[name]()


def one_round(wl, seed: int = 5):
    state = wl.setup(seed, Recorder(False))
    out = wl.run_round(state, 0, Recorder(False))
    return state, out


class CheckRejects(unittest.TestCase):
    """Each check passes real outputs and rejects a corrupted copy."""

    def test_improper_coloring(self):
        wl = tiny("refute-krs")
        state, out = one_round(wl)
        self.assertEqual(wl.check(state, [out]), [])
        g = state["graph"]
        j = next(iter(out))
        colors = list(state["colorings"][j].colors)
        u, v = next(iter(checks.edge_set(g.adj)))
        colors[u] = colors[v]
        state["colorings"][j] = coloring.Coloring.from_sequence(colors)
        errors = wl.check(state, [out])
        self.assertTrue(any("improper" in e for e in errors), errors)

    def test_witness_that_moves_a_class(self):
        wl = tiny("refute-krs")
        state, out = one_round(wl)
        j, (ok, wit) = next(iter(out.items()))
        self.assertFalse(ok)
        colors = state["colorings"][j].colors
        # Two twins of different colors: swapping them keeps every edge but
        # moves a vertex into another color class.
        adj = state["graph"].adj
        u, v = next(
            (u, v) for u in range(len(adj)) for v in range(u + 1, len(adj))
            if adj[u] == adj[v] and colors[u] != colors[v]
        )
        moved = list(wit)
        moved[u], moved[v] = wit[v], wit[u]
        errors = wl.check(state, [{j: (False, tuple(moved))}])
        self.assertTrue(any("moves a color class" in e for e in errors), errors)

    def test_witness_that_breaks_an_edge(self):
        edges = {(0, 1), (1, 2)}
        self.assertEqual(checks.witness_errors(edges, (1, 1, 1), (2, 1, 0)), [])
        self.assertIn("non-edge", checks.witness_errors(edges, (1, 1, 1), (1, 0, 2))[0])
        self.assertIn("identity", checks.witness_errors(edges, (1, 1, 1), (0, 1, 2))[0])

    def test_exact_en_off_by_one_element(self):
        wl = tiny("certify-groups")
        state, out = one_round(wl)
        self.assertEqual(wl.check(state, [out]), [])
        for grp in TINY_CERTIFY:
            order, exact_en, size = out[grp.label]
            # Drop one non-identity element, one with size - 1 cycles on the class.
            short = exact_en - Fraction(grp.t ** (size - 1), grp.t**size)
            errors = workloads.certificate_errors(grp, order, short, size)
            self.assertTrue(any("multiple of |G|" in e for e in errors), (grp.label, errors))
            if grp.kind == "sym":
                self.assertTrue(any("Polya" in e for e in errors), errors)
            errors = workloads.certificate_errors(grp, order - 1, exact_en, size)
            self.assertTrue(any("closed form" in e for e in errors), (grp.label, errors))

    def test_verdict_against_brute_force(self):
        wl = tiny("sample-kneser")
        state, out = one_round(wl)
        self.assertEqual(wl.check(state, [out]), [])
        j, (colors, ok, wit) = next(iter(out.items()))
        errors = wl.check(state, [{j: (colors, not ok, wit)}])
        self.assertTrue(any("brute force" in e for e in errors), errors)

    def test_sweep_verdict_against_latin_square_search(self):
        wl = tiny("sweep-gs")
        state, out = one_round(wl)
        self.assertEqual(wl.check(state, [out]), [])
        colors, ok, wit = out["sweep"][0]
        bad = dict(out, sweep=[(colors, not ok, wit)] + out["sweep"][1:])
        errors = wl.check(state, [bad])
        self.assertTrue(any("C2 search" in e for e in errors), errors)

    def test_polya_against_brute_force(self):
        from itertools import combinations, permutations

        n, k, t = 5, 2, 3
        subsets = list(combinations(range(n), k))
        total = 0
        for g in permutations(range(n)):
            seen, cycles = set(), 0
            for s in subsets:
                if s not in seen:
                    cycles += 1
                    while s not in seen:
                        seen.add(s)
                        s = tuple(sorted(g[x] for x in s))
            total += t**cycles
        self.assertEqual(checks.polya_exact_en(n, k, t), Fraction(total, t ** len(subsets)))


class TinyEndToEnd(unittest.TestCase):
    """Every workload runs, checks clean and reports every declared metric."""

    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.end_to_end = {m["name"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"] for m in spec["per_layer"]}
        cls.names = [w["name"] for w in spec["workloads"]]

    def test_workload_names_agree(self):
        self.assertEqual(list(workloads.WORKLOADS), self.names)

    def test_each_workload(self):
        for name in self.names:
            for traced, expected in ((False, self.end_to_end), (True, self.per_layer)):
                with self.subTest(workload=name, traced=traced):
                    result = run.measure(tiny(name), seed=7, seconds=0, traced=traced)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), expected)

    def test_refuses_without_the_package(self):
        empty = BENCH / "out" / "empty-checkout"
        empty.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", self.names[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
