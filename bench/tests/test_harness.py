"""Tests for the benchmark harness itself (stdlib unittest; pytest runs them too).

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import json
import os
import random
import sys
import unittest
from argparse import Namespace
from itertools import count

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        value, pct, beyond = metrics.tail(range(1, 41))  # 40 samples
        self.assertEqual((value, pct, beyond), (30, 75.0, 10))

    def test_eleven_samples_take_the_smallest(self):
        value, pct, beyond = metrics.tail([5.0] + [9.0] * 10)
        self.assertEqual((value, beyond), (5.0, 10))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_ten_or_fewer_samples_fall_back_to_max(self):
        self.assertEqual(metrics.tail([3, 1, 2]), (3, 100.0, 0))
        self.assertEqual(metrics.tail(range(10)), (9, 100.0, 0))

    def test_order_does_not_matter(self):
        xs = list(range(100))
        random.Random(1).shuffle(xs)
        self.assertEqual(metrics.tail(xs), (89, 90.0, 10))


class NormalizeTest(unittest.TestCase):
    def test_scaled_by_the_samples_around_each_op(self):
        ref = metrics.REF_CAL_S
        cal = [ref] * 5 + [2 * ref] * 10  # the host runs at half speed after the 5th sample
        report = {"wall_s": 3.0, "cal": cal,
                  "ops": [{"ms": 100.0, "cal": [0, 5]},    # own samples, full speed
                          {"ms": 100.0, "cal": [10, 15]},  # own samples, half speed
                          {"ms": 10.0, "cal": [10, 10]}]}  # none: widened to 2*ref ones
        wall, ops = metrics.normalized(report)
        for got, want in zip(ops, [100.0, 50.0, 5.0], strict=True):
            self.assertAlmostEqual(got, want)
        self.assertAlmostEqual(wall, 3.0 * (5 + 10 * 0.5) / 15)

    def test_setup(self):
        ref = metrics.REF_CAL_S
        report = {"setup_s": 0.2, "setup_cal": [ref / 2]}
        self.assertAlmostEqual(metrics.normalized_setup(report), 0.4)
        self.assertEqual(metrics.normalized_setup({"setup_s": 0.2, "setup_cal": []}), 0.2)


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        ticks = count()
        self.tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def test_nested_spans(self):
        t = self.tracer
        inner = t.wrap("b.inner", lambda: None)

        def body():
            inner()
            inner()

        outer = t.wrap("a.outer", body)
        outer()
        # clock reads: outer start 0, inner 1-2, inner 3-4, outer end 5
        self.assertEqual(t.spans[("b.inner", "a.outer")], [2, 2.0, 2.0])
        self.assertEqual(t.spans[("a.outer", spans.ROOT)], [1, 5.0, 3.0])
        layer = metrics.layer_metrics(t.to_json(), wall_s=5.0)
        self.assertEqual(layer["trace.attributed_frac"], 1.0)

    def test_recursion_is_not_counted_twice(self):
        t = self.tracer

        def rec(k):
            if k:
                traced(k - 1)

        traced = t.wrap("sets.level_slice", rec)
        traced(2)
        # reads: 0 (k=2), 1 (k=1), 2 (k=0), 3, 4, 5
        table = t.to_json()
        layer = metrics.layer_metrics(table, wall_s=5.0)
        self.assertEqual(layer["sets.level_slice.calls"], 1)
        self.assertEqual(layer["sets.level_slice.ms"], 5000.0)
        self.assertEqual(layer["sets.self_ms"], 5000.0)

    def test_exception_keeps_the_stack(self):
        t = self.tracer

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            t.wrap("a.boom", boom)()
        t.wrap("a.ok", lambda: None)()
        self.assertIn(("a.ok", spans.ROOT), t.spans)


class InstallTest(unittest.TestCase):
    def test_traced_cli_run(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        try:
            import knvex.cli
            import knvex.search
        except ImportError:
            self.skipTest("knvex sources not found")
        original = knvex.cli.vex_exact
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            self.assertIsNot(knvex.cli.vex_exact, original)  # rebound where cli looks it up
            with open(os.devnull, "w") as sink:
                stdout, sys.stdout = sys.stdout, sink
                try:
                    knvex.cli.main(["vex", "--n", "3", "--pattern", "C5"])
                finally:
                    sys.stdout = stdout
        finally:
            uninstall()
        self.assertIs(knvex.cli.vex_exact, original)
        layer = metrics.layer_metrics(tracer.to_json(), wall_s=1.0)
        self.assertEqual(layer["search.max_family.calls"], 1)
        self.assertGreater(layer["freeness.push.calls"], 0)
        self.assertEqual(layer["freeness.push.calls"], layer["freeness.pop.calls"])
        roots = {name for name, parent in tracer.spans if parent == spans.ROOT}
        self.assertEqual(roots, {"cli.main"})


def _vex_out(value, sets, n=5, exact=True):
    return json.dumps({"results": {"value": value, "exact": exact,
                                   "witness": {"n": n, "sets": sets}}})


class FailCountTest(unittest.TestCase):
    """Each failed op counts once in fail_frac, whatever made it fail."""

    def test_counting(self):
        c5 = workloads.PATTERNS["C5"]
        op = Op(("vex", "--n", "3", "--pattern", "C5"), "vex", {"value": 2}, {}, c5)
        good = _vex_out(2, ["1", "2"], n=3)
        results = [
            {"error": None, "code": 0, "out": good},
            {"error": "ValueError: boom", "code": None, "out": ""},
            {"error": None, "code": 1, "out": good},
            {"error": None, "code": 0, "out": _vex_out(3, ["1", "2", "3"], n=3)},
            {"error": None, "code": 0, "out": _vex_out(2, ["1", "1"], n=3)},
            {"error": None, "code": 0, "out": "not json"},
            {"error": None, "code": 0, "out": good},  # same output again: cached verdict
        ]
        saved = run.make_ops
        run.make_ops = lambda workload, seed, index: [op] * len(results)
        try:
            failures = []
            attempted = run._check(Namespace(workload="w", seed=0), [{"ops": results}],
                                   failures, {})
        finally:
            run.make_ops = saved
        self.assertEqual(attempted, 7)
        self.assertEqual(len(failures), 5)
        self.assertAlmostEqual(metrics.fail_frac(len(failures), attempted), 5 / 7)
        self.assertIn("ValueError", failures[0])
        self.assertIn("exit code 1", failures[1])

    def test_fail_frac_needs_attempts(self):
        with self.assertRaises(ValueError):
            metrics.fail_frac(0, 0)


class CheckTest(unittest.TestCase):
    def test_witness_containing_the_pattern_fails(self):
        # {1},{2},{3},{4},{5}: pairwise disjoint, so they hold every 5-vertex pattern
        op = Op((), "vex", {"value": 5}, {}, workloads.PATTERNS["C5"])
        out = _vex_out(5, ["1", "2", "3", "4", "5"])
        self.assertEqual(checks.check_output(op, 0, out), "witness contains the pattern")

    def test_graph_copy_matches_brute_force(self):
        oracles = _oracles(self)
        rng = random.Random(7)
        for name, (size, edges) in workloads.PATTERNS.items():
            pattern = Namespace(vertex_count=size, edges=edges)
            for _ in range(40):
                n = rng.choice((3, 4))
                masks = rng.sample(range(1 << n), rng.randint(size, min(8, 1 << n)))
                want = oracles.subgraph_copy_exists(masks, pattern)
                got = checks.find_graph_copy(masks, n, (size, edges)) is not None
                self.assertEqual(got, want, (name, masks))

    def test_poset_copy_matches_brute_force(self):
        oracles = _oracles(self)
        rng = random.Random(8)
        for name, poset in workloads.POSETS.items():
            rel = checks.poset_relations(poset)
            adapter = Namespace(size=poset[0], less=lambda p, q, rel=rel: (p, q) in rel)
            for _ in range(40):
                masks = rng.sample(range(8), rng.randint(poset[0], 7))
                want = oracles.poset_copy_exists(masks, adapter)
                self.assertEqual(checks.find_poset_copy(masks, poset) is not None, want,
                                 (name, masks))


def _oracles(case):
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    try:
        import oracles
    except ImportError:
        case.skipTest("tests/oracles.py not found")
    return oracles


class FrozenValuesTest(unittest.TestCase):
    """The frozen answers agree with the construction size formulas."""

    def _ops(self):
        return {op.argv: op for op in workloads.make_ops("certify", 0, 0)}

    def test_table_rows(self):
        for op in self._ops().values():
            if op.kind == "table":
                for row in op.expect["rows"]:
                    n = int(row[0])
                    self.assertEqual(int(row[1]), checks.table_lower(op.expect["pattern"], n))

    def test_bounds_lower_is_the_threshold_family(self):
        op = self._ops()[("vex", "--n", "13", "--pattern", "C5", "--bounds")]
        self.assertEqual(op.expect["lower"], checks.threshold_size(13, 2))

    def test_construction_sizes(self):
        self.assertEqual(checks.clique_threshold_size(12, 3), 3797)
        self.assertEqual(checks.bip_lower_size(14), 9908)
        self.assertEqual(checks.e2_two_level_size(12), 2840)
        # odd n, by direct count of the defining sets
        n = 7
        self.assertEqual(checks.bip_lower_size(n), sum(
            1 for m in range(1 << n)
            if 2 * m.bit_count() > n or (m.bit_count() == n // 2 and m & 1)))


class InputsTest(unittest.TestCase):
    def test_seed_zero_is_canonical(self):
        for name in workloads.WORKLOADS:
            ops = workloads.make_ops(name, 0, 0)
            self.assertEqual([op.argv[0] for op in ops],
                             [b(None).argv[0] for b in workloads.WORKLOADS[name]])
            for op in ops:
                if op.kind != "cyclecheck":
                    self.assertEqual(op.files, {}, op.label)

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.make_ops(name, 5, 1), workloads.make_ops(name, 5, 1))

    def test_relabelled_inputs_keep_the_structure(self):
        ops = workloads.make_ops("certify", 3, 0)
        posets = [op for op in ops if op.kind == "eposet"]
        self.assertTrue(all(op.files for op in posets))
        for op in posets:
            name = op.label  # any relabelled poset keeps its number of relations
            size, covers = op.subject
            canonical = [p for p in workloads.POSETS.values() if p[0] == size][0]
            self.assertEqual(len(checks.poset_relations(op.subject)),
                             len(checks.poset_relations(canonical)), name)
        self.assertNotEqual(workloads.make_ops("certify", 3, 0),
                            workloads.make_ops("certify", 4, 0))


if __name__ == "__main__":
    unittest.main()
