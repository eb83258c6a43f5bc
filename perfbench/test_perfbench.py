"""Tests of the benchmark itself: span arithmetic, checkers, generation.

Run from the root of a source checkout::

    python3 -m unittest perfbench.test_perfbench
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
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from jumploci import cli, laurent, qlinalg, tori  # noqa: E402
from perfbench import checks, run, trace, workloads  # noqa: E402


def answer(op) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(op.argv))
    return code, buf.getvalue()


def first_op(workload, kind, predicate=lambda payload: True):
    for op in workloads.build(workload, workloads.DEFAULT_SEED):
        if op.expect[0] != kind:
            continue
        code, out = answer(op)
        if predicate(json.loads(out)):
            return op, code, json.loads(out)
    raise AssertionError(f"no {kind} op matches")


def spans(rows):
    start, end, parent = array("d"), array("d"), array("i")
    for s, e, p in rows:
        start.append(s)
        end.append(e)
        parent.append(p)
    return start, end, parent


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # root [0,10] with children A [1,4] and B [5,7]; A has child [2,3]
        own = trace.self_times(*spans([(0, 10, -1), (1, 4, 0), (2, 3, 1),
                                       (5, 7, 0)]))
        self.assertEqual(own, [5.0, 2.0, 1.0, 2.0])

    def test_overlapping_and_clipped_children_count_once(self):
        own = trace.self_times(*spans([(0, 10, -1), (1, 5, 0), (3, 6, 0),
                                       (9, 12, 0)]))
        self.assertEqual(own[0], 10 - 5 - 1)

    def test_tracer_rebinds_every_alias_and_restores(self):
        mul = laurent.CyclotomicNumber.__mul__
        rref, hnf = qlinalg.rref, qlinalg.hnf
        tracer = trace.Tracer()
        tracer.install()
        try:
            self.assertIs(tori.hnf.__wrapped__, hnf)    # a separate binding
            z = laurent.CyclotomicNumber.zeta_power(5, 1)
            _ = z * z
            _ = 2 * z                        # __rmul__ alias
            qlinalg.RationalSubspace.from_rows([(1, 2), (2, 4)], 2)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        self.assertEqual(summary["laurent.CyclotomicNumber.mul"][0], 2)
        self.assertGreaterEqual(summary["qlinalg.rref"][0], 1)
        self.assertIs(laurent.CyclotomicNumber.__mul__, mul)
        self.assertIs(laurent.CyclotomicNumber.__rmul__, mul)
        self.assertIs(qlinalg.rref, rref)
        self.assertIs(tori.hnf, hnf)


class CheckerTest(unittest.TestCase):
    def assert_rejects(self, op, payload):
        self.assertIsNotNone(checks.check(op.expect, 0, json.dumps(payload)))

    def test_flipped_membership_verdict(self):
        op, code, payload = first_op("membership", "omega",
                                     lambda p: not p["member"])
        self.assertIsNone(checks.check(op.expect, code, json.dumps(payload)))
        flipped = dict(payload, member=True, blockers=[])
        self.assert_rejects(op, flipped)
        op, code, payload = first_op("membership", "omega",
                                     lambda p: p["member"])
        self.assert_rejects(op, dict(payload, member=False))

    def test_dropped_cone_subspace(self):
        op, code, payload = first_op("tcone", "tcone",
                                     lambda p: len(p["subspaces"]) > 1)
        self.assertIsNone(checks.check(op.expect, code, json.dumps(payload)))
        dropped = copy.deepcopy(payload)
        dropped["subspaces"].pop()
        self.assert_rejects(op, dropped)

    def test_wrong_rank_at_a_character(self):
        op, code, payload = first_op("characters", "charvar")
        self.assertIsNone(checks.check(op.expect, code, json.dumps(payload)))
        wrong = copy.deepcopy(payload)
        entry = wrong["components"][0]
        entry["translate_in_locus"] = not entry["translate_in_locus"]
        self.assert_rejects(op, wrong)

    def test_wrong_fox_derivative(self):
        op, code, payload = first_op("characters", "alexander")
        self.assertIsNone(checks.check(op.expect, code, json.dumps(payload)))
        wrong = copy.deepcopy(payload)
        wrong["matrix"]["entries"][0][0][0]["coeff"] = "7"
        self.assert_rejects(op, wrong)

    def test_exit_code_and_garbage(self):
        op = workloads.build("membership", 1)[0]
        self.assertIsNotNone(checks.check(op.expect, 1, "{}"))
        self.assertIsNotNone(checks.check(op.expect, 0, "not json"))

    def test_false_certificate_is_a_benchmark_defect(self):
        desc = workloads.SURFACE
        rows = ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
        with self.assertRaises(checks.CheckError):
            checks.expected_blockers(desc, rows, [(0, ("disjoint",))])

    def test_cone_reference_on_the_chain_link(self):
        # t1 + t2 + t3 - t1*t2 - t1*t3 - t2*t3 has three lines as its cone
        terms = [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
                 ((1, 1, 0), -1), ((1, 0, 1), -1), ((0, 1, 1), -1)]
        cone = checks.tangent_cone([terms], 3)
        self.assertEqual(sorted(checks.primitive(s[0]) for s in cone),
                         [[0, 1, -1], [1, -1, 0], [1, 0, -1]])


class GenerationTest(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for workload in workloads.WORKLOADS:
            a = workloads.build(workload, 7)
            b = workloads.build(workload, 7)
            self.assertEqual([op.argv for op in a], [op.argv for op in b])
            self.assertNotEqual(workloads.argv_digest(a),
                                workloads.argv_digest(workloads.build(workload, 8)))

    def test_digest_independent_of_hash_seed(self):
        code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
                "from perfbench import workloads as w; "
                "print(w.argv_digest(w.build('membership', 3)))")
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", code, os.path.join(ROOT, "src"), ROOT],
                env=env, capture_output=True, text=True, check=True, timeout=60)
            digests.add(out.stdout.strip())
        self.assertEqual(digests, {workloads.argv_digest(
            workloads.build("membership", 3))})


class ContractTest(unittest.TestCase):
    """A short real run prints exactly the metrics BENCHMARK.json names."""

    def run_main(self, *argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(list(argv))
        return code, buf.getvalue()

    def test_metric_names_and_units(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        for level, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = self.run_main("--workload", "membership", "--seed", "5",
                                      "--seconds", "1", "--trace", str(level))
            self.assertEqual(code, 0)
            result = json.loads(out.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in spec[key]})

    def test_refuses_to_run_without_sources(self):
        saved = run.SRC
        run.SRC = os.path.join(ROOT, "no-such-directory")
        try:
            code, out = self.run_main("--workload", "membership")
        finally:
            run.SRC = saved
        self.assertNotEqual(code, 0)
        self.assertEqual(out, "")


if __name__ == "__main__":
    unittest.main()
