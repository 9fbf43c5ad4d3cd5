"""Self-tests of the benchmark: span arithmetic, metric names, verifiers.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import sys
import unittest

import run
import tracing
import verify

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(sid, parent, name, start, end, **attrs):
    row = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
    if attrs:
        row["attrs"] = attrs
    return row


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span(0, None, "a", 0.0, 10.0),
            span(1, 0, "b", 1.0, 4.0),
            span(2, 1, "c", 2.0, 3.0),
            span(3, 0, "b", 5.0, 7.0),
        ]
        self.assertEqual(tracing.self_times(spans), {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})
        self.assertEqual(tracing.covered_time(spans), 10.0)

    def test_overlapping_and_clipped_children(self):
        spans = [
            span(0, None, "a", 0.0, 10.0),
            span(1, 0, "b", 1.0, 4.0),
            span(2, 0, "b", 3.0, 6.0),
            span(3, 0, "b", 9.0, 12.0),
        ]
        self.assertEqual(tracing.self_times(spans)[0], 10.0 - 5.0 - 1.0)

    def test_layer_metrics(self):
        spans = [
            span(0, None, "response.f_fraction", 0.0, 4.0, k=3),
            span(1, 0, "kernel.limit", 1.0, 2.0, points=100),
            span(2, None, "response.f_fraction", 5.0, 5.5, k=3),
            span(3, None, "response.f_fraction", 6.0, 6.5, k=2),
        ]
        m = tracing.layer_metrics(spans, {"kernel.value": 7})
        self.assertEqual(m["response.f_fraction.calls"], 3)
        self.assertEqual(m["response.f_fraction.misses"], 1)
        self.assertAlmostEqual(m["response.f_fraction.hit_ratio"], 2 / 3)
        self.assertEqual(m["response.f_fraction.k3.self_s"], 3.5)
        self.assertEqual(m["response.f_fraction.k2.self_s"], 0.5)
        self.assertEqual(m["kernel.limit.points"], 100)
        self.assertEqual(m["kernel.value.calls"], 7)

    def test_tracer_records_parents_and_times(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer("t", clock=lambda: float(next(ticks)))
        inner = tracer.span("inner", lambda x: x + 1)
        outer = tracer.span("outer", lambda x: inner(x) * 2)
        self.assertEqual(outer(1), 4)
        (i_id, i_parent, i_name, i0, i1, _), (o_id, o_parent, *_rest) = tracer.spans
        self.assertEqual((i_name, i_parent, o_parent), ("inner", o_id, None))
        self.assertEqual((i0, i1), (1.0, 2.0))

    def test_tracer_wraps_every_binding(self):
        sys.path.insert(0, run.SRC)
        import udwrm.cli
        import udwrm.response

        original = udwrm.response.q_direct
        tracer = tracing.Tracer("t")
        tracer.install()
        try:
            self.assertEqual(tracer.missing, [])
            wrapped = udwrm.response.q_direct
            self.assertIsNot(wrapped, original)
            self.assertIs(udwrm.cli.q_direct, wrapped)
            self.assertIs(udwrm.q_direct, wrapped)
        finally:
            tracer.uninstall()
        self.assertIs(udwrm.cli.q_direct, original)
        self.assertIs(udwrm.response.q_direct, original)


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)

    def test_benchmark_file_matches_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(run.workloads.WORKLOADS)
        )


def table(header: str, *lines: str) -> list[dict]:
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


def failed_rows(name, rows, refs=None) -> tuple[int, verify.Outcome]:
    out = verify.Outcome()
    verify.check_table(name, rows, len(rows), out, refs)
    return out.failed, out


class Verifiers(unittest.TestCase):
    def assert_flags(self, name, good, bad, refs=None):
        self.assertEqual(failed_rows(name, good, refs)[0], 0)
        self.assertEqual(failed_rows(name, bad, refs)[0], 1)

    def test_transition(self):
        header = "worldline,alpha,method,q,abs_error"
        good = table(
            header,
            "inertial,0.0,closed_form,5.0e-06,1e-18",
            "inertial,0.0,quadrature,5.0001e-06,1e-12",
        )
        bad = table(
            header,
            "inertial,0.0,closed_form,5.0e-06,1e-18",
            "inertial,0.0,quadrature,5.1e-06,1e-12",
        )
        self.assert_flags("transition-alpha1.0", good, bad)
        refs = [["inertial", 0.0, 5.0e-06 + 2e-12, 1e-12]]
        _, out = failed_rows("transition-alpha1.0", good, refs)
        self.assertEqual((out.err_checked, out.err_missed), (1, 1))
        refs = [["inertial", 0.0, 5.0e-06 + 5e-13, 1e-12]]
        _, out = failed_rows("transition-alpha1.0", good, refs)
        self.assertEqual((out.err_checked, out.err_missed), (1, 0))

    def test_string_probs_ratio_outside_bounds(self):
        header = "id,bits,p_born,p_rm,log_ratio_correction,abs_error,ratio_lower,ratio_upper"
        good = table(header, "0,0,0.9,0.9,0,1e-9,0.99,1.01", "1,1,0.1,0.1,0,1e-9,0.99,1.01")
        bad = table(header, "0,0,0.9,0.9,0,1e-9,0.99,1.01", "1,1,0.1,0.1,0,1e-9,1.01,1.02")
        self.assert_flags("string-probs", good, bad)
        unnormalized = table(header, "0,0,0.9,0.8,0,1e-9,0.8,1.01", "1,1,0.1,0.1,0,1e-9,0.99,1.01")
        self.assertEqual(failed_rows("string-probs", unnormalized)[0], 2)

    def test_history_sweep_outside_tight_bounds(self):
        header = "query,excitations,p,abs_error,tight_lower,tight_upper,loose_lower,loose_upper,gamma"
        good = table(header, "1,0,1.0e-5,1e-12,1.0e-5,1.1e-5,0.9e-5,1.2e-5,0.01")
        bad = table(header, "1,0,1.2e-5,1e-12,1.0e-5,1.1e-5,0.9e-5,1.2e-5,0.01")
        self.assert_flags("history-sweep", good, bad)
        not_nested = table(header, "1,0,1.0e-5,1e-12,0.8e-5,1.1e-5,0.9e-5,1.2e-5,0.01")
        self.assertEqual(failed_rows("history-sweep", not_nested)[0], 1)

    def test_bounds_lower_above_upper(self):
        header = "n,lower,upper,q"
        good = table(header, "1,0.1,0.1,0.1", "2,0.09,0.11,0.1")
        bad = table(header, "1,0.1,0.1,0.1", "2,0.12,0.11,0.1")
        self.assert_flags("bounds", good, bad)
        decreasing = table(header, "1,0.1,0.2,0.1", "2,0.09,0.15,0.1")
        self.assertEqual(failed_rows("bounds", decreasing)[0], 1)

    def test_oracle_and_bayes(self):
        self.assert_flags(
            "oracle",
            table("check,value,threshold,passed", "tree_normalization,1e-15,1e-10,True"),
            table("check,value,threshold,passed", "tree_normalization,1e-3,1e-10,False"),
        )
        self.assert_flags(
            "bayes",
            table("observed,mass_h1,mass_h2,total_mass", "1,0.5,0.5,1.0"),
            table("observed,mass_h1,mass_h2,total_mass", "1,0.5,0.5,1.00001"),
        )

    def test_combinatorics_golden_counts(self):
        header = "k,restricted_partitions,crossing_pairings,wick_terms"
        good = table(header, "2,1,2,3", "3,1,8,15")
        bad = table(header, "2,1,2,3", "3,1,9,15")
        self.assert_flags("combinatorics", good, bad)

    def test_missing_rows_and_crashed_command(self):
        header = "n,lower,upper,q"
        out = verify.Outcome()
        verify.check_table("bounds", table(header, "1,0.1,0.1,0.1"), 3, out)
        self.assertEqual(out.failed, 2)
        out = verify.verify("q-horizon-oracle", "/nonexistent", [])
        self.assertEqual((out.attempted, out.failed), (6164, 6164))


if __name__ == "__main__":
    unittest.main()
