#!/usr/bin/env python3
"""Unit tests for trace_summary.py against the committed fixture.

Run from anywhere: the fixture paths resolve relative to this file. Wired
into CTest as `trace_summary_py` (skipped when python3 is unavailable).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import trace_summary  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE = os.path.join(REPO, "tests", "fixtures", "trace_small.json")
METRICS = os.path.join(REPO, "tests", "fixtures", "metrics_small.json")


def write_temp(doc):
    handle = tempfile.NamedTemporaryFile(
        mode="w", suffix=".json", delete=False)
    json.dump(doc, handle)
    handle.close()
    return handle.name


class FixtureTest(unittest.TestCase):
    """The committed ams_serve --trace fixture is valid and self-consistent."""

    def test_fixture_validates(self):
        events, _ = trace_summary.load_events(TRACE)
        counts = trace_summary.validate(events)
        # One lifecycle per request: every sampled admission produced exactly
        # one queue_wait and one exec span.
        self.assertEqual(counts["enqueue"], counts["queue_wait"])
        self.assertEqual(counts["enqueue"], counts["exec"])
        self.assertGreater(counts.get("tick", 0), 0)
        self.assertGreater(counts.get("forward", 0), 0)

    def test_main_with_metrics_cross_check(self):
        self.assertEqual(
            trace_summary.main([TRACE, "--metrics", METRICS]), 0)

    def test_summarize_reports_every_recorded_phase(self):
        events, _ = trace_summary.load_events(TRACE)
        out = io.StringIO()
        trace_summary.summarize(events, out=out)
        text = out.getvalue()
        for name in ("queue_wait", "exec", "tick", "forward", "enqueue"):
            self.assertIn(name, text)

    def test_queue_wait_matches_histogram_percentiles(self):
        events, _ = trace_summary.load_events(TRACE)
        mismatches = trace_summary.check_metrics(
            events, METRICS, tolerance=1.5, out=io.StringIO())
        self.assertEqual(mismatches, [])

    def test_empty_phase_gets_no_samples_row(self):
        # A run whose every row came from the memo records no forward spans:
        # the phase must still appear, flagged, instead of a divide-by-zero
        # or a silently missing row.
        events = [ev for ev in trace_summary.load_events(TRACE)[0]
                  if ev.get("name") != "forward"]
        out = io.StringIO()
        trace_summary.summarize(events, out=out)
        rows = [line for line in out.getvalue().splitlines()
                if line.startswith("forward")]
        self.assertEqual(len(rows), 1)
        self.assertIn("no samples", rows[0])


class DroppedEventsTest(unittest.TestCase):
    """A trace whose rings wrapped is refused, not cross-checked."""

    def run_with_metrics(self, dropped):
        with open(TRACE) as handle:
            doc = json.load(handle)
        doc["otherData"] = {"dropped_events": dropped}
        path = write_temp(doc)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                status = trace_summary.main([path, "--metrics", METRICS])
        finally:
            os.unlink(path)
        return status, err.getvalue()

    def test_wrapped_trace_is_refused_naming_the_count(self):
        status, err = self.run_with_metrics(1234)
        self.assertEqual(status, 1)
        self.assertIn("dropped 1234 events", err)
        self.assertNotIn("queue delay", err)

    def test_zero_dropped_cross_checks_as_before(self):
        status, err = self.run_with_metrics(0)
        self.assertEqual(status, 0, err)

    def test_count_defaults_to_zero_when_absent(self):
        self.assertEqual(trace_summary.load_events(TRACE)[1], 0)


class LedgerTest(unittest.TestCase):
    """--metrics refuses a snapshot whose request ledger does not add up."""

    def load_metrics(self):
        with open(METRICS) as handle:
            return json.load(handle)

    def test_fixture_ledger_balances(self):
        self.assertEqual(trace_summary.check_ledger(self.load_metrics()), [])

    def test_bumped_class_count_is_refused(self):
        doc = self.load_metrics()
        doc["classes"]["batch"]["completed"] += 1
        path = write_temp(doc)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                status = trace_summary.main([TRACE, "--metrics", path])
        finally:
            os.unlink(path)
        self.assertEqual(status, 1)
        self.assertIn("classes.batch: enqueued 5 != 6 outcomes",
                      err.getvalue())

    def test_balanced_slices_must_still_sum_to_the_totals(self):
        doc = self.load_metrics()
        doc["tenants"]["0"]["enqueued"] += 1
        doc["tenants"]["0"]["rejected"] += 1
        doc["tenants"]["0"]["quota_rejected"] += 2
        self.assertEqual(trace_summary.check_ledger(doc), [
            "tenants.0: quota_rejected > rejected",
            "tenants sum to enqueued 61, the totals say 60",
            "tenants sum to rejected 1, the totals say 0",
            "tenants sum to quota_rejected 2, the totals say 0"])


class LaneSpanTest(unittest.TestCase):
    """--metrics refuses a snapshot whose phase counts the lane spans
    contradict."""

    def load(self):
        with open(METRICS) as handle:
            doc = json.load(handle)
        return trace_summary.load_events(TRACE)[0], doc

    def test_fixture_counts_agree_without_its_empty_forward_spans(self):
        events, doc = self.load()
        forwards = [ev for ev in events if ev.get("name") == "forward"]
        self.assertEqual(len(forwards), 108)
        self.assertEqual(doc["phases"]["forward"]["count"], 82)
        self.assertEqual(trace_summary.check_lane_spans(events, doc), [])

    def test_doctored_snapshot_is_refused(self):
        _, doc = self.load()
        # Counting the 26 empty refreshes as forwards.
        doc["phases"]["forward"]["count"] = 108
        doc["phases"]["tick"]["count"] -= 1
        path = write_temp(doc)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                status = trace_summary.main([TRACE, "--metrics", path])
        finally:
            os.unlink(path)
        self.assertEqual(status, 1)
        self.assertIn("tick spans: the trace has 108, phases.tick.count "
                      "is 107", err.getvalue())
        self.assertIn("forward spans: the trace has 82, "
                      "phases.forward.count is 108", err.getvalue())


class ValidationTest(unittest.TestCase):
    """Malformed traces are rejected, not summarized."""

    def run_main(self, doc):
        path = write_temp(doc)
        try:
            return trace_summary.main([path])
        finally:
            os.unlink(path)

    def test_missing_trace_events_key(self):
        self.assertEqual(self.run_main({"events": []}), 1)

    def test_unknown_ph(self):
        self.assertEqual(self.run_main({"traceEvents": [
            {"name": "tick", "ph": "B", "ts": 0, "pid": 0, "tid": 0}]}), 1)

    def test_unknown_phase_name(self):
        self.assertEqual(self.run_main({"traceEvents": [
            {"name": "mystery", "ph": "i", "s": "t", "ts": 0, "pid": 0,
             "tid": 0}]}), 1)

    def test_negative_duration(self):
        self.assertEqual(self.run_main({"traceEvents": [
            {"name": "tick", "ph": "X", "ts": 0, "dur": -1, "pid": 0,
             "tid": 0}]}), 1)

    def test_empty_trace_is_valid(self):
        self.assertEqual(self.run_main({"traceEvents": []}), 0)

    def test_metadata_events_are_ignored(self):
        self.assertEqual(self.run_main({"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 0,
             "args": {"name": "shard 0"}}]}), 0)


class PercentileTest(unittest.TestCase):
    def test_empty_is_zero(self):
        self.assertEqual(trace_summary.percentile([], 50), 0.0)

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertEqual(trace_summary.percentile(values, 50), 5.0)
        self.assertEqual(trace_summary.percentile(values, 99), 10.0)
        self.assertEqual(trace_summary.percentile(values, 0), 1.0)


if __name__ == "__main__":
    unittest.main()
