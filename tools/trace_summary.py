#!/usr/bin/env python3
"""Validate and summarize an ams_serve Chrome-trace export.

Usage:
    trace_summary.py TRACE.json [--metrics METRICS.json] [--tolerance R]

Reads the Chrome trace-event JSON written by `ams_serve --trace` (through
`obs::ChromeTraceSink`), checks that it is structurally well-formed, and
prints a per-phase latency table: count and p50/p95/p99/mean/max over the
span durations of each duration phase (queue_wait, exec, tick, forward),
plus counts for the instant phase (enqueue). Span phases
nothing recorded land in the table as an explicit "no samples" row — a run
with no forwards at all (every row served from the memo, or a session
without a predictor) summarizes cleanly rather than hiding the phase.

Validation failures (missing keys, unknown `ph` types, negative durations)
exit non-zero, so CI can gate on the exporter staying Perfetto-loadable.

With `--metrics`, cross-checks the trace against the MetricsJson snapshot of
the same run: queue_wait percentiles recomputed exactly from the trace must
agree with the `latency.queue_delay` histogram percentiles within one
histogram bucket (sqrt(2)-spaced buckets with in-bucket interpolation →
default tolerance ratio 1.5, plus a small absolute floor for
microsecond-scale values). Only meaningful when the trace was recorded with
`--trace-sample 1` — a sampled trace holds a subset of the requests the
histogram saw — and when no ring wrapped: the exporter writes the tracer's
dropped-event count as `otherData.dropped_events`, and a nonzero count
refuses the cross-check with that count named, since lost spans would
otherwise surface as a misleading percentile mismatch.

`--metrics` also refuses a snapshot whose request ledger does not add up
(see check_ledger); ams_serve writes its snapshot after draining, so the
counts are final. And it requires the lane spans to count what the
snapshot's phase histograms count (see check_lane_spans): one tick span per
`phases.tick` sample, and one forward span with rows per `phases.forward`
sample.
"""

import argparse
import json
import math
import sys

# The request ledger's counters, in every slice of a metrics snapshot.
LEDGER_COUNTERS = ("enqueued", "completed", "rejected", "quota_rejected",
                   "shed", "shutdown_refused", "deadline_misses")
LEDGER_HISTOGRAMS = ("queue_delay", "total")

# Phases emitted with a duration ("ph": "X") vs. as instants ("ph": "i").
SPAN_PHASES = ("queue_wait", "exec", "tick", "forward")
INSTANT_PHASES = ("enqueue",)
KNOWN_PHASES = set(SPAN_PHASES) | set(INSTANT_PHASES)


class TraceError(Exception):
    """A structural problem that makes the trace untrustworthy."""


def load_events(path):
    """Returns (events, dropped) from a Chrome trace file (object or array
    form): the event list, and the events the exporter reports lost to ring
    wrap as otherData.dropped_events (0 when not recorded)."""
    with open(path) as handle:
        doc = json.load(handle)
    dropped = 0
    if isinstance(doc, dict):
        if "traceEvents" not in doc:
            raise TraceError("top-level object has no 'traceEvents' key")
        events = doc["traceEvents"]
        other = doc.get("otherData")
        if isinstance(other, dict):
            dropped = other.get("dropped_events", 0)
            if not isinstance(dropped, int):
                raise TraceError("'otherData.dropped_events' is not an integer")
    elif isinstance(doc, list):
        events = doc
    else:
        raise TraceError("trace is neither an object nor an array")
    if not isinstance(events, list):
        raise TraceError("'traceEvents' is not a list")
    return events, dropped


def validate(events):
    """Checks structural well-formedness; raises TraceError on violations."""
    counts = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise TraceError(f"event {i} is not an object")
        for key in ("name", "ph", "pid"):
            if key not in ev:
                raise TraceError(f"event {i} missing '{key}'")
        ph = ev["ph"]
        if ph == "M":
            continue  # process_name / thread_name metadata
        if ph not in ("X", "i"):
            raise TraceError(f"event {i} has unknown ph {ph!r}")
        name = ev["name"]
        if name not in KNOWN_PHASES:
            raise TraceError(f"event {i} has unknown phase {name!r}")
        for key in ("ts", "tid"):
            if key not in ev:
                raise TraceError(f"event {i} ({name}) missing '{key}'")
        if ph == "X":
            if name not in SPAN_PHASES:
                raise TraceError(f"event {i}: instant phase {name!r} has ph X")
            if ev.get("dur", -1.0) < 0.0:
                raise TraceError(f"event {i} ({name}) has negative/missing dur")
        else:
            if name not in INSTANT_PHASES:
                raise TraceError(f"event {i}: span phase {name!r} has ph i")
            if ev.get("s") != "t":
                raise TraceError(f"event {i} ({name}) instant missing s=t scope")
        counts[name] = counts.get(name, 0) + 1
    return counts


def percentile(sorted_values, p):
    """Nearest-rank percentile over an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, min(len(sorted_values),
                      math.ceil(p / 100.0 * len(sorted_values))))
    return sorted_values[rank - 1]


def durations_by_phase(events):
    """Maps span-phase name -> sorted list of durations in seconds."""
    durs = {name: [] for name in SPAN_PHASES}
    for ev in events:
        if ev.get("ph") == "X" and ev["name"] in durs:
            durs[ev["name"]].append(ev["dur"] * 1e-6)  # trace dur is in us
    for values in durs.values():
        values.sort()
    return durs


def summarize(events, out=sys.stdout):
    """Prints the per-phase latency table; returns the duration map."""
    durs = durations_by_phase(events)
    counts = {}
    for ev in events:
        if ev.get("ph") in ("X", "i"):
            counts[ev["name"]] = counts.get(ev["name"], 0) + 1

    header = f"{'phase':<18}{'count':>8}{'p50 ms':>12}{'p95 ms':>12}" \
             f"{'p99 ms':>12}{'mean ms':>12}{'max ms':>12}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for name in SPAN_PHASES:
        values = durs[name]
        if not values:
            # An empty phase is normal (no forwards, no sampled requests):
            # say so explicitly instead of dividing by a zero count or
            # silently dropping the row.
            print(f"{name:<18}{0:>8}{'(no samples)':>12}", file=out)
            continue
        mean = sum(values) / len(values)
        print(f"{name:<18}{len(values):>8}"
              f"{percentile(values, 50) * 1e3:>12.3f}"
              f"{percentile(values, 95) * 1e3:>12.3f}"
              f"{percentile(values, 99) * 1e3:>12.3f}"
              f"{mean * 1e3:>12.3f}"
              f"{values[-1] * 1e3:>12.3f}", file=out)
    for name in INSTANT_PHASES:
        if counts.get(name):
            print(f"{name:<18}{counts[name]:>8}{'(instant)':>12}", file=out)
    return durs


def check_ledger(doc):
    """Returns the ledger identities a quiescent snapshot breaks: in the
    totals (`counters`) and in every class and tenant slice, enqueued ==
    completed + rejected + shed + shutdown_refused and quota_rejected <=
    rejected; and the classes, as the tenants, sum to the totals counter by
    counter, histogram counts (against `latency`) included."""
    totals = dict(doc.get("counters", {}))
    for key in LEDGER_HISTOGRAMS:
        hist = doc.get("latency", {}).get(key, {})
        totals[key] = {"count": hist.get("count")}
    groups = {group: doc.get(group, {}) for group in ("classes", "tenants")}
    slices = [("counters", totals)] + [
        (f"{group}.{name}", part)
        for group, parts in groups.items() for name, part in parts.items()]
    problems = [f"{name} lacks {key}" for name, part in slices
                for key in LEDGER_COUNTERS + LEDGER_HISTOGRAMS
                if key not in part]
    if problems:
        return problems
    for name, part in slices:
        outcomes = sum(part[key] for key in
                       ("completed", "rejected", "shed", "shutdown_refused"))
        if part["enqueued"] != outcomes:
            problems.append(f"{name}: enqueued {part['enqueued']} != "
                            f"{outcomes} outcomes")
        if part["quota_rejected"] > part["rejected"]:
            problems.append(f"{name}: quota_rejected > rejected")
    for group, parts in groups.items():
        for key in LEDGER_COUNTERS + LEDGER_HISTOGRAMS:
            got = sum(ledger_count(part, key) for part in parts.values())
            if got != ledger_count(totals, key):
                problems.append(f"{group} sum to {key} {got}, the totals "
                                f"say {ledger_count(totals, key)}")
    return problems


def ledger_count(part, key):
    """A slice's counter, or the event count of one of its histograms."""
    return part[key]["count"] if key in LEDGER_HISTOGRAMS else part[key]


def check_lane_spans(events, doc):
    """Returns the lane-span counts a snapshot of the same untruncated run
    contradicts: tick spans against `phases.tick.count`, and forward spans
    with rows > 0 against `phases.forward.count` (the runtime folds only
    ticks that ran a forward into that histogram; a stepper records no
    forward span for a refresh the memo served entirely, and a span with 0
    rows, as older traces hold, is not counted)."""
    phases = doc.get("phases", {})
    spans = {"tick": 0, "forward": 0}
    for ev in events:
        if ev.get("ph") != "X" or ev["name"] not in spans:
            continue
        if ev["name"] == "forward" and ev.get("args", {}).get("rows", 0) <= 0:
            continue
        spans[ev["name"]] += 1
    problems = []
    for name, count in spans.items():
        want = phases.get(name, {}).get("count")
        if count != want:
            problems.append(f"{name} spans: the trace has {count}, "
                            f"phases.{name}.count is {want}")
    return problems


def check_metrics(events, metrics_path, tolerance, out=sys.stdout):
    """Cross-checks the trace against the MetricsJson snapshot of its run.

    Returns a list of mismatch strings (empty = pass): the broken ledger
    identities (check_ledger) first, then lane-span counts the phase
    histograms contradict (check_lane_spans), then queue_wait count and
    percentile mismatches. `tolerance` is the allowed ratio between the
    exact trace percentile and the bucketed histogram percentile; values
    under 50 us on both sides always pass (one bucket down there is wider
    than anything we care to gate on).
    """
    with open(metrics_path) as handle:
        doc = json.load(handle)
    hist = doc.get("latency", {}).get("queue_delay")
    if hist is None:
        return ["metrics JSON has no latency.queue_delay histogram"]
    waits = durations_by_phase(events)["queue_wait"]
    mismatches = check_ledger(doc) + check_lane_spans(events, doc)
    if hist.get("count") != len(waits):
        mismatches.append(
            "queue_wait count mismatch: trace has {} spans, histogram "
            "recorded {}".format(len(waits), hist.get("count")))
    for p, key in ((50, "p50_s"), (95, "p95_s"), (99, "p99_s")):
        trace_p = percentile(waits, p)
        hist_p = hist.get(key, 0.0)
        if trace_p < 50e-6 and hist_p < 50e-6:
            continue
        lo, hi = sorted((trace_p, hist_p))
        if lo <= 0.0 or hi / lo > tolerance:
            mismatches.append(
                f"queue delay p{p}: trace {trace_p * 1e3:.3f} ms vs "
                f"histogram {hist_p * 1e3:.3f} ms (tolerance x{tolerance})")
        else:
            print(f"queue delay p{p}: trace {trace_p * 1e3:.3f} ms ~ "
                  f"histogram {hist_p * 1e3:.3f} ms  ok", file=out)
    return mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Validate and summarize an ams_serve Chrome trace.")
    parser.add_argument("trace", help="Chrome trace JSON from ams_serve --trace")
    parser.add_argument("--metrics", default=None,
                        help="MetricsJson snapshot from the same run "
                             "(checks its request ledger and cross-checks "
                             "tick and forward counts and queue-delay "
                             "percentiles)")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="allowed trace/histogram percentile ratio "
                             "(default 1.5 = one sqrt(2) bucket plus slack)")
    args = parser.parse_args(argv)

    try:
        events, dropped = load_events(args.trace)
        counts = validate(events)
    except (TraceError, json.JSONDecodeError, OSError) as err:
        print(f"trace invalid: {err}", file=sys.stderr)
        return 1
    print(f"{args.trace}: {sum(counts.values())} events, "
          f"{len(counts)} phases — structurally valid")
    if dropped:
        print(f"{dropped} events dropped (trace rings wrapped): span counts "
              "undercount the run")
    summarize(events)

    if args.metrics:
        if dropped:
            print(f"metrics cross-check refused: the trace dropped {dropped} "
                  "events when its rings wrapped, so its spans cannot be "
                  "compared with the histograms; record a shorter run or "
                  "larger rings", file=sys.stderr)
            return 1
        try:
            mismatches = check_metrics(events, args.metrics, args.tolerance)
        except (json.JSONDecodeError, OSError) as err:
            print(f"metrics cross-check failed: {err}", file=sys.stderr)
            return 1
        if mismatches:
            for line in mismatches:
                print(f"metrics cross-check FAILED: {line}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
