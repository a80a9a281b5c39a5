#!/usr/bin/env python3
"""CI bench gate: diff freshly produced BENCH_*.json files against the
committed baselines and fail on per-scenario throughput regressions.

Usage:
    bench_compare.py BASELINE CANDIDATE [BASELINE CANDIDATE ...]

Each file is a bench JSON with a "configs" array of
{"name": ..., "items_per_s": ...} entries (bench_service_throughput,
bench_serve_runtime and bench_qforward all emit this shape).

What is compared
----------------
CI runners and developer machines differ wildly in absolute speed (and CI
runs the benches on a reduced workload), so raw items/s across files is not
comparable. The gate therefore compares each scenario's NORMALIZED
throughput: its items_per_s divided by the items_per_s of the file's first
config (the reference scenario — full / submit_batch / fp32_scalar). That
ratio is machine- and workload-size-portable: it measures what the repo's
own paths buy, which is exactly what a code change can regress. A scenario
whose normalized throughput drops by more than the threshold (default 25%,
AMS_BENCH_GATE_PCT env) fails the gate.

Setting AMS_BENCH_GATE_ABSOLUTE=1 additionally gates raw items_per_s with
the same threshold — only meaningful on a stable dedicated runner producing
both files under identical settings.

Scenarios present in the candidate but not the baseline (new benches) pass,
flagged "new" in the table and listed in an informational note — they are
gated starting from the first baseline regeneration that includes them.
Scenarios present in the baseline but missing from the candidate fail with
a message naming the scenario and both files (a silently dropped bench must
not pass the gate); deliberately removing a scenario requires regenerating
the committed baseline in the same change. The reference scenario itself is
gated only in absolute mode (its normalized value is 1 by construction).

The per-scenario delta table is printed to stdout and appended to
$GITHUB_STEP_SUMMARY when set.
"""

import json
import os
import sys


def load_configs(path):
    with open(path) as f:
        data = json.load(f)
    configs = data.get("configs", [])
    if not configs:
        raise SystemExit(f"{path}: no 'configs' array")
    ordered = []
    for config in configs:
        name = config.get("name")
        items_per_s = config.get("items_per_s")
        if name is None or not isinstance(items_per_s, (int, float)):
            raise SystemExit(f"{path}: config missing name/items_per_s: {config}")
        if items_per_s <= 0:
            raise SystemExit(f"{path}: non-positive items_per_s for {name}")
        ordered.append((name, float(items_per_s)))
    return ordered


def compare_pair(baseline_path, candidate_path, threshold_pct, absolute):
    """Returns (rows, failures, notes): one table row per scenario."""
    baseline = load_configs(baseline_path)
    candidate = load_configs(candidate_path)
    if baseline[0][0] != candidate[0][0]:
        # Normalization divides by each file's first config; comparing
        # against different references would skew every row silently.
        raise SystemExit(
            f"reference scenario mismatch: {baseline_path} normalizes by "
            f"'{baseline[0][0]}' but {candidate_path} by '{candidate[0][0]}' "
            f"— regenerate the baselines together")
    base_by_name = dict(baseline)
    cand_by_name = dict(candidate)
    base_ref = baseline[0][1]
    cand_ref = candidate[0][1]

    rows = []
    failures = []
    notes = []
    for name, base_raw in baseline:
        if name not in cand_by_name:
            failures.append(
                f"scenario '{name}' is in the baseline {baseline_path} but "
                f"the fresh run {candidate_path} did not produce it — the "
                f"bench no longer emits this scenario; if that is "
                f"intentional, regenerate the committed baseline in the "
                f"same change")
            rows.append((name, "missing", "", "", "FAIL"))
            continue
        cand_raw = cand_by_name[name]
        base_norm = base_raw / base_ref
        cand_norm = cand_raw / cand_ref
        delta_pct = (cand_norm / base_norm - 1.0) * 100.0
        verdicts = []
        is_reference = name == baseline[0][0]
        if not is_reference and delta_pct < -threshold_pct:
            verdicts.append(f"normalized throughput regressed "
                            f"{-delta_pct:.1f}% (> {threshold_pct:.0f}%)")
        abs_delta_pct = (cand_raw / base_raw - 1.0) * 100.0
        if absolute and abs_delta_pct < -threshold_pct:
            verdicts.append(f"absolute throughput regressed "
                            f"{-abs_delta_pct:.1f}% (> {threshold_pct:.0f}%)")
        status = "FAIL" if verdicts else "ok"
        for verdict in verdicts:
            failures.append(f"{name}: {verdict}")
        rows.append((name, f"{base_norm:.3f}", f"{cand_norm:.3f}",
                     f"{delta_pct:+.1f}%", status))
    for name, _ in candidate:
        if name not in base_by_name:
            rows.append((name, "(new)", f"{cand_by_name[name] / cand_ref:.3f}",
                         "", "new"))
            notes.append(
                f"scenario '{name}' is new (not in the baseline "
                f"{baseline_path}); informational only until the committed "
                f"baseline is regenerated to include it")
    return rows, failures, notes


def format_table(title, rows):
    lines = [f"### Bench gate: {title}", "",
             "| scenario | baseline (norm) | candidate (norm) | delta | status |",
             "|---|---|---|---|---|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    lines.append("")
    return "\n".join(lines)


def main(argv):
    if len(argv) < 3 or len(argv) % 2 == 0:
        print(__doc__)
        raise SystemExit(2)
    threshold_pct = float(os.environ.get("AMS_BENCH_GATE_PCT", "25"))
    absolute = os.environ.get("AMS_BENCH_GATE_ABSOLUTE", "") not in ("", "0")

    output = []
    all_failures = []
    all_notes = []
    for i in range(1, len(argv), 2):
        baseline_path, candidate_path = argv[i], argv[i + 1]
        rows, failures, notes = compare_pair(baseline_path, candidate_path,
                                             threshold_pct, absolute)
        output.append(format_table(os.path.basename(baseline_path), rows))
        all_failures.extend(f"{os.path.basename(baseline_path)}: {f}"
                            for f in failures)
        all_notes.extend(notes)

    report = "\n".join(output)
    mode = "normalized+absolute" if absolute else "normalized"
    report += (f"\nthreshold: {threshold_pct:.0f}% ({mode}; "
               f"AMS_BENCH_GATE_PCT / AMS_BENCH_GATE_ABSOLUTE)\n")
    for note in all_notes:
        report += f"NOTE: {note}\n"
    print(report)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(report + "\n")

    if all_failures:
        for failure in all_failures:
            print(f"BENCH GATE FAILURE: {failure}", file=sys.stderr)
        raise SystemExit(1)
    print("bench gate passed")


if __name__ == "__main__":
    main(sys.argv)
