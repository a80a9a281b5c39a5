#!/usr/bin/env python3
"""Compares two sets of benchmark results files (written by run.py).

    python3 benchmark/compare.py BASE_DIR NEW_DIR [--trace 1] [--pairs]

For every workload and metric it prints each side's median and quartiles
and a verdict against the metric's BENCHMARK.json bound:

  ok          the new median is no worse than the base median by more than
              the bound;
  REGRESSION  it is worse by more than the bound;
  unresolved  either side's spread (interquartile range over median) is
              wider than the bound, so the runs cannot tell, unless every
              new run reads better than every base run ("better, all runs").

Per-layer metrics (--trace 1) have no bound; their change is shown only.

--pairs applies the claim rule for a gain: runs pair up by seed (run them
alternating parent and change), the change must win at least 9 of every 10
pairs (ties count for neither), and the medians must differ by more than
the base side's interquartile range. No gain is granted on a workload with
fewer than 10 pairs, with a new run whose outputs are incorrect, or whose
new runs failed more requests than the base runs. Exit code 1 when any
end-to-end metric regresses (or, with --pairs, when no metric meets the
rule).
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
RECORD = re.compile(
    r"^(?P<workload>.+)-s(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def load(directory, trace):
    """{workload: {seed: record}} of the run records in `directory`."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        m = RECORD.match(path.name)
        if not m or int(m["trace"]) != trace:
            continue
        with open(path) as f:
            record = json.load(f)
        runs.setdefault(m["workload"], {})[int(m["seed"])] = record
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(base, new, metric):
    better, bound = metric["better"], metric.get("bound")
    if bound is None:
        return ""
    if all(is_better(n, b, better) for n in new for b in base):
        return "better, all runs"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    worse = worse_by(statistics.median(base), statistics.median(new), better)
    return "REGRESSION" if worse > bound else "ok"


def gain_blocker(base_runs, new_runs):
    """Why no metric of a workload may claim a gain, or None."""
    seeds = sorted(set(base_runs) & set(new_runs))
    if len(seeds) < MIN_PAIRS:
        return "%d pairs, the claim rule needs %d" % (len(seeds), MIN_PAIRS)
    wrong = [s for s in seeds if not new_runs[s]["correct"]]
    if wrong:
        return "new runs with incorrect outputs (seeds %s)" % wrong
    base_failed = sum(base_runs[s]["failed"] for s in seeds)
    new_failed = sum(new_runs[s]["failed"] for s in seeds)
    if new_failed > base_failed:
        return "the new runs failed %d requests, the base runs %d" % (
            new_failed, base_failed)
    return None


def pairs_claim(base_runs, new_runs, metric):
    """The claim rule's comparison over runs paired by seed; returns (wins,
    pairs, ok). gain_blocker() holds the workload-wide conditions."""
    name, better = metric["name"], metric["better"]
    seeds = sorted(set(base_runs) & set(new_runs))
    if not seeds:
        return 0, 0, False
    base = [base_runs[s]["metrics"][name]["value"] for s in seeds]
    new = [new_runs[s]["metrics"][name]["value"] for s in seeds]
    wins = sum(1 for b, n in zip(base, new) if is_better(n, b, better))
    q1, base_med, q3 = quartiles(base)
    separated = abs(statistics.median(new) - base_med) > q3 - q1
    return wins, len(seeds), wins >= 0.9 * len(seeds) and separated and \
        is_better(statistics.median(new), base_med, better)


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%11.5g [%.5g, %.5g]" % (med, q1, q3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", action="store_true")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    base_all, new_all = load(args.base, args.trace), load(args.new, args.trace)
    regressions = claims = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        base_runs, new_runs = base_all.get(workload), new_all.get(workload)
        if not base_runs or not new_runs:
            print("== %s: no runs on %s side" % (
                workload, "either" if not base_runs and not new_runs else
                "the base" if not base_runs else "the new"))
            continue
        print("== %s: %d base runs, %d new runs" % (
            workload, len(base_runs), len(new_runs)))
        # The host's own speed on each side: a difference here moves every
        # timing metric without any change to the program.
        for side, runs in (("base", base_runs), ("new", new_runs)):
            machines = [r["machine"] for r in runs.values()]
            print("   %s host probe: %.0f Mops, %.1f ns per memory hop, "
                  "steal %.2f%% (max %.2f%%)" % (
                      side,
                      statistics.median(m["probe_alu_mops_before"]
                                        for m in machines),
                      statistics.median(m["probe_mem_ns"] for m in machines),
                      100 * statistics.median(m["host_steal_frac"]
                                              for m in machines),
                      100 * max(m["host_steal_frac"] for m in machines)))
        for side, runs in (("base", base_runs), ("new", new_runs)):
            for seed, record in sorted(runs.items()):
                if not record["correct"]:
                    print("   %s seed %d: OUTPUTS INCORRECT" % (side, seed))
                if not record["valid"]:
                    print("   %s seed %d invalid: %s" % (
                        side, seed, "; ".join(record["invalid_reasons"])))
        blocker = gain_blocker(base_runs, new_runs) if args.pairs else None
        if blocker:
            print("   no gain can be claimed: %s" % blocker)
        print("   %-32s %-8s %-36s %-36s %8s  %s" % (
            "metric", "unit", "base median [q1, q3]", "new median [q1, q3]",
            "change", "verdict"))
        for metric in metrics:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in base_runs.values()]
            new = [r["metrics"][name]["value"] for r in new_runs.values()]
            bm, nm = statistics.median(base), statistics.median(new)
            change = (nm - bm) / abs(bm) if bm else float("nan")
            v = verdict(base, new, metric)
            regressions += v == "REGRESSION"
            if args.pairs:
                wins, n, ok = pairs_claim(base_runs, new_runs, metric)
                ok = ok and blocker is None
                claims += ok
                v += "%s%d/%d wins%s" % ("; " if v else "", wins, n,
                                         ", GAIN" if ok else "")
            print("   %-32s %-8s %-36s %-36s %+7.1f%%  %s" % (
                name, metric["unit"], fmt(base), fmt(new), 100 * change, v))
    if args.pairs:
        return 0 if claims else 1
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
