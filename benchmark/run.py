#!/usr/bin/env python3
"""Builds and runs the labeling-service benchmark.

One workload (the form BENCHMARK.json's command takes):

    python3 benchmark/run.py --workload album_hot --seed 1 --seconds 30 \
        --trace 0

prints every end-to-end metric by name with its unit (--trace 0), or every
per-layer metric (--trace 1), and ends with one JSON line:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The whole suite, every workload in turn:

    python3 benchmark/run.py --seed 1 [--trace 1]

The program is built from source under the checkout (CMake, Release) into
$CARGO_TARGET_DIR or .bench_build; results files go to .bench_results (or
--results DIR), one per workload, seed and mode, which compare.py reads.
Exit codes: 0 ok, 1 a build or run failure or an output mismatch, 3 (suite
only) a run flagged invalid.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Share of --seconds the traced serving pass gets; the layer pass gets the
# rest.
TRACED_SERVING_SHARE = 0.5
# Wall-clock metrics every untraced run measures and prints but that carry
# no bound: on a shared host they follow the hypervisor's steal (README.md,
# "The host").
WALL_CLOCK = ("throughput_items_per_s", "latency_p50_ms", "album_p50_ms")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# The child running now, so a signal to run.py can take it down too.
_active = []


def _terminate(signum, _frame):
    for proc in _active:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    sys.exit(128 + signum)


def run_process(cmd, timeout_s):
    """Runs `cmd` in its own process group (a build spawns compilers); on
    timeout kills the whole group and waits for it. Returns (returncode,
    stdout, stderr); returncode is None after a timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    _active.append(proc)
    try:
        out, err = proc.communicate(timeout=timeout_s)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err + "\ntimed out after %d s" % timeout_s
    finally:
        _active.remove(proc)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds both binaries; returns the build dir."""
    out_dir = build_dir()
    if not (out_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc, out, err = run_process(cmd, BUILD_TIMEOUT_S)
        if rc != 0:
            log(out, err)
            # A half-configured tree would skip configuration next time.
            shutil.rmtree(out_dir, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    rc, out, err = run_process(
        ["cmake", "--build", str(out_dir), "-j", "4"], BUILD_TIMEOUT_S)
    if rc != 0:
        log(out, err)
        raise RuntimeError("build failed")
    return out_dir


def source_rev():
    """Digest of the sources the binaries are built from (the checkout need
    not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "benchmark"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, out_path, rev, extra=()):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--out", str(out_path),
           "--rev", rev, *extra]
    rc, out, err = run_process(cmd, RUN_TIMEOUT_S)
    if err.strip():
        log(err.strip())
    if rc not in (0, 1) or not out_path.exists():
        raise RuntimeError("%s exited with %s" % (binary.name, rc))
    with open(out_path) as f:
        return json.load(f)


def reconcile(workload, metrics):
    """Per-item worker CPU of the serving pass against the single-thread
    layer costs of the layer pass; returns the metrics it adds."""
    m = {k: v["value"] for k, v in metrics.items()}
    if workload == "offline_batch":
        parts = {"driver": 1e6 / m["driver.items_per_s"]}
    else:
        parts = {"stepper": 1e6 / m["stepper.items_per_s"],
                 "push_pop": m["admission.push_pop_ns"] / 1e3}
    layers = sum(parts.values())
    worker = m["cpu_us_per_item"]
    log("reconcile: worker CPU %.3f us/item vs layers %.3f us/item (%s); "
        "remainder %.3f us/item" % (
            worker, layers,
            ", ".join("%s %.3f" % kv for kv in parts.items()),
            worker - layers))
    return {"reconcile.unexplained_frac": {"value": 1.0 - layers / worker,
                                           "unit": "frac"}}


def run_workload(workload, seed, seconds, trace, results_dir, binaries, rev):
    """Runs one workload; returns the results record run.py writes."""
    stem = "%s-s%d-trace%d" % (workload, seed, trace)
    passes = []
    if trace:
        serving_s = seconds * TRACED_SERVING_SHARE
        passes.append(run_binary(
            binaries / "ams_bench", workload, seed, serving_s,
            results_dir / (stem + ".serving.json"), rev,
            ["--trace", "--trace-out",
             str(results_dir / (stem + ".chrome_trace.json"))]))
        passes.append(run_binary(
            binaries / "ams_bench_layers", workload, seed, seconds - serving_s,
            results_dir / (stem + ".layers.json"), rev))
    else:
        passes.append(run_binary(
            binaries / "ams_bench", workload, seed, seconds,
            results_dir / (stem + ".serving.json"), rev))
    metrics = {}
    for p in passes:
        metrics.update(p["metrics"])
    metrics["check_s"] = {"value": sum(p["metrics"]["check_s"]["value"]
                                       for p in passes), "unit": "s"}
    if trace:
        metrics.update(reconcile(workload, metrics))
    serving = passes[0]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": serving["machine"],
        "phases": serving.get("phases", {}),
        "correct": all(p["correct"] for p in passes),
        "valid": all(p["valid"] for p in passes),
        "invalid_reasons": sum((p["invalid_reasons"] for p in passes), []),
        "mismatches": sum((p["mismatches"] for p in passes), []),
        "checked_items": sum(p["checked_items"] for p in passes),
        "attempted": serving["attempted"],
        "failed": serving["failed"],
        "metrics": metrics,
    }


def result_line(record, names):
    """The contract's last line: only the listed metrics."""
    missing = [n for n in names if n not in record["metrics"]]
    if missing:
        raise RuntimeError("metrics missing from the run: %s" % missing)
    return {
        "correct": record["correct"],
        "attempted": max(1, int(record["attempted"])),
        "failed": int(record["failed"]),
        "metrics": {n: {"value": record["metrics"][n]["value"],
                        "unit": record["metrics"][n]["unit"]} for n in names},
    }


def print_table(record, names):
    print("%s seed %d (%s), %s s, %d items checked against Submit in %.2f s%s" % (
        record["workload"], record["seed"],
        "traced" if record["trace"] else "untraced", record["seconds"],
        record["checked_items"], record["metrics"]["check_s"]["value"],
        "" if record["valid"] else
        ", INVALID: " + "; ".join(record["invalid_reasons"])))
    shown = list(names)
    if not record["trace"]:
        shown += [n for n in WALL_CLOCK if n not in names]
    for n in shown:
        m = record["metrics"][n]
        samples = " (n=%d)" % m["samples"] if "samples" in m else ""
        print("  %-34s %14.6g %-8s%s%s" % (
            n, m["value"], m["unit"], samples,
            "" if n in names else "  wall clock, no bound"))
    machine = record["machine"]
    print("  failed %d of %d attempted" % (record["failed"], record["attempted"]))
    print("  host probe: %.0f -> %.0f Mops before -> after, "
          "%.1f ns per memory hop after, %.2f%% of vCPU time stolen" % (
              machine["probe_alu_mops_before"], machine["probe_alu_mops_after"],
              machine["probe_mem_ns"], 100 * machine["host_steal_frac"]))


def main():
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads,
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(ROOT / ".bench_results"),
                        help="directory for the results files")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 2 <= args.seconds <= 120:
        parser.error("--seconds must be in [2, 120]")

    try:
        binaries = build()
    except RuntimeError as e:
        log("error:", e)
        return 1
    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    rev = source_rev()
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[key]]

    status = 0
    for workload in ([args.workload] if args.workload else workloads):
        start = time.monotonic()
        try:
            record = run_workload(workload, args.seed, args.seconds, args.trace,
                                  results_dir, binaries, rev)
            line = result_line(record, names)
        except (RuntimeError, KeyError, ValueError) as e:
            log("error: %s: %s" % (workload, e))
            return 1
        record["wall_s"] = time.monotonic() - start
        with open(results_dir / ("%s-s%d-trace%d.json" % (
                workload, args.seed, args.trace)), "w") as f:
            json.dump(record, f, indent=1)
        print_table(record, names)
        for m in record["mismatches"]:
            print("  MISMATCH", m)
        if not record["correct"]:
            status = 1
        elif not record["valid"] and not args.workload and status == 0:
            status = 3
        if args.workload:
            print(json.dumps(line), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
