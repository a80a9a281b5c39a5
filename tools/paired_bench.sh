#!/usr/bin/env bash
# Paired A/B run of the benchmark on one machine: the base commit against
# the current checkout, alternating sides, then compare.py over the two
# result sets. No baseline recorded on another host is involved.
#
# Usage (from anywhere inside the repository):
#
#   tools/paired_bench.sh BASE_REF
#
# .paired_bench at the repository root is emptied first and then holds the
# two result sets (base/ and head/), each run's log and both builds.
# BASE_REF is checked out as a detached git worktree in
# .paired_bench/worktree, removed again on exit.
# For seeds 1-3 and every workload of the checkout's BENCHMARK.json, each
# side runs its own benchmark/run.py --workload W --seed S --seconds 4 into
# its own results directory, built in its own CARGO_TARGET_DIR. The base
# runs only the workloads its own BENCHMARK.json also lists (its run.py
# accepts no other), so a workload new in the checkout shows up in
# compare.py as having no runs on the base side. The side that goes first
# alternates per seed, so drift in the host's speed hits both alike.
#
# Exit status: 1 when any run fails (a build failure, a run failure or an
# output mismatch against Submit) or when the checkout's compare.py finds an
# end-to-end metric worse than its BENCHMARK.json bound; 0 otherwise.

set -uo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: tools/paired_bench.sh BASE_REF" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel) || exit 2
base_rev=$(git -C "$root" rev-parse --verify "$1^{commit}") || exit 2
out="$root/.paired_bench"
base_tree="$out/worktree"

# workloads_of BENCHMARK_JSON: the workload names it lists, one line each.
workloads_of() {
  python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])
' "$1"
}

rm -rf "$out"
mkdir -p "$out"
git -C "$root" worktree prune
git -C "$root" worktree add --detach "$base_tree" "$base_rev" >/dev/null ||
  exit 2
trap 'git -C "$root" worktree remove --force "$base_tree"' EXIT
if [[ ! -f "$base_tree/benchmark/run.py" ||
      ! -f "$base_tree/BENCHMARK.json" ]]; then
  echo "base $base_rev has no benchmark/run.py and BENCHMARK.json" >&2
  exit 2
fi
head_workloads=$(workloads_of "$root/BENCHMARK.json") || exit 2
base_workloads=$(workloads_of "$base_tree/BENCHMARK.json") || exit 2

status=0
# run_side SIDE TREE WORKLOAD SEED
run_side() {
  local side=$1 tree=$2 workload=$3 seed=$4
  if [[ $side == base ]] && ! grep -qxF "$workload" <<<"$base_workloads"; then
    echo "== base $workload seed $seed: not a workload of the base, skipped" >&2
    return
  fi
  echo "== $side $workload seed $seed" >&2
  if ! CARGO_TARGET_DIR="$out/build-$side" python3 "$tree/benchmark/run.py" \
      --workload "$workload" --seed "$seed" --seconds 4 \
      --results "$out/$side" >"$out/$side-$workload-s$seed.log"; then
    echo "FAILED: $side $workload seed $seed" \
         "(see $out/$side-$workload-s$seed.log)" >&2
    status=1
  fi
}

for seed in 1 2 3; do
  for workload in $head_workloads; do
    if (( seed % 2 == 1 )); then
      run_side base "$base_tree" "$workload" "$seed"
      run_side head "$root" "$workload" "$seed"
    else
      run_side head "$root" "$workload" "$seed"
      run_side base "$base_tree" "$workload" "$seed"
    fi
  done
done

echo "== base $base_rev vs head $(git -C "$root" rev-parse HEAD)" \
     "(4 s runs, seeds 1-3)"
python3 "$root/benchmark/compare.py" "$out/base" "$out/head" || status=1
exit "$status"
