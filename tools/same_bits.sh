#!/usr/bin/env bash
# Checks that a change moved no bit of what the repository's programs print
# or write: builds BASE_REF and the current checkout, runs the same seeded
# commands on both, and compares their stdout and every file they write.
#
# Usage (from anywhere inside the repository):
#
#   tools/same_bits.sh BASE_REF
#
# The commands are the deterministic ones ctest smoke-runs (CMakeLists.txt):
#  - the 14 paper benches, with ctest's scaled-down environment
#    (AMS_ITEMS=300 AMS_EVAL_ITEMS=100 AMS_EPISODES=60 AMS_HIDDEN=32);
#  - the four examples;
#  - ams_label's four smoke paths (Algorithm 1, --memory 8, --policy random
#    and --policy q_greedy over a 400-item corpus and a 60-episode agent).
# Each runs in a fresh directory of its own on each side, so every run that
# caches an agent trains it and writes its own checkpoint there. A command
# passes when both sides exit 0 with the same stdout (the seconds of
# quickstart's "trained:" line masked, the one wall-clock figure printed)
# and leave the same files with the same bytes (cmp).
#
# .same_bits at the repository root is emptied first and then holds both
# Release builds and, per side, every run's directory and stdout. BASE_REF
# is checked out as a detached git worktree in .same_bits/worktree, removed
# again on exit.
#
# Exit status: 0 when every command passes, 1 on any difference or failed
# run, 2 on a usage, checkout or build error.

set -uo pipefail

[[ $# -eq 1 ]] || { echo "usage: tools/same_bits.sh BASE_REF" >&2; exit 2; }
root=$(git rev-parse --show-toplevel) || exit 2
base_rev=$(git -C "$root" rev-parse --verify "$1^{commit}") || exit 2
out="$root/.same_bits"
base_tree="$out/worktree"

benches=(bench_fig02_policy_gap bench_fig04_05_value_prediction
         bench_fig06_rules_vs_agent bench_fig08_transfer
         bench_fig09_theta_priority bench_fig10_deadline
         bench_fig11_deadline_memory bench_fig12_transfer_deadline
         bench_table1_model_zoo bench_table2_rules
         bench_ablation_chunked_stream bench_ablation_end_action
         bench_ablation_reward_shaping bench_ablation_transfer_limits)
bench_env=(AMS_ITEMS=300 AMS_EVAL_ITEMS=100 AMS_EPISODES=60 AMS_HIDDEN=32)
examples=(data_market photo_album quickstart video_surveillance)
label_args=(--items 400 --episodes 60 --hidden 32 --label 100 --cache .)
label_paths=(algorithm1 memory policy_random policy_q_greedy)
label_extra=("" "--memory 8" "--policy random" "--policy q_greedy")

rm -rf "$out"
mkdir -p "$out"
git -C "$root" worktree prune
git -C "$root" worktree add --detach "$base_tree" "$base_rev" >/dev/null ||
  exit 2
trap 'git -C "$root" worktree remove --force "$base_tree"' EXIT

# build SIDE TREE: a Release build of the targets the commands run.
build() {
  local side=$1 tree=$2 log="$out/build-$1.log"
  echo "== building $side" >&2
  if ! { cmake -S "$tree" -B "$out/build-$side" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$out/build-$side" -j "$(nproc)" --target ams_label \
           "${examples[@]}" "${benches[@]}"; } >"$log" 2>&1; then
    echo "build of $side failed (see $log)" >&2
    exit 2
  fi
}

names=("${benches[@]}" "${examples[@]/#/example_}"
       "${label_paths[@]/#/ams_label_}")
# run SIDE NAME COMMAND...: runs COMMAND in .same_bits/SIDE/NAME, its stdout
# to .same_bits/SIDE/NAME.out.
run() {
  local side=$1 name=$2
  shift 2
  mkdir -p "$out/$side/$name"
  (cd "$out/$side/$name" && "$@") \
    >"$out/$side/$name.out" 2>"$out/$side/$name.err"
  local code=$?
  if (( code != 0 )); then
    echo "FAILED: $side $name exited $code (see $out/$side/$name.err)" >&2
    status=1
  fi
}

status=0
build base "$base_tree"
build head "$root"
for side in base head; do
  echo "== running $side" >&2
  bin="$out/build-$side"
  for bench in "${benches[@]}"; do
    run "$side" "$bench" env "${bench_env[@]}" "$bin/bench/$bench"
  done
  for example in "${examples[@]}"; do
    run "$side" "example_$example" "$bin/examples/$example"
  done
  for i in "${!label_paths[@]}"; do
    # Unquoted: "--memory 8" is two arguments, "" none.
    run "$side" "ams_label_${label_paths[$i]}" "$bin/tools/ams_label" \
      "${label_args[@]}" ${label_extra[$i]}
  done
done

# The only wall-clock figure the commands print.
for side in base head; do
  sed -i -E 's/^(trained: )[0-9.]+( s,)/\1<seconds>\2/' \
    "$out/$side/example_quickstart.out"
done

files=0
for name in "${names[@]}"; do
  if ! diff -q "$out/base/$name.out" "$out/head/$name.out" >/dev/null; then
    echo "DIFFERS: stdout of $name" >&2
    diff "$out/base/$name.out" "$out/head/$name.out" | head -n 20 >&2
    status=1
  fi
  base_files=$(cd "$out/base/$name" && find . -type f | sort)
  head_files=$(cd "$out/head/$name" && find . -type f | sort)
  if [[ $base_files != "$head_files" ]]; then
    echo "DIFFERS: the files $name wrote" >&2
    diff <(echo "$base_files") <(echo "$head_files") >&2
    status=1
  fi
  while read -r file; do
    [[ -n $file && -f "$out/head/$name/$file" ]] || continue
    files=$((files + 1))
    if ! cmp -s "$out/base/$name/$file" "$out/head/$name/$file"; then
      echo "DIFFERS: $name/${file#./}" >&2
      status=1
    fi
  done <<<"$base_files"
done

verdict=identical
(( status == 0 )) || verdict=DIFFERENT
echo "== base $base_rev vs the checkout: ${#names[@]} commands and $files" \
     "written files compared: $verdict"
exit "$status"
