#!/usr/bin/env bash
# Same-host, interleaved A/B of two revisions on the repository benchmark.
#
#   scripts/bench_ab.sh BASE HEAD [--pairs N] [--seed S] [--workload W]
#                       [--work-dir DIR]
#
# BASE and HEAD are any git revisions of this repository. Each one is
# exported with `git archive` into its own tree under the work directory,
# which leaves the repository itself untouched (run.py's manifests then
# record git_rev "unknown"; the side is in each result's file name). Each
# tree is built by perfbench/run.py into its own build directory, passed
# as CARGO_TARGET_DIR.
#
# Sharing one build directory between revisions is refused: run.py
# configures only once, and the CMake cache pins the source directory, so
# a shared or copied build directory silently benchmarks the *other*
# tree. The script therefore rejects a CARGO_TARGET_DIR from the
# environment, and checks that each side's CMake cache names that side's
# own tree.
#
# After one smoke run per side (the build, plus a check that the outputs
# still match perfbench/reference.json), it runs N pairs of
# `run.py --workload W --seed S --out ...` at run.py's own run length,
# alternating which side goes first. For every end-to-end metric that
# BENCHMARK.json declares, it prints each pair's values and the number of
# pairs in which HEAD was better (ties count for neither side), and it
# ends with perfbench/compare.py over all results. Results and logs stay
# in the work directory (default: a new directory under ${TMPDIR:-/tmp});
# passing the same --work-dir again reuses its trees and builds.
#
# Defaults: --pairs 10, --seed 0, --workload model_crash. Exit status:
# compare.py's (0, or 1 on a regression), or 2 on usage, checkout and
# build errors.

set -euo pipefail

usage() {
  sed -n '2,33p' "$0" | sed 's/^# \{0,1\}//'
}

die() {
  echo "bench_ab: $*" >&2
  exit 2
}

pairs=10
seed=0
workload=model_crash
work=""
revs=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --help|-h) usage; exit 0 ;;
    --pairs) pairs="${2:?--pairs needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --work-dir) work="${2:?--work-dir needs a value}"; shift 2 ;;
    -*) die "unknown option $1 (see --help)" ;;
    *) revs+=("$1"); shift ;;
  esac
done
[[ ${#revs[@]} -eq 2 ]] || { usage >&2; exit 2; }
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || die "--pairs must be a positive integer"
[[ "$seed" =~ ^[0-9]+$ ]] || die "--seed must be a non-negative integer"
[[ -z "${CARGO_TARGET_DIR:-}" ]] ||
  die "CARGO_TARGET_DIR is set; each side needs its own build directory, so unset it"

repo="$(cd "$(dirname "$0")/.." && pwd)"
compare="$repo/perfbench/compare.py"
base_rev="$(git -C "$repo" rev-parse --verify "${revs[0]}^{commit}")" ||
  die "not a revision: ${revs[0]}"
head_rev="$(git -C "$repo" rev-parse --verify "${revs[1]}^{commit}")" ||
  die "not a revision: ${revs[1]}"
if [[ -z "$work" ]]; then
  work="$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")"
fi
mkdir -p "$work/results" "$work/logs"
# The physical path: CMake records the physical source directory, which
# check_build_dir compares with paths under this one.
work="$(cd "$work" && pwd -P)"
rm -f "$work"/results/*.json  # results of an earlier call would mix in

# Exports `rev` into $work/<side> (or checks that an earlier call did).
prepare_tree() {
  local side="$1" rev="$2" tree="$work/$1"
  if [[ -e "$tree" ]]; then
    [[ "$(cat "$work/$side.rev" 2>/dev/null)" == "$rev" ]] ||
      die "$tree holds another revision; use a fresh --work-dir"
    return
  fi
  mkdir -p "$tree"
  git -C "$repo" archive "$rev" | tar -x -C "$tree" ||
    die "git archive failed for $rev"
  echo "$rev" > "$work/$side.rev"
}

# Refuses a build directory whose CMake cache was configured for another
# source tree.
check_build_dir() {
  local side="$1" cache="$work/$1-build/perfbench/CMakeCache.txt"
  [[ -f "$cache" ]] || return 0
  local home
  home="$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$cache")"
  [[ "$home" == "$work/$side/perfbench" ]] ||
    die "$work/$side-build is configured for $home, not $work/$side/perfbench"
}

# run.py inside one side's tree with that side's build directory, its
# output going to the log file named second. The ceiling keeps run.py's
# `git rev-parse` from recording the revision of a repository that
# encloses the work directory.
run_side() {
  local side="$1" log="$2"
  shift 2
  check_build_dir "$side"
  (cd "$work/$side" && GIT_CEILING_DIRECTORIES="$work" \
    CARGO_TARGET_DIR="$work/$side-build" python3 perfbench/run.py "$@") > "$log" 2>&1
}

prepare_tree base "$base_rev"
prepare_tree head "$head_rev"
for side in base head; do
  echo "bench_ab: building $side ($(cat "$work/$side.rev")) in $work/$side-build" >&2
  run_side "$side" "$work/logs/$side-smoke.log" --smoke --workload "$workload" ||
    die "$side: smoke run failed, see $work/logs/$side-smoke.log"
  check_build_dir "$side"
done

for ((i = 1; i <= pairs; ++i)); do
  order=(base head)
  (( i % 2 == 0 )) && order=(head base)
  for side in "${order[@]}"; do
    echo "bench_ab: pair $i/$pairs: $side" >&2
    run_side "$side" "$work/logs/$side-$i.log" --workload "$workload" --seed "$seed" \
      --out "$work/results/$side-$i.json" ||
      die "$side: run.py failed in pair $i, see $work/logs/$side-$i.log"
  done
done

python3 - "$work/results" "$pairs" "$workload" "$repo/BENCHMARK.json" <<'PY'
import json, os, sys
results, pairs, workload, spec = sys.argv[1:5]
pairs = int(pairs)
with open(spec, encoding="utf-8") as f:
    metrics = json.load(f)["end_to_end"]

def values(side, i):
    """workload -> {metric: value} of one run's results."""
    with open(os.path.join(results, f"{side}-{i}.json"), encoding="utf-8") as f:
        return {r["workload"]: {name: m["value"]
                                for name, m in r["result"]["metrics"].items()}
                for r in json.load(f)}

runs = [(values("base", i), values("head", i)) for i in range(1, pairs + 1)]
for w in sorted(runs[0][0]) if workload == "all" else [workload]:
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        better = 0
        print(f"== {w} {name} per pair (odd pairs ran base first)")
        for i, (base, head) in enumerate(runs, 1):
            a, b = base[w][name], head[w][name]
            won = b > a if higher else b < a
            better += won
            change = f"{(b - a) / a:+8.2%}" if a else " " * 8
            mark = "  head better" if won else "  tie" if a == b else ""
            print(f"  pair {i:3d}  base {a:12.6g}  head {b:12.6g}  {change}{mark}")
        print(f"head better in {better} of {pairs} pairs")
PY

base_files=("$work"/results/base-*.json)
head_files=("$work"/results/head-*.json)
echo "bench_ab: results in $work/results" >&2
status=0
python3 "$compare" --base "${base_files[@]}" --head "${head_files[@]}" || status=$?
exit "$status"
