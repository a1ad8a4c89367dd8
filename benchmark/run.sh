#!/usr/bin/env bash
# Builds the benchmark harness from source (Release, into build-benchmark/
# at the repository root) and runs it.
#
# One workload in one process; the last line of stdout is the result:
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Every workload (or the one named), each in its own process, untraced
# then traced, gathered into one JSON document (stdout, or out=FILE):
#   bash benchmark/run.sh [workload=NAME] [seed=N] [trace=0|1] [seconds=S]
#                         [smoke=1] [sets=N] [out=FILE]
# smoke=1 runs every workload at about 1/20 scale with a 1 s budget.
# Exits 1 when any run reports a correctness failure.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/build-benchmark"
jobs=$(nproc 2>/dev/null || echo 1)
if ((jobs > 4)); then jobs=4; fi

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --parallel "$jobs" >&2
bin="$build/ppf_benchmark"

if [[ "${1:-}" == --* ]]; then
  exec "$bin" "$@"
fi

workloads="sim_single fig1_grid tournament serve_hits serve_misses"
seed=42
traces="0 1"
seconds=""
smoke=0
sets=1
out=""
for arg in "$@"; do
  case "$arg" in
    workload=*) workloads=${arg#*=} ;;
    seed=*) seed=${arg#*=} ;;
    trace=*) traces=${arg#*=} ;;
    seconds=*) seconds=${arg#*=} ;;
    smoke=*) smoke=${arg#*=} ;;
    sets=*) sets=${arg#*=} ;;
    out=*) out=${arg#*=} ;;
    *) echo "run.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done
if [[ -z "$seconds" ]]; then
  if [[ "$smoke" == 1 ]]; then
    seconds=1
  else
    seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
  fi
fi

runs=""
failed=0
# Sets alternate within each workload, so that slow and fast periods of a
# shared host fall on every set alike.
for w in $workloads; do
  for set in $(seq 1 "$sets"); do
    for t in $traces; do
      echo "run.sh: set $set: $w seed=$seed trace=$t" >&2
      output=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace "$t" --smoke "$smoke")
      printf '%s\n' "$output" | sed '$d' >&2
      result=$(printf '%s\n' "$output" | tail -n 1)
      digest=$(printf '%s\n' "$output" |
        sed -n 's/^digest [^ ]* [^ ]* [^ ]* \([0-9a-f]*\).*/\1/p')
      if [[ "$result" != *'"correct":true'* ]]; then failed=1; fi
      runs+="${runs:+,}"$'\n'"{\"set\":$set,\"workload\":\"$w\",\"trace\":$t,\"digest\":\"$digest\",\"result\":$result}"
    done
  done
done

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
doc="{\"schema\":\"ppf.benchmark.v1\",\"command\":\"bash benchmark/run.sh $*\",\
\"commit\":\"$commit\",\"seed\":$seed,\"seconds\":$seconds,\"smoke\":$smoke,\
\"machine\":$("$bin" --describe),\"runs\":[$runs]}"
if [[ -n "$out" ]]; then
  printf '%s\n' "$doc" >"$out"
else
  printf '%s\n' "$doc"
fi
exit "$failed"
