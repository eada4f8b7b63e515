#!/usr/bin/env bash
# Builds the end-to-end benchmark (Release, into build-bench/ at the root of
# the checkout) and runs it.
#
#   bench/e2e/run.sh                      every workload, untraced then traced
#   bench/e2e/run.sh --workload NAME [--seed S] [--seconds T] [--trace 0|1]
#                                         one run (the benchmark contract)
#   bench/e2e/run.sh --selftest           unit tests of the bench's own math
#   bench/e2e/run.sh --smoke              one game per lane of every workload
#   bench/e2e/run.sh --baseline ROUNDS    ROUNDS interleaved rounds of all
#                                         workloads (seeds 1..ROUNDS), then
#                                         writes bench/e2e/baseline.json
#
# Build output goes to standard error; the last line of standard output of
# a single run is its JSON result line.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"
out="$build/out"
workloads=(selfplay_gomoku9 analysis_connect4 zoo_mixed)

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2

commit=unknown
dirty=0
toplevel="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null || true)"
if [[ "$toplevel" == "$root" ]]; then
  commit="$(git -C "$root" rev-parse HEAD)"
  changes="$(git -C "$root" status --porcelain --untracked-files=no)"
  [[ -z "$changes" ]] || dirty=1
fi
bench() {
  "$build/e2e_bench" --commit "$commit" --dirty "$dirty" --out "$out" "$@"
}

case "${1:-}" in
  --selftest)
    exec "$build/e2e_selftest" "$root/BENCHMARK.json"
    ;;
  --smoke)
    for w in "${workloads[@]}"; do bench --workload "$w" --games 1; done
    ;;
  --baseline)
    rounds="${2:?--baseline needs a round count}"
    dir="$out/baseline"
    rm -rf "$dir"
    for ((seed = 1; seed <= rounds; seed++)); do
      for w in "${workloads[@]}"; do
        bench --workload "$w" --seed "$seed" --out "$dir" > /dev/null
      done
    done
    for w in "${workloads[@]}"; do
      bench --workload "$w" --trace 1 --out "$dir" > /dev/null
    done
    "$build/e2e_bench" --summarize "$dir"/*.trace[01].json \
      --summary-out "$here/baseline.json"
    ;;
  "")
    for w in "${workloads[@]}"; do
      bench --workload "$w" --trace 0
      bench --workload "$w" --trace 1
    done
    ;;
  *)
    bench "$@"
    ;;
esac
