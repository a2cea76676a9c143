#!/usr/bin/env bash
# The pinned-benchmark driver, mirroring what the CI bench job does:
#
#   1. build the standard runner (Release) into build-bench/;
#   2. replay the pinned workloads into bench-current.json;
#   3. print the per-workload delta table for every gated metric (the same
#      Markdown the CI job drops into its job summary);
#   4. gate the run against the checked-in baseline, the one
#      BENCH_PR<n>.json at the repo root (CMake finds it) — exit 1 when any
#      gated deterministic counter regresses past its budget (the report
#      holds no wall clock; time builds with scripts/ab_solve.py).
#
# Usage: scripts/bench_run.sh [--update-baseline [BENCH_PR<n>.json]]
#
#   --update-baseline  print the delta against the current baseline, then
#                      replace it with this run (under the given name, else
#                      under its own) and rewrite bench/corpus/ — for
#                      changes that intentionally move a pinned metric.
#                      Review the diff before committing: shrinking
#                      counters are wins, growing ones need a story.
set -euo pipefail

cd "$(dirname "$0")/.."

update=0
new_name=
if [ "${1:-}" = "--update-baseline" ]; then
    update=1
    new_name=${2:-}
    case "$new_name" in
        ""|BENCH_PR*.json) ;;
        *) echo "bench_run: the baseline must be named BENCH_PR<n>.json" >&2
           exit 2 ;;
    esac
fi

cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DBUILD_TESTING=OFF \
      -DLEQ_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-bench -j --target leq_bench_run >/dev/null
old=$(cat build-bench/bench_baseline.txt)

./build-bench/leq_bench_run --out bench-current.json

# the one-report forms below read the baseline compiled in, $old
echo "bench_run: delta vs $(basename "$old"):"
./build-bench/leq_bench_run --delta bench-current.json
if [ "$update" = 1 ]; then
    new="$PWD/${new_name:-$(basename "$old")}"
    rm "$old"
    mv bench-current.json "$new"
    ./build-bench/leq_bench_run --write-corpus bench/corpus
    echo "bench_run: $(basename "$new") and bench/corpus/ rewritten from this run"
else
    ./build-bench/leq_bench_run --compare bench-current.json
fi
