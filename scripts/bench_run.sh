#!/usr/bin/env bash
# The pinned-benchmark driver, mirroring what the CI bench job does:
#
#   1. build the standard runner (Release) into build-bench/;
#   2. replay the pinned workloads into bench-current.json;
#   3. print the per-workload delta table for every gated metric (the same
#      Markdown the CI job drops into its job summary);
#   4. gate the run against the checked-in BENCH_PR25.json baseline —
#      exit 1 when any gated deterministic counter regresses past its
#      budget (wall clock is recorded but never gated).
#
# Usage: scripts/bench_run.sh [--update-baseline]
#
#   --update-baseline  rewrite BENCH_PR25.json (and bench/corpus/) from this
#                      run instead of comparing — for PRs that intentionally
#                      change a pinned metric.  Review the diff before
#                      committing: shrinking counters are wins, growing ones
#                      need a story.
set -euo pipefail

cd "$(dirname "$0")/.."

update=0
[ "${1:-}" = "--update-baseline" ] && update=1

cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DBUILD_TESTING=OFF \
      -DLEQ_BUILD_BENCH=OFF -DLEQ_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-bench -j --target leq_bench_run >/dev/null

./build-bench/leq_bench_run --out bench-current.json

if [ "$update" = 1 ]; then
    if [ -f BENCH_PR25.json ]; then
        echo "bench_run: delta vs the old baseline:"
        ./build-bench/leq_bench_run --delta BENCH_PR25.json bench-current.json
    fi
    mv bench-current.json BENCH_PR25.json
    ./build-bench/leq_bench_run --write-corpus bench/corpus
    echo "bench_run: BENCH_PR25.json and bench/corpus/ rewritten from this run"
else
    ./build-bench/leq_bench_run --delta BENCH_PR25.json bench-current.json
    ./build-bench/leq_bench_run --compare BENCH_PR25.json bench-current.json
fi
