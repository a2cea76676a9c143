#!/usr/bin/env python3
"""Interleaved A/B timing of two `leq` binaries on one equation.

    scripts/ab_solve.py BIN_A BIN_B F S [N]

Runs `BIN solve F S` N times per binary (default 10) as N pairs, swapping
which binary goes first in every other pair so slow stretches of a noisy
host hit both sides alike.  Prints, per binary, the median, quartiles and
minimum of the wall time and the peak RSS of its runs, then how many pairs
B won and B's median relative to A's.

Before timing, each binary solves the pair once with --no-timing and the two
JSON records are compared.  They may differ only in the computed-cache
traffic counters (stats.cache_lookups, stats.cache_hits, stats.op_cache)
and the collection count (stats.gc_runs); any other difference is a
changed answer, and the script exits 1.  Exit 2 is a usage error or a
failed solve.
"""

import json
import os
import statistics
import subprocess
import sys
import time

# record fields a pure speed change may move: cache traffic and GC runs
COUNTER_FIELDS = {("stats", "cache_lookups"), ("stats", "cache_hits"),
                  ("stats", "op_cache"), ("stats", "gc_runs")}


def fail(message):
    print("ab_solve: " + message, file=sys.stderr)
    sys.exit(2)


def record(binary, f, s):
    proc = subprocess.run([binary, "solve", f, s, "--no-timing"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{binary} solve exited {proc.returncode}: "
             f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def differences(a, b, path=()):
    """Paths (as tuples) where two JSON values differ, skipping COUNTER_FIELDS."""
    if path in COUNTER_FIELDS:
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        found = []
        for key in sorted(set(a) | set(b)):
            found += differences(a.get(key), b.get(key), path + (key,))
        return found
    return [] if a == b else [path]


def timed_run(binary, f, s):
    """One solve: wall seconds and peak RSS in MB."""
    with open(os.devnull, "w") as devnull:
        start = time.perf_counter()
        proc = subprocess.Popen([binary, "solve", f, s, "--no-timing"],
                                stdout=devnull, stderr=devnull)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        fail(f"{binary} solve failed during timing")
    return wall, usage.ru_maxrss / 1024.0


def summary(label, runs):
    walls = sorted(w for w, _ in runs)
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    rss = statistics.median(r for _, r in runs)
    print(f"{label}: wall median {median:.3f} s  q1 {q1:.3f}  q3 {q3:.3f}  "
          f"min {walls[0]:.3f}  peak_rss median {rss:.1f} MB")
    return median


def main(argv):
    if len(argv) not in (5, 6):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bin_a, bin_b, f, s = argv[1:5]
    pairs = int(argv[5]) if len(argv) == 6 else 10
    if pairs < 2:
        print("ab_solve: N must be at least 2", file=sys.stderr)
        return 2

    diff = differences(record(bin_a, f, s), record(bin_b, f, s))
    if diff:
        for path in diff:
            print("ab_solve: records differ at " + ".".join(path),
                  file=sys.stderr)
        return 1

    binaries = (bin_a, bin_b)
    runs = ([], [])
    wins = 0
    for k in range(pairs):
        pair = [None, None]
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            pair[side] = timed_run(binaries[side], f, s)
            runs[side].append(pair[side])
        wins += pair[1][0] < pair[0][0]

    print(f"ab_solve: {f} {s}, {pairs} interleaved pairs; records agree "
          "apart from cache traffic and GC runs")
    median_a = summary("A " + bin_a, runs[0])
    median_b = summary("B " + bin_b, runs[1])
    print(f"B faster in {wins}/{pairs} pairs; B median / A median = "
          f"{median_b / median_a:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
