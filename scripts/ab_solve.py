#!/usr/bin/env python3
"""Interleaved A/B timing of two `leq` binaries on one equation or a batch.

    scripts/ab_solve.py BIN_A BIN_B F S [N] [--command solve|verify]
    scripts/ab_solve.py BIN_A BIN_B --batch MANIFEST [N]

Runs `BIN solve F S` N times per binary (default 10) as N pairs, swapping
which binary goes first in every other pair so slow stretches of a noisy
host hit both sides alike.  `--command verify` runs `BIN verify F S`
instead, which adds the F . X <= S walk to the solve; `--batch` runs
`BIN batch MANIFEST --command verify --jobs 2`.  Prints, per binary, the
median, quartiles and minimum of the wall time and the peak RSS of its
runs, then how many pairs B won and B's median relative to A's.  Each
timed run is forked from a bare interpreter, so a peak RSS under about
5 MB reads as that floor.

Before timing, each binary runs the command once with --no-timing and the
JSON records are compared, record by record for a batch.  They may differ
only in the computed-cache traffic counters (stats.cache_lookups,
stats.cache_hits, stats.op_cache), the collection count (stats.gc_runs),
the node counters (stats.live_nodes, stats.allocated_nodes and
stats.subst_nodes, which the variable order and the collector move without
changing the answer); any other difference is a changed answer, and the
script exits 1.  Exit 2 is a usage error or a failed run.
"""

import json
import statistics
import subprocess
import sys

# record fields a pure speed change may move: cache traffic, GC runs and
# node counts
COUNTER_FIELDS = {("stats", "cache_lookups"), ("stats", "cache_hits"),
                  ("stats", "op_cache"), ("stats", "gc_runs"),
                  ("stats", "live_nodes"), ("stats", "allocated_nodes"),
                  ("stats", "subst_nodes")}


def fail(message):
    print("ab_solve: " + message, file=sys.stderr)
    sys.exit(2)


def record_lines(binary, args):
    """The JSON record lines one --no-timing run prints, in output order.

    They stay text until compared, one pair at a time: a child inherits
    this process's peak RSS as the floor of its own, so holding a whole
    campaign's parsed records here would hide the binaries' peaks."""
    try:
        proc = subprocess.run([binary] + args + ["--no-timing"],
                              capture_output=True, text=True)
    except OSError as e:
        fail(f"cannot run {binary}: {e}")
    if proc.returncode != 0:
        fail(f"{binary} {args[0]} exited {proc.returncode}: "
             f"{proc.stderr.strip()}")
    return [line for line in proc.stdout.splitlines() if line.strip()]


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


# Runs argv[1:] with its output discarded and prints its wall seconds, peak
# RSS in KiB and exit code.  Linux starts a child's peak RSS at its parent's
# (this whole script's, on a vfork spawn), so the timed run is forked from
# this bare interpreter instead: the floor it leaves is about 5 MB.
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss,
      os.waitstatus_to_exitcode(status))
"""


def timed_run(binary, args):
    """One run: wall seconds and peak RSS in MB."""
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", LAUNCHER,
                           binary] + args + ["--no-timing"],
                          capture_output=True, text=True)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 3 or fields[2] != "0":
        fail(f"{binary} {args[0]} failed during timing")
    return float(fields[0]), int(fields[1]) / 1024.0


def summary(label, runs):
    walls = sorted(w for w, _ in runs)
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    rss = statistics.median(r for _, r in runs)
    print(f"{label}: wall median {median:.3f} s  q1 {q1:.3f}  q3 {q3:.3f}  "
          f"min {walls[0]:.3f}  peak_rss median {rss:.1f} MB")
    return median


def main(argv):
    command = "solve"
    if "--command" in argv:
        at = argv.index("--command")
        command = argv[at + 1] if at + 1 < len(argv) else None
        argv = argv[:at] + argv[at + 2:]
        if command not in ("solve", "verify") or argv[3:4] == ["--batch"]:
            print("ab_solve: --command takes solve or verify, and only "
                  "with a pair", file=sys.stderr)
            return 2
    if len(argv) not in (5, 6):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bin_a, bin_b = argv[1:3]
    if argv[3] == "--batch":
        args = ["batch", argv[4], "--command", "verify", "--jobs", "2"]
        label = "batch " + argv[4]
    else:
        args = [command, argv[3], argv[4]]
        label = f"{command} {argv[3]} {argv[4]}"
    pairs = int(argv[5]) if len(argv) == 6 else 10
    if pairs < 2:
        print("ab_solve: N must be at least 2", file=sys.stderr)
        return 2

    lines_a, lines_b = record_lines(bin_a, args), record_lines(bin_b, args)
    if len(lines_a) != len(lines_b):
        print(f"ab_solve: {len(lines_a)} records vs {len(lines_b)}",
              file=sys.stderr)
        return 1
    changed = False
    for line_a, line_b in zip(lines_a, lines_b):
        a, b = json.loads(line_a), json.loads(line_b)
        for path in differences(a, b):
            changed = True
            print(f"ab_solve: record {a.get('name')} differs at "
                  + ".".join(path), file=sys.stderr)
    if changed:
        return 1

    binaries = (bin_a, bin_b)
    runs = ([], [])
    wins = 0
    for k in range(pairs):
        pair = [None, None]
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            pair[side] = timed_run(binaries[side], args)
            runs[side].append(pair[side])
        wins += pair[1][0] < pair[0][0]

    print(f"ab_solve: {label}, {pairs} interleaved pairs; "
          f"{len(lines_a)} record(s) agree apart from cache traffic, "
          "GC runs and live nodes")
    median_a = summary("A " + bin_a, runs[0])
    median_b = summary("B " + bin_b, runs[1])
    print(f"B faster in {wins}/{pairs} pairs; B median / A median = "
          f"{median_b / median_a:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
