#!/usr/bin/env python3
"""Run-to-run spread of benchmark results.

    python3 solvebench/spread.py RESULTS.jsonl [...]

Each input line is one run's final JSON line from run.py.  For every metric
this prints the median over the runs, the first and third quartiles
(statistics.quantiles with n=4) and the spread, (q3 - q1) / median, which is
what a metric's bound in BENCHMARK.json is compared against.
"""

import json
import statistics
import sys


def main(paths):
    values = {}
    units = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                for name, metric in json.loads(line)["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2:
            print(f"{name:<24} {med:14.6f} {units[name]:<6} (1 run)")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<24} {med:14.6f} {units[name]:<6} q1 {q1:.6f} "
              f"q3 {q3:.6f} spread {spread:.4f} ({len(vals)} runs)")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
