#!/usr/bin/env python3
"""Solve benchmark for the leq language-equation solver.

    python3 solvebench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a leq checkout.  The first run builds `leq` and the
benchmark's in-process driver from source into .bench_build/ (or
$CARGO_TARGET_DIR when set); later runs reuse the build.  Workloads:

  arbiter16  `leq solve` on bench/corpus/arbiter_x16_{f,s}.blif
  kiss9      `leq solve` on bench/corpus/counter9_{f,s}.kiss
  campaign   `leq batch MANIFEST --command verify --jobs 2` on ~1200 small
             equations generated from --seed

With --trace 0 the run times the `leq` process in a closed loop (one process
at a time) for --seconds and reports the end-to-end metrics, every time
scaled to a reference host speed by the calibration kernel; with --trace 1
it runs the in-process driver's traced replay and reports per-layer metrics.
Every answer is checked; the last stdout line is the JSON result (`all`
runs the three workloads in turn and keys each metric by its workload).  See
solvebench/README.md for the metric definitions.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
LEQ = os.path.join(BUILD, "leq", "leq")
DRIVER = os.path.join(BUILD, "solvebench_driver")
CALIBRATE = os.path.join(BUILD, "solvebench_calibrate")
# The calibration kernel's time on the host the benchmark was defined on,
# when that host was quiet.  A timing is reported in seconds at this
# reference speed: measured x CAL_REF_S / the kernel's time next to it.
CAL_REF_S = 0.078

# Pinned answers of the corpus workloads (checked once against
# `leq solve --flow monolithic`, which agrees).  The corpus workloads ignore
# the seed: their input is the checked-in pair.
PAIRS = {
    "arbiter16": {
        "f": "bench/corpus/arbiter_x16_f.blif",
        "s": "bench/corpus/arbiter_x16_s.blif",
        "solution": "ok", "csf_states": 6722, "subset_states": 6721,
    },
    "kiss9": {
        "f": "bench/corpus/counter9_f.kiss",
        "s": "bench/corpus/counter9_s.kiss",
        "solution": "ok", "csf_states": 32898, "subset_states": 33153,
    },
}
WORKLOADS = ("arbiter16", "kiss9", "campaign")
CAMPAIGN_JOBS = 2
# In-process set-up timing: (leq samples between blocks, repetitions per
# block).  A block is one driver process; setup_s is the median over the
# blocks of each block's fastest repetition.  The minimum drops repetitions
# that a burst of host noise slowed down, and spreading the blocks over the
# run keeps one slow stretch from setting the whole median.
SETUP_BLOCKS = {"arbiter16": (1, 41), "kiss9": (1, 15), "campaign": (2, 2)}

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("eq_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
# per-layer metric -> unit; layer_metrics() reads the values off the
# driver's trace result
PER_LAYER_UNITS = {
    "eq.rename_intern_s": "s", "eq.renames": "count", "eq.subsets": "count",
    "eq.rename_useful_ratio": "ratio", "eq.rename_intern_share": "ratio",
    "rel.p_image_s": "s", "rel.q_image_s": "s", "rel.images": "count",
    "bdd.and_exists_lookups": "count", "bdd.and_exists_hit_rate": "ratio",
    "eq.split_s": "s", "eq.domain_s": "s", "eq.expand_s": "s",
    "eq.trim_s": "s", "net.parse_s": "s", "eq.problem_build_s": "s",
    "rel.build_s": "s", "rel.clusters": "count", "eq.verify_s": "s",
    "cli.emit_s": "s", "bdd.cache_lookups": "count",
    "bdd.cache_hit_rate": "ratio", "bdd.gc_runs": "count",
    "bdd.allocated_nodes": "count", "bdd.live_nodes": "count",
    "bdd.cache_entries": "count", "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
# ROADMAP's wall-clock attribution of the ns->cs rename, for comparison
ROADMAP_RENAME_SHARE = {"arbiter16": 0.50, "kiss9": 0.80}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    # compilers and tools keep their scratch files inside the checkout
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build():
    for need in ("CMakeLists.txt", "src", "tools/leq.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} is missing: run from a leq checkout")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "leq_cli",
                  "solvebench_driver", "solvebench_calibrate"])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=child_env(), cwd=ROOT).returncode != 0:
                with open(build_log) as text:
                    log(text.read()[-4000:])
                raise BenchError("build failed (see " + build_log + ")")


def run_driver(args):
    proc = subprocess.run([DRIVER] + args, capture_output=True, text=True,
                          env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        log(proc.stderr)
        raise BenchError("solvebench_driver " + args[0] + " failed")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def run_leq(args, stem):
    """One `leq` process: wall time, rusage CPU and peak RSS, stdout text."""
    out_path, err_path = stem + ".out", stem + ".err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([LEQ] + args, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out:
        text = out.read()
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "code": proc.returncode,
        "stdout": text,
    }


# ---------------------------------------------------------------------------
# workloads: inputs, the leq command, and the answer check
# ---------------------------------------------------------------------------

class Pair:
    def __init__(self, name):
        self.name = name
        self.pin = PAIRS[name]
        self.f = os.path.join(ROOT, self.pin["f"])
        self.s = os.path.join(ROOT, self.pin["s"])
        for path in (self.f, self.s):
            if not os.path.exists(path):
                raise BenchError(path + " is missing")
        self.equations = 1
        self.jobs = 1

    def leq_args(self):
        return ["solve", self.f, self.s]

    def driver_input(self):
        return [self.f, self.s]

    def driver_trace_args(self):
        return ["--command", "solve", "--jobs", "1"]

    def check(self, sample):
        """Number of wrong answers in one `leq` run (0 or 1)."""
        try:
            record = json.loads(sample["stdout"].strip().split("\n")[-1])
        except (ValueError, IndexError):
            return 1
        ok = (sample["code"] == 0 and record.get("status") == "ok"
              and all(record.get(k) == self.pin[k]
                      for k in ("solution", "csf_states", "subset_states")))
        return 0 if ok else 1

    def check_trace(self, result):
        counters = result["counters"]
        return (counters["csf_states"] == self.pin["csf_states"]
                and counters["subsets"] == self.pin["subset_states"])


class Campaign:
    def __init__(self, seed):
        self.name = "campaign"
        self.dir = os.path.join(BUILD, "inputs", "campaign")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        # untimed set-up: generation and the reference answers
        run_driver(["campaign", "--seed", str(seed), "--out", self.dir,
                    "--jobs", "4"])
        self.manifest = os.path.join(self.dir, "MANIFEST")
        with open(os.path.join(self.dir, "EXPECTED")) as f:
            self.expected = [json.loads(line) for line in f]
        self.equations = len(self.expected)
        self.jobs = CAMPAIGN_JOBS

    def leq_args(self):
        return ["batch", self.manifest, "--command", "verify", "--jobs",
                str(CAMPAIGN_JOBS)]

    def driver_input(self):
        return ["--manifest", self.manifest]

    def driver_trace_args(self):
        return ["--command", "verify", "--jobs", str(CAMPAIGN_JOBS)]

    def check(self, sample):
        """Number of equations answered wrongly (or not at all)."""
        records = {}
        for line in sample["stdout"].split("\n"):
            if line.strip():
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                records[record.get("name")] = record
        failed = 0
        for exp in self.expected:
            record = records.get(exp["name"], {})
            ok = (exp["agree"] and record.get("status") == "ok"
                  and record.get("solution") == exp["solution"]
                  and record.get("csf_states") == exp["csf_states"]
                  and record.get("subset_states") == exp["subset_states"]
                  and record.get("verify", {}).get("composition_ok") is True)
            failed += 0 if ok else 1
        if sample["code"] != 0 and failed == 0:
            failed = 1  # leq reported a failure the records do not show
        return failed

    def check_trace(self, result):
        counters = result["counters"]
        return counters["csf_states"] == sum(e["csf_states"]
                                             for e in self.expected)


def make_workload(name, seed):
    return Campaign(seed) if name == "campaign" else Pair(name)


def setup_times(workload, repeat):
    _, result = run_driver(["setup"] + workload.driver_input() +
                           ["--repeat", str(repeat)])
    return result["setup_s"]


def calibrate():
    """The kernel's mean time over one copy pinned to each CPU the run may
    use, all copies at once, as the measured step loads every one of them."""
    procs = [subprocess.Popen([CALIBRATE], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=child_env(), cwd=ROOT,
                              preexec_fn=lambda cpu=cpu:
                              os.sched_setaffinity(0, {cpu}))
             for cpu in sorted(os.sched_getaffinity(0))]
    outputs = [proc.communicate() for proc in procs]  # waits for each
    if any(proc.returncode != 0 for proc in procs):
        log("".join(err for _, err in outputs))
        raise BenchError("solvebench_calibrate failed")
    return statistics.mean(float(out.split()[0]) for out, _ in outputs)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_untraced(workload, seconds, stem):
    every, repeat = SETUP_BLOCKS[workload.name]
    setup, samples, attempted, failed = [], [], 0, 0
    start = time.perf_counter()

    def window_open():
        # start another sample only while at least half of one still fits
        if not samples:
            return True
        typical = statistics.median(s["wall"] for s in samples)
        return time.perf_counter() - start + typical / 2 < seconds

    # Every timed step runs between two calibrations and is scaled by the
    # mean of both: a slowdown of the host lasting minutes cancels out.
    calibrations = [calibrate()]

    def scale():
        calibrations.append(calibrate())
        return CAL_REF_S / statistics.mean(calibrations[-2:])

    while window_open():
        if len(samples) % every == 0:
            block = min(setup_times(workload, repeat))
            setup.append(block * scale())
        sample = run_leq(workload.leq_args(), stem)
        sample["scale"] = scale()
        sample["failed"] = workload.check(sample)
        attempted += workload.equations
        failed += sample["failed"]
        samples.append(sample)
    n = len(samples)
    log("wall samples: " + " ".join(f"{s['wall']:.4f}" for s in samples))
    log("calibrations: " + " ".join(f"{c:.4f}" for c in calibrations))
    med = lambda key: statistics.median(s[key] * s["scale"] for s in samples)
    values = {
        "wall_s": med("wall"),
        "cpu_s": med("cpu"),
        "eq_per_s": statistics.median(
            (workload.equations - s["failed"]) / (s["wall"] * s["scale"])
            for s in samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
    }
    counts = {"wall_s": n, "cpu_s": n, "eq_per_s": n, "peak_rss_mb": n,
              "setup_s": len(setup)}
    print(f"{'host speed':<14} {CAL_REF_S / statistics.median(calibrations):14.6f}"
          f"      (reference {CAL_REF_S} s / median of {len(calibrations)}"
          f" calibrations; timings below are at the reference speed)")
    print(f"{'raw wall_s':<14} {statistics.median(s['wall'] for s in samples):14.6f}"
          f" s    (median of {n}, unscaled)")
    for name, unit in END_TO_END:
        print(f"{name:<14} {values[name]:14.6f} {unit:<4} "
              f"(median of {counts[name]})")
    print(f"{'fail_ratio':<14} {failed / attempted:14.6f} "
          f"     ({failed} of {attempted} equations)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return attempted, failed, metrics


def layer_metrics(result, overhead_s):
    self_s = result["self_s"]
    c = result["counters"]
    solve_s = result["request_s"] - self_s["eq.verify"]
    ratio = lambda a, b: a / b if b else 0.0
    return {
        "eq.rename_intern_s": self_s["eq.rename_intern"],
        "eq.renames": c["renames"],
        "eq.subsets": c["subsets"],
        "eq.rename_useful_ratio": ratio(c["subsets"], c["renames"]),
        "eq.rename_intern_share": ratio(self_s["eq.rename_intern"], solve_s),
        "rel.p_image_s": self_s["rel.p_image"],
        "rel.q_image_s": self_s["rel.q_image"],
        "rel.images": c["images"],
        "bdd.and_exists_lookups": c["and_exists_lookups"],
        "bdd.and_exists_hit_rate": ratio(c["and_exists_hits"],
                                         c["and_exists_lookups"]),
        "eq.split_s": self_s["eq.split"],
        "eq.domain_s": self_s["eq.domain"],
        "eq.expand_s": self_s["eq.expand"],
        "eq.trim_s": self_s["eq.trim"],
        "net.parse_s": self_s["net.parse"] + self_s["eq.kiss_encode"],
        "eq.problem_build_s": self_s["eq.problem_build"],
        "rel.build_s": self_s["rel.build"],
        "rel.clusters": c["clusters"],
        "eq.verify_s": self_s["eq.verify"],
        "cli.emit_s": self_s["cli.emit"],
        "bdd.cache_lookups": c["cache_lookups"],
        "bdd.cache_hit_rate": ratio(c["cache_hits"], c["cache_lookups"]),
        "bdd.gc_runs": c["gc_runs"],
        "bdd.allocated_nodes": c["allocated_nodes"],
        "bdd.live_nodes": c["live_nodes"],
        "bdd.cache_entries": c["cache_entries"],
        "trace.overhead_s": overhead_s,
        "trace.coverage": result["coverage_min"],
    }


def measure_traced(workload, seconds, stem):
    # the untraced baseline of trace.overhead_s: one leq run before and one
    # after the traced replays, so drift during the run cancels out
    start = time.perf_counter()
    before = run_leq(workload.leq_args(), stem)
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, workload.name + ".json")
    remaining = seconds - (time.perf_counter() - start) - before["wall"]
    table, result = run_driver(
        ["trace"] + workload.driver_input() + workload.driver_trace_args() +
        ["--seconds", f"{max(0.0, remaining):.3f}", "--out", trace_file])
    after = run_leq(workload.leq_args(), stem)
    failed = workload.check(before) + workload.check(after)
    for line in table:
        print(line)
    if result["diverged"] > 0:
        # the replay no longer mirrors the library's solve: no attribution
        return False, 3 * workload.equations, failed, {}
    failed += result["verify_failures"]
    ok = workload.check_trace(result)
    untraced_wall = statistics.median([before["wall"], after["wall"]])
    overhead = result["traced_s"] - untraced_wall
    metrics = layer_metrics(result, overhead)
    print(f"trace file     {trace_file} ({result['replays']} replay(s))")
    print(f"trace.overhead_s {overhead:.6f} s (traced {result['traced_s']:.6f}"
          f" s - untraced wall {untraced_wall:.6f} s)")
    print(f"trace.coverage {result['coverage_min']:.6f} (smallest share of a "
          f"request covered by named layer spans)")
    if workload.name in ROADMAP_RENAME_SHARE:
        print(f"eq.rename_intern share {metrics['eq.rename_intern_share']:.1%}"
              f" of the traced solve (ROADMAP wall-clock figure: about "
              f"{ROADMAP_RENAME_SHARE[workload.name]:.0%}; gprof put "
              f"bdd_manager::permute at 47.5% of arbiter_x16)")
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in PER_LAYER_UNITS.items()}
    return ok, 3 * workload.equations, failed, out


def run_workload(name, args):
    """Measure one workload: (correct, attempted, failed, metrics)."""
    workload = make_workload(name, args.seed)
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    # the last leq run's output, kept for inspection
    stem = os.path.join(runs, name)
    # Measure on the last `jobs` allowed CPUs, so that each sample and the
    # calibrations next to it share them; set-up above used them all.
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, allowed[-workload.jobs:])
    try:
        if args.trace:
            return measure_traced(workload, args.seconds, stem)
        return (True,) + measure_untraced(workload, args.seconds, stem)
    finally:
        os.sched_setaffinity(0, allowed)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok, attempted, failed, metrics = True, 0, 0, {}
    try:
        build()
        for name in names:
            if len(names) > 1:
                print(f"== {name}")
            w_ok, w_attempted, w_failed, w_metrics = run_workload(name, args)
            ok = ok and w_ok and bool(w_metrics)
            attempted += w_attempted
            failed += w_failed
            # `all` keys each metric by its workload
            prefix = name + "." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in w_metrics.items()})
    except BenchError as e:
        log("solvebench: " + str(e))
        return 1
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
