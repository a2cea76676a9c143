/// \file bench.hpp
/// \brief The pinned benchmark trajectory: fixed workloads, a stable JSON
/// schema, and a regression gate.
///
/// The perf story of this codebase is only as good as its ability to notice
/// when a "harmless" change doubles the GC count or halves the cache hit
/// rate.  This module pins a small corpus of large-but-tractable workloads
/// (scaled gen/ scenarios, a KISS pair with hundreds of explicit states, a
/// mixed batch campaign) and runs them under `tools/leq_bench_run`, emitting
/// one schema-stable JSON report (`leq-bench-v1`).  A checked-in baseline
/// (the one BENCH_PR<n>.json at the repo root) plus `leq_bench_run
/// --compare NEW` turn the report into a CI gate: any gated metric that
/// moves the wrong way by more than 10% (plus a small absolute slack)
/// fails the build (for cache traffic, a move either way).
///
/// What makes this workable across machines and compilers is that every
/// *gated* metric is a deterministic work counter read off the BDD manager
/// (cache lookups, hit rate, GC runs, allocated nodes) or the solver
/// (subset states, CSF states) — identical on every host.  No wall clock
/// is recorded: one in-process run after every earlier row cannot rank two
/// builds.  End-to-end timing is `scripts/ab_solve.py` and solvebench.
#pragma once

#include "automata/automaton.hpp"
#include "bdd/bdd.hpp"
#include "eq/problem.hpp"
#include "eq/solver.hpp"
#include "net/network.hpp"

#include <optional>
#include <string>
#include <vector>

namespace leq {

/// One measured value.  The schema keys metrics by name; `metric_policy`
/// decides which names the compare gate looks at.
struct bench_metric {
    std::string name;
    double value = 0.0;
};

/// One workload's measurements.
struct bench_row {
    std::string workload; ///< stable id, e.g. "solve/counter_x256"
    std::vector<bench_metric> metrics;

    /// nullptr when the row does not carry the metric.
    [[nodiscard]] const bench_metric* find(const std::string& name) const;
};

/// A full run: the JSON document `bench_report_to_json` emits and
/// `parse_bench_report` reads back.
struct bench_report {
    std::string schema = "leq-bench-v1";
    std::vector<bench_row> rows;
};

/// How the compare gate treats a metric.
enum class metric_direction : std::uint8_t {
    info,    ///< recorded, never gated (cache geometry)
    up_bad,  ///< regression = grew past base * (1+tol) + slack
    down_bad,///< regression = shrank past base * (1-tol) - slack
    two_sided,///< regression = moved past base * (1 +- tol) +- slack
    exact,   ///< deterministic pin: any drift beyond slack fails
};

struct metric_policy {
    metric_direction direction = metric_direction::info;
    double rel_tol = 0.10; ///< the 10% budget (unused for exact)
    double abs_slack = 0.0;
};

/// Policy for a metric name; unknown names are informational.
[[nodiscard]] metric_policy bench_metric_policy(const std::string& name);

/// The pinned workload ids, in run order.
[[nodiscard]] std::vector<std::string> bench_workload_names();

/// Run one workload by id; throws std::invalid_argument for unknown ids.
[[nodiscard]] bench_row run_bench_workload(const std::string& workload);

/// Serialize; byte-deterministic for equal reports.
[[nodiscard]] std::string bench_report_to_json(const bench_report& report);

/// Parse a report emitted by `bench_report_to_json` (tolerates added
/// fields).  Throws std::runtime_error on malformed input or a schema
/// mismatch.
[[nodiscard]] bench_report parse_bench_report(const std::string& json);

/// One gated metric that moved the wrong way.
struct bench_regression {
    std::string workload;
    std::string metric;
    double base = 0.0;
    double current = 0.0;
    double limit = 0.0; ///< the value the gate would still have accepted
};

struct bench_compare_result {
    std::vector<bench_regression> regressions;
    /// Non-fatal observations: rows only in one report, improved metrics.
    std::vector<std::string> notes;
    [[nodiscard]] bool ok() const { return regressions.empty(); }
};

/// Gate `current` against `base`.  A workload present in the baseline but
/// missing from the current run is itself a regression (the trajectory
/// must not silently lose coverage).
[[nodiscard]] bench_compare_result
compare_bench_reports(const bench_report& base, const bench_report& current);

/// Render a human-readable summary (one line per regression/note).
[[nodiscard]] std::string to_string(const bench_compare_result& result);

/// Render a per-workload delta table of every gated metric (Markdown, so CI
/// can drop it straight into a job summary): base value, current value, and
/// the relative move.  Workloads missing from either side get a note row.
/// Purely presentational — the gate itself is `compare_bench_reports`.
[[nodiscard]] std::string bench_delta_table(const bench_report& base,
                                            const bench_report& current);

/// A corpus file the benchmark derives its inputs from, regenerated
/// deterministically.  The checked-in copies under bench/corpus/ are
/// byte-identical to this output (pinned by tests/test_bench.cpp); the
/// runner's --write-corpus mode (re)writes them.
struct bench_corpus_file {
    std::string name; ///< filename under bench/corpus/
    std::string text;
};
[[nodiscard]] std::vector<bench_corpus_file> bench_corpus_files();

// ---------------------------------------------------------------------------
// the paper's Table 1 (leq_bench_run --table1)
// ---------------------------------------------------------------------------

/// A Table-1 row's equation as the paper builds it: the circuit is S, and
/// F keeps it with its last Xcs latches split into the unknown component.
/// `x_init` is the initial latch state of X_P, the split-off latches.
struct table1_pair {
    network fixed;
    network spec;
    std::vector<bool> x_init;
};

/// The pair of the make_table1_suite() row called `name`; throws
/// std::invalid_argument for any other name.
[[nodiscard]] table1_pair make_table1_pair(const std::string& name);

/// The verdicts on one row's partitioned CSF.
struct table1_checks {
    bool particular = false;  ///< check (1): X_P is contained in X
    bool composition = false; ///< check (2): F . X is contained in S
    /// The cross-flow certificate: the partitioned and monolithic CSFs
    /// accept the same language.  Empty when no monolithic CSF was given.
    std::optional<bool> equivalent;
    [[nodiscard]] bool ok() const {
        return particular && composition && equivalent.value_or(true);
    }
};

/// Run checks (1) and (2) on the partitioned CSF `part` and, given the
/// monolithic flow's CSF `mono` of the same problem, the certificate.
[[nodiscard]] table1_checks check_table1_row(const equation_problem& problem,
                                             const std::vector<bool>& x_init,
                                             const automaton& part,
                                             const automaton* mono);

/// One measured Table-1 row: both flows under one time limit, and the
/// checks whenever the partitioned flow finished.
struct table1_row {
    solve_status part_status = solve_status::ok;
    solve_status mono_status = solve_status::ok;
    double part_seconds = 0.0, mono_seconds = 0.0;
    std::size_t csf_states = 0; ///< of the partitioned CSF
    std::optional<table1_checks> checks;
};

/// Build the row's pair, run both flows (each stops after
/// `time_limit_seconds`) and check the result.
[[nodiscard]] table1_row run_table1_row(const std::string& name,
                                        double time_limit_seconds);

} // namespace leq
