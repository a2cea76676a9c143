/// \file test_bench.cpp
/// \brief The pinned benchmark trajectory stays trustworthy: workloads are
/// deterministic, the JSON schema round-trips, the compare gate fails on
/// genuine regressions (and only those), the checked-in corpus is
/// byte-identical to what the generators produce, the checked-in
/// baseline still parses and gates every workload, and the Table-1 checks
/// catch a wrong CSF.
///
/// Compiled with LEQ_SOURCE_DIR pointing at the repo root so the suite can
/// read bench/corpus/, and with LEQ_BENCH_BASELINE naming the one
/// BENCH_PR<n>.json there (CMake finds it).

#include "cli/bench.hpp"
#include "gen/scenario.hpp"
#include "net/blif.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace {

using namespace leq;

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) { return {}; }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// A small synthetic report exercising one metric of every gated kind.
bench_report make_base_report() {
    bench_report report;
    bench_row row;
    row.workload = "solve/synthetic";
    row.metrics = {{"cache_lookups", 100000.0},
                   {"cache_hit_rate", 0.5},
                   {"csf_states", 4.0},
                   {"cache_entries", 262144.0}};
    report.rows.push_back(row);
    return report;
}

// ---------------------------------------------------------------------------
// metric policies
// ---------------------------------------------------------------------------

TEST(bench_policy, directions_match_the_documented_gate) {
    EXPECT_EQ(bench_metric_policy("seconds").direction,
              metric_direction::info);
    EXPECT_EQ(bench_metric_policy("cache_entries").direction,
              metric_direction::info);
    // cache traffic is gated both ways: work leaving the computed cache
    // is a change to re-pin, not a silent pass
    EXPECT_EQ(bench_metric_policy("cache_lookups").direction,
              metric_direction::two_sided);
    // misses are gated with the lookups' budget
    EXPECT_EQ(bench_metric_policy("cache_misses").direction,
              metric_direction::two_sided);
    EXPECT_EQ(bench_metric_policy("cache_misses").rel_tol,
              bench_metric_policy("cache_lookups").rel_tol);
    EXPECT_EQ(bench_metric_policy("cache_misses").abs_slack,
              bench_metric_policy("cache_lookups").abs_slack);
    EXPECT_EQ(bench_metric_policy("subst_nodes").direction,
              metric_direction::up_bad);
    EXPECT_EQ(bench_metric_policy("gc_runs").direction,
              metric_direction::up_bad);
    EXPECT_EQ(bench_metric_policy("allocated_nodes").direction,
              metric_direction::up_bad);
    EXPECT_EQ(bench_metric_policy("cache_hit_rate").direction,
              metric_direction::down_bad);
    EXPECT_EQ(bench_metric_policy("csf_states").direction,
              metric_direction::exact);
    EXPECT_EQ(bench_metric_policy("subset_states").direction,
              metric_direction::exact);
    EXPECT_EQ(bench_metric_policy("batch_solved").direction,
              metric_direction::exact);
    // the schedule's shape is pinned
    EXPECT_EQ(bench_metric_policy("relations").direction,
              metric_direction::exact);
    EXPECT_EQ(bench_metric_policy("clusters").direction,
              metric_direction::exact);
    EXPECT_EQ(bench_metric_policy("reduced_states").direction,
              metric_direction::exact);
    EXPECT_EQ(bench_metric_policy("diagnose_ok").direction,
              metric_direction::exact);
    // unknown names are recorded but never gated
    EXPECT_EQ(bench_metric_policy("some_future_metric").direction,
              metric_direction::info);
}

// ---------------------------------------------------------------------------
// JSON round trip
// ---------------------------------------------------------------------------

TEST(bench_json, report_round_trips_through_json) {
    const bench_report before = make_base_report();
    const std::string json = bench_report_to_json(before);
    const bench_report after = parse_bench_report(json);
    EXPECT_EQ(after.schema, before.schema);
    ASSERT_EQ(after.rows.size(), before.rows.size());
    EXPECT_EQ(after.rows[0].workload, before.rows[0].workload);
    ASSERT_EQ(after.rows[0].metrics.size(), before.rows[0].metrics.size());
    for (std::size_t k = 0; k < before.rows[0].metrics.size(); ++k) {
        EXPECT_EQ(after.rows[0].metrics[k].name,
                  before.rows[0].metrics[k].name);
        EXPECT_DOUBLE_EQ(after.rows[0].metrics[k].value,
                         before.rows[0].metrics[k].value);
    }
    // serialization is byte-deterministic
    EXPECT_EQ(bench_report_to_json(after), json);
    // a report from before the per-row wall clock was dropped still reads
    const bench_report legacy = parse_bench_report(
        R"({"schema":"leq-bench-v1","rows":[{"workload":"solve/synthetic",)"
        R"("seconds":1.5,"metrics":{"csf_states":4}}]})");
    ASSERT_EQ(legacy.rows.size(), 1u);
    ASSERT_EQ(legacy.rows[0].metrics.size(), 1u);
    EXPECT_EQ(legacy.rows[0].metrics[0].name, "csf_states");
}

TEST(bench_json, parser_rejects_garbage_and_wrong_schema) {
    EXPECT_THROW((void)parse_bench_report("not json"), std::runtime_error);
    EXPECT_THROW((void)parse_bench_report("{}"), std::runtime_error);
    EXPECT_THROW((void)parse_bench_report(
                     R"({"schema":"something-else","rows":[]})"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// the compare gate
// ---------------------------------------------------------------------------

TEST(bench_compare, identical_reports_pass) {
    const bench_report base = make_base_report();
    const bench_compare_result result = compare_bench_reports(base, base);
    EXPECT_TRUE(result.ok()) << to_string(result);
}

TEST(bench_compare, small_drift_within_budget_passes) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics[0].value = 105000.0; // +5% < 10% budget
    current.rows[0].metrics[1].value = 0.49;     // -0.01 within slack
    const bench_compare_result result = compare_bench_reports(base, current);
    EXPECT_TRUE(result.ok()) << to_string(result);
}

TEST(bench_compare, up_bad_metric_over_budget_fails) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics[0].value = 120000.0; // +20% cache lookups
    const bench_compare_result result = compare_bench_reports(base, current);
    ASSERT_EQ(result.regressions.size(), 1u) << to_string(result);
    EXPECT_EQ(result.regressions[0].workload, "solve/synthetic");
    EXPECT_EQ(result.regressions[0].metric, "cache_lookups");
    EXPECT_NE(to_string(result).find("cache_lookups"), std::string::npos);
}

TEST(bench_compare, cache_traffic_falling_past_budget_fails) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics[0].value = 80000.0; // -20% cache lookups
    const bench_compare_result result = compare_bench_reports(base, current);
    ASSERT_EQ(result.regressions.size(), 1u) << to_string(result);
    EXPECT_EQ(result.regressions[0].metric, "cache_lookups");
    EXPECT_DOUBLE_EQ(result.regressions[0].limit, 89000.0);
    // a fall within the budget still passes
    current.rows[0].metrics[0].value = 95000.0;
    EXPECT_TRUE(compare_bench_reports(base, current).ok());
}

TEST(bench_compare, down_bad_metric_under_budget_fails) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics[1].value = 0.3; // hit rate collapse
    const bench_compare_result result = compare_bench_reports(base, current);
    ASSERT_EQ(result.regressions.size(), 1u) << to_string(result);
    EXPECT_EQ(result.regressions[0].metric, "cache_hit_rate");
}

TEST(bench_compare, exact_metric_drift_fails) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics[2].value = 5.0; // csf_states is pinned
    const bench_compare_result result = compare_bench_reports(base, current);
    ASSERT_EQ(result.regressions.size(), 1u) << to_string(result);
    EXPECT_EQ(result.regressions[0].metric, "csf_states");
}

TEST(bench_compare, info_metric_drift_is_ignored) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics[3].value = 1048576.0; // cache geometry: info
    const bench_compare_result result = compare_bench_reports(base, current);
    EXPECT_TRUE(result.ok()) << to_string(result);
}

TEST(bench_compare, lost_workload_coverage_fails) {
    const bench_report base = make_base_report();
    const bench_report current; // empty run
    const bench_compare_result result = compare_bench_reports(base, current);
    EXPECT_FALSE(result.ok());
}

TEST(bench_compare, lost_gated_metric_fails) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics.erase(current.rows[0].metrics.begin()); // drop cache_lookups
    const bench_compare_result result = compare_bench_reports(base, current);
    EXPECT_FALSE(result.ok());
}

TEST(bench_compare, new_workload_is_a_note_not_a_failure) {
    const bench_report base = make_base_report();
    bench_report current = base;
    bench_row extra;
    extra.workload = "solve/new_coverage";
    current.rows.push_back(extra);
    const bench_compare_result result = compare_bench_reports(base, current);
    EXPECT_TRUE(result.ok()) << to_string(result);
    EXPECT_FALSE(result.notes.empty());
}

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

TEST(bench_workloads, ids_are_stable_and_unknown_ids_throw) {
    const std::vector<std::string> names = bench_workload_names();
    ASSERT_FALSE(names.empty());
    for (const char* expected :
         {"solve/counter_x256", "solve/counter_x256_flat",
          "solve/arbiter_x16", "solve/random_3_64", "solve/kiss_counter9",
          "verify/kiss_counter9", "diagnose/kiss_counter9",
          "batch/families", "table1/s349", "table1/s444",
          "reduce/counter_16", "reduce/table1_s349"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
    EXPECT_THROW((void)run_bench_workload("no/such/workload"),
                 std::invalid_argument);
}

TEST(bench_workloads, cheap_workloads_are_deterministic_across_runs) {
    // the batch row sums counters over a two-worker pool, so this also pins
    // that the claim order of jobs never leaks into the counters
    for (const char* id : {"solve/counter_x256", "batch/families"}) {
        const bench_row first = run_bench_workload(id);
        const bench_row second = run_bench_workload(id);
        ASSERT_EQ(first.metrics.size(), second.metrics.size()) << id;
        for (std::size_t k = 0; k < first.metrics.size(); ++k) {
            EXPECT_EQ(first.metrics[k].name, second.metrics[k].name) << id;
            EXPECT_DOUBLE_EQ(first.metrics[k].value, second.metrics[k].value)
                << id << " " << first.metrics[k].name;
        }
    }
}

// ---------------------------------------------------------------------------
// gen scale semantics the workloads rely on
// ---------------------------------------------------------------------------

TEST(bench_gen_scale, scale_one_is_byte_identical_to_legacy_output) {
    // fuzz reproducers and pinned baselines depend on scale=1 being the
    // exact historical generator output, for every family
    for (const scenario_family family : all_scenario_families) {
        const scenario legacy = make_scenario(family, 5);
        const scenario scaled = make_scenario(family, 5, 1);
        EXPECT_EQ(legacy.name, scaled.name);
        EXPECT_EQ(write_blif_string(legacy.fixed),
                  write_blif_string(scaled.fixed))
            << legacy.name;
        EXPECT_EQ(write_blif_string(legacy.spec),
                  write_blif_string(scaled.spec))
            << legacy.name;
    }
}

TEST(bench_gen_scale, scaling_grows_the_state_space) {
    for (const scenario_family family : all_scenario_families) {
        const scenario small = make_scenario(family, 5, 1);
        const scenario big = make_scenario(family, 5, 16); // +4 state bits
        EXPECT_GT(big.fixed.num_latches(), small.fixed.num_latches())
            << small.name;
        EXPECT_NE(big.name, small.name);
    }
}

// ---------------------------------------------------------------------------
// checked-in artifacts
// ---------------------------------------------------------------------------

TEST(bench_artifacts, corpus_files_match_the_generators_byte_for_byte) {
    const std::vector<bench_corpus_file> corpus = bench_corpus_files();
    ASSERT_FALSE(corpus.empty());
    for (const bench_corpus_file& file : corpus) {
        const std::string checked_in = read_file(
            std::string(LEQ_SOURCE_DIR) + "/bench/corpus/" + file.name);
        ASSERT_FALSE(checked_in.empty())
            << "bench/corpus/" << file.name
            << " missing — regenerate with leq_bench_run --write-corpus";
        EXPECT_EQ(checked_in, file.text)
            << "bench/corpus/" << file.name
            << " drifted — regenerate with leq_bench_run --write-corpus";
    }
}

TEST(bench_artifacts, table1_corpus_pairs_are_the_papers_latch_splits) {
    // F is the circuit S with its last Xcs latches moved into X: F keeps
    // Fcs latches, and carries one v input and one u output per moved one
    struct row {
        const char* name;
        std::size_t f_latches, x_latches;
    };
    for (const row r : {row{"s208", 4, 4}, row{"s298", 7, 7},
                        row{"s349", 5, 10}, row{"s444", 5, 16},
                        row{"s510", 3, 3}}) {
        const std::string stem =
            std::string(LEQ_SOURCE_DIR) + "/bench/corpus/table1_" + r.name;
        const network f = read_blif_string(read_file(stem + "_f.blif"));
        const network s = read_blif_string(read_file(stem + "_s.blif"));
        EXPECT_EQ(f.num_latches(), r.f_latches) << r.name;
        EXPECT_EQ(s.num_latches(), r.f_latches + r.x_latches) << r.name;
        EXPECT_EQ(f.num_inputs(), s.num_inputs() + r.x_latches) << r.name;
        EXPECT_EQ(f.num_outputs(), s.num_outputs() + r.x_latches) << r.name;
    }
}

TEST(bench_artifacts, corpus_directory_holds_exactly_the_generated_files) {
    // a retired corpus file must not linger beside the live ones
    std::set<std::string> generated;
    for (const bench_corpus_file& file : bench_corpus_files()) {
        generated.insert(file.name);
    }
    std::set<std::string> checked_in;
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(LEQ_SOURCE_DIR) + "/bench/corpus")) {
        checked_in.insert(entry.path().filename().string());
    }
    EXPECT_EQ(checked_in, generated);
}

TEST(bench_artifacts, checked_in_baseline_parses_and_covers_every_workload) {
    const std::string json = read_file(LEQ_BENCH_BASELINE);
    ASSERT_FALSE(json.empty()) << LEQ_BENCH_BASELINE << " is missing";
    const bench_report baseline = parse_bench_report(json);
    EXPECT_EQ(baseline.schema, "leq-bench-v1");

    // every pinned workload is present
    for (const std::string& name : bench_workload_names()) {
        const auto at = std::find_if(
            baseline.rows.begin(), baseline.rows.end(),
            [&name](const bench_row& row) { return row.workload == name; });
        EXPECT_NE(at, baseline.rows.end()) << name;
    }
    // ...and no retired workload lingers in it
    EXPECT_EQ(baseline.rows.size(), bench_workload_names().size());
}

TEST(bench_artifacts, baseline_gates_a_collection_per_batch_equation) {
    const bench_report baseline =
        parse_bench_report(read_file(LEQ_BENCH_BASELINE));
    bench_report current = baseline;
    const auto batch = std::find_if(
        current.rows.begin(), current.rows.end(),
        [](const bench_row& row) { return row.workload == "batch/families"; });
    ASSERT_NE(batch, current.rows.end());
    const bench_metric* solved = batch->find("batch_solved");
    const bench_metric* empty = batch->find("batch_empty");
    ASSERT_NE(solved, nullptr);
    ASSERT_NE(empty, nullptr);
    const double jobs = solved->value + empty->value;
    const auto gc = std::find_if(
        batch->metrics.begin(), batch->metrics.end(),
        [](const bench_metric& m) { return m.name == "gc_runs"; });
    ASSERT_NE(gc, batch->metrics.end()) << "batch/families lost gc_runs";
    // one extra collection per equation, as a stats read that collects
    // would add, must fail the gate
    gc->value += jobs;
    const bench_compare_result result =
        compare_bench_reports(baseline, current);
    ASSERT_EQ(result.regressions.size(), 1u) << to_string(result);
    EXPECT_EQ(result.regressions[0].metric, "gc_runs");
}

TEST(bench_artifacts, baseline_pins_the_schedule_shape_of_every_solve_row) {
    const bench_report baseline =
        parse_bench_report(read_file(LEQ_BENCH_BASELINE));
    const auto value = [&baseline](const std::string& workload,
                                   const std::string& metric) {
        for (const bench_row& row : baseline.rows) {
            if (row.workload != workload) { continue; }
            const bench_metric* m = row.find(metric);
            return m != nullptr ? m->value : -1.0;
        }
        return -1.0;
    };
    for (const std::string& name : bench_workload_names()) {
        if (name.rfind("batch/", 0) == 0) { continue; }
        EXPECT_GT(value(name, "relations"), 0.0) << name;
        EXPECT_GE(value(name, "clusters"), value(name, "relations")) << name;
    }
    // the flat row keeps every part its own cluster: its chains have more
    // steps than the merged row's one per relation
    EXPECT_GT(value("solve/counter_x256_flat", "clusters"),
              value("solve/counter_x256", "clusters"));
    EXPECT_EQ(value("solve/counter_x256_flat", "relations"),
              value("solve/counter_x256", "relations"));
    // the random row is the one whose relations overflow a cluster at the
    // default limit
    EXPECT_GT(value("solve/random_3_64", "clusters"),
              value("solve/random_3_64", "relations"));
}

// ---------------------------------------------------------------------------
// the paper's Table 1
// ---------------------------------------------------------------------------

TEST(bench_table1, small_row_finishes_both_flows_and_passes_every_check) {
    const table1_row row = run_table1_row("s510", 60.0);
    EXPECT_EQ(row.part_status, solve_status::ok);
    EXPECT_EQ(row.mono_status, solve_status::ok);
    EXPECT_EQ(row.csf_states, 52u);
    ASSERT_TRUE(row.checks.has_value());
    EXPECT_TRUE(row.checks->ok());
    EXPECT_EQ(row.checks->equivalent, true);
    EXPECT_THROW((void)run_table1_row("s9999", 1.0), std::invalid_argument);
}

TEST(bench_table1, cross_flow_certificate_fails_a_faulted_csf) {
    // an image engine that drops every successor setting the spec's first
    // next-state variable yields a wrong partitioned CSF; the honest CSF
    // of the same row passes
    const table1_pair pair = make_table1_pair("s510");
    const equation_problem problem(pair.fixed, pair.spec);
    const solve_result mono = solve_monolithic(problem);
    const solve_result honest = solve_partitioned(problem);
    ASSERT_EQ(mono.status, solve_status::ok);
    ASSERT_EQ(honest.status, solve_status::ok);
    EXPECT_TRUE(
        check_table1_row(problem, pair.x_init, *honest.csf, &*mono.csf).ok());

    solve_options faulted;
    faulted.img.fault_suppress_var = problem.ns_s.front();
    const solve_result wrong = solve_partitioned(problem, faulted);
    ASSERT_EQ(wrong.status, solve_status::ok);
    const table1_checks checks =
        check_table1_row(problem, pair.x_init, *wrong.csf, &*mono.csf);
    EXPECT_FALSE(checks.ok());
    EXPECT_EQ(checks.equivalent, false);
}

// ---------------------------------------------------------------------------
// the delta table
// ---------------------------------------------------------------------------

TEST(bench_delta, table_reports_gated_movement_and_coverage_changes) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics[0].value = 90000.0; // -10% cache_lookups
    bench_row extra;
    extra.workload = "solve/new_coverage";
    current.rows.push_back(extra);
    const std::string table = bench_delta_table(base, current);
    // header + the moved metric with a signed percentage
    EXPECT_NE(table.find("| workload | metric | base | current | delta |"),
              std::string::npos)
        << table;
    EXPECT_NE(table.find("| solve/synthetic | cache_lookups | 100000 | "
                         "90000 | -10% |"),
              std::string::npos)
        << table;
    // unchanged gated metrics render "=", info metrics don't render at all
    EXPECT_NE(table.find("| solve/synthetic | cache_hit_rate | 0.5 | 0.5 "
                         "| = |"),
              std::string::npos)
        << table;
    EXPECT_EQ(table.find("cache_entries"), std::string::npos) << table;
    // coverage changes are visible
    EXPECT_NE(table.find("| solve/new_coverage | _new workload_ |"),
              std::string::npos)
        << table;
}

} // namespace
