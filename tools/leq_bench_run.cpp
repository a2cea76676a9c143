/// \file leq_bench_run.cpp
/// \brief The standard benchmark runner: executes the pinned workloads and
/// gates reports against a baseline.
///
/// This is the single entry point of the perf trajectory (see
/// src/cli/bench.hpp).  Modes:
///
///   leq_bench_run [--filter SUBSTR] [--out FILE]
///       Run the pinned workloads (optionally only those whose id contains
///       SUBSTR) and write the leq-bench-v1 JSON report to FILE (stdout by
///       default).  Progress goes to stderr.  The report holds counters
///       only; time two builds end to end with scripts/ab_solve.py or
///       solvebench.
///
///   leq_bench_run --list
///       Print the pinned workload ids, one per line.
///
///   leq_bench_run --table1 [SECONDS] [--filter SUBSTR]
///       Reproduce the paper's Table 1: partitioned against monolithic CSF
///       computation on the latch-split stand-ins, each flow stopped after
///       SECONDS (default 120; "CNC" marks a flow that could not
///       complete).  --filter keeps the rows whose name contains SUBSTR.
///       Every row the partitioned flow finishes runs the paper's checks
///       (1) X_P <= X and (2) F . X <= S, and, when the monolithic flow
///       finishes too, the cross-flow certificate: both CSFs accept the
///       same language.  Exit 1 when any check fails.
///
///   leq_bench_run --compare [BASELINE] CURRENT
///       Gate CURRENT against BASELINE (two report files; BASELINE defaults
///       to the checked-in BENCH_PR<n>.json the build was configured with).
///       Exit 0 when no gated metric regressed, 1 otherwise, printing one
///       line per regression.  Only deterministic work counters are
///       gated, so the gate behaves identically on every machine.
///
///   leq_bench_run --delta [BASELINE] CURRENT
///       Print a Markdown table of every gated metric's movement between
///       the two reports (no gating, exit 0) — what scripts/bench_run.sh
///       and the CI job summary show.
///
///   leq_bench_run --write-corpus DIR
///       (Re)write the deterministic corpus files into DIR
///       (bench/corpus/ in the repo).  The checked-in copies must be
///       byte-identical to this output; tests/test_bench.cpp pins that.
///
/// The intended trajectory: every change that moves a gated counter
/// re-pins the baseline deliberately (scripts/bench_run.sh
/// --update-baseline, commit the report, explain the movement); CI runs
/// the compare on every push and refuses accidental movement.  CMake finds
/// the one BENCH_PR<n>.json at the repo root and compiles its path in as
/// LEQ_BENCH_BASELINE.

#include "cli/bench.hpp"
#include "cli/cli.hpp"
#include "net/generator.hpp"

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

int usage(std::ostream& err) {
    err << "usage: leq_bench_run [--filter SUBSTR] [--out FILE]\n"
        << "       leq_bench_run --list\n"
        << "       leq_bench_run --table1 [SECONDS] [--filter SUBSTR]\n"
        << "       leq_bench_run --compare [BASELINE] CURRENT\n"
        << "       leq_bench_run --delta [BASELINE] CURRENT\n"
        << "       leq_bench_run --write-corpus DIR\n"
        << "BASELINE defaults to " LEQ_BENCH_BASELINE "\n";
    return 2;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot read '" + path + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

int run_mode(const std::string& filter, const std::string& out_path) {
    leq::bench_report report;
    for (const std::string& name : leq::bench_workload_names()) {
        if (!filter.empty() && name.find(filter) == std::string::npos) {
            continue;
        }
        std::cerr << "bench: " << name << "\n";
        report.rows.push_back(leq::run_bench_workload(name));
    }
    const std::string json = leq::bench_report_to_json(report);
    if (out_path.empty()) {
        std::cout << json;
    } else {
        std::ofstream out(out_path, std::ios::binary);
        out << json;
        if (!out) {
            std::cerr << "leq_bench_run: cannot write '" << out_path
                      << "'\n";
            return 1;
        }
        std::cerr << "bench: wrote " << out_path << "\n";
    }
    return 0;
}

/// A flow's seconds, or CNC when it hit the time limit.
std::string table1_time(leq::solve_status status, double seconds) {
    if (status != leq::solve_status::ok) { return "CNC"; }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", seconds);
    return buf;
}

std::string table1_verdicts(const leq::table1_checks& checks) {
    const auto verdict = [](bool ok) { return ok ? " ok" : " FAIL"; };
    std::string out = std::string("Xp<=X") + verdict(checks.particular) +
                      ", FX<=S" + verdict(checks.composition);
    if (checks.equivalent.has_value()) {
        out += std::string(", P==M") + verdict(*checks.equivalent);
    }
    return out;
}

int table1_mode(const std::string& filter, double limit) {
    std::printf("Table 1: partitioned vs monolithic CSF computation "
                "(time limit %gs per flow)\n\n", limit);
    std::printf("%-8s %-10s %-8s %12s %10s %10s %8s  %s\n", "Name", "i/o/cs",
                "Fcs/Xcs", "States(X)", "Part,s", "Mono,s", "Ratio",
                "Checks");
    std::printf("%s\n", std::string(100, '-').c_str());
    bool failed = false;
    std::size_t rows = 0;
    for (const leq::table1_instance& inst : leq::make_table1_suite()) {
        if (inst.name.find(filter) == std::string::npos) { continue; }
        ++rows;
        const leq::table1_row row = leq::run_table1_row(inst.name, limit);
        const bool part_ok = row.part_status == leq::solve_status::ok;
        const bool mono_ok = row.mono_status == leq::solve_status::ok;
        std::string ratio = "-";
        if (part_ok && mono_ok && row.part_seconds > 0) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.1f",
                          row.mono_seconds / row.part_seconds);
            ratio = buf;
        }
        const std::string dims =
            std::to_string(inst.circuit.num_inputs()) + "/" +
            std::to_string(inst.circuit.num_outputs()) + "/" +
            std::to_string(inst.circuit.num_latches());
        const std::string split = std::to_string(inst.f_latches) + "/" +
                                  std::to_string(inst.x_latches);
        const std::string states =
            part_ok ? std::to_string(row.csf_states) : "-";
        const std::string checks =
            row.checks ? table1_verdicts(*row.checks) : "-";
        std::printf("%-8s %-10s %-8s %12s %10s %10s %8s  %s\n",
                    inst.name.c_str(), dims.c_str(), split.c_str(),
                    states.c_str(),
                    table1_time(row.part_status, row.part_seconds).c_str(),
                    table1_time(row.mono_status, row.mono_seconds).c_str(),
                    ratio.c_str(), checks.c_str());
        std::fflush(stdout);
        failed = failed || (row.checks && !row.checks->ok());
    }
    std::printf("\nPaper's reference (1.6GHz, MCNC originals): s510 54st "
                "0.3/0.2s; s208 497st 0.4/0.8s; s298 553st 0.9/2.7s;\n"
                "s349 2626st 37.7/810.3s (21.5x); s444 17730st 25.9s/CNC; "
                "s526 141829st 276.7s/CNC\n");
    if (rows == 0) {
        std::cerr << "leq_bench_run: no Table-1 row matches '" << filter
                  << "'\n";
        return 1;
    }
    return failed ? 1 : 0;
}

int compare_mode(const std::string& base_path,
                 const std::string& current_path) {
    const leq::bench_report base =
        leq::parse_bench_report(slurp(base_path));
    const leq::bench_report current =
        leq::parse_bench_report(slurp(current_path));
    const leq::bench_compare_result result =
        leq::compare_bench_reports(base, current);
    std::cout << leq::to_string(result);
    return result.ok() ? 0 : 1;
}

int delta_mode(const std::string& base_path,
               const std::string& current_path) {
    const leq::bench_report base =
        leq::parse_bench_report(slurp(base_path));
    const leq::bench_report current =
        leq::parse_bench_report(slurp(current_path));
    std::cout << leq::bench_delta_table(base, current);
    return 0;
}

int write_corpus_mode(const std::string& dir) {
    for (const leq::bench_corpus_file& file : leq::bench_corpus_files()) {
        const std::string path = dir + "/" + file.name;
        std::ofstream out(path, std::ios::binary);
        out << file.text;
        if (!out) {
            std::cerr << "leq_bench_run: cannot write '" << path << "'\n";
            return 1;
        }
        std::cerr << "bench: wrote " << path << " (" << file.text.size()
                  << " bytes)\n";
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const std::vector<std::string> args(argv + 1, argv + argc);
    std::string filter;
    std::string out_path;
    std::optional<double> table1_limit;
    try {
        for (std::size_t k = 0; k < args.size(); ++k) {
            const std::string& arg = args[k];
            const auto value = [&](const char* flag) -> const std::string& {
                if (k + 1 >= args.size()) {
                    throw std::runtime_error(std::string(flag) +
                                             " needs a value");
                }
                return args[++k];
            };
            if (arg == "--list") {
                for (const std::string& name : leq::bench_workload_names()) {
                    std::cout << name << "\n";
                }
                return 0;
            }
            if (arg == "--compare" || arg == "--delta") {
                // one report: gate it against the checked-in baseline
                const std::size_t files = args.size() - k - 1;
                if (files != 1 && files != 2) { return usage(std::cerr); }
                const std::string base =
                    files == 2 ? args[k + 1] : LEQ_BENCH_BASELINE;
                const std::string& current = args.back();
                return arg == "--compare" ? compare_mode(base, current)
                                          : delta_mode(base, current);
            }
            if (arg == "--write-corpus") {
                return write_corpus_mode(value("--write-corpus"));
            }
            if (arg == "--table1") {
                table1_limit = 120.0;
                if (k + 1 < args.size() && args[k + 1].rfind("--", 0) != 0) {
                    table1_limit = leq::parse_seconds(args[++k]);
                    if (!table1_limit || *table1_limit <= 0) {
                        throw std::runtime_error(
                            "--table1 needs a time limit in seconds > 0");
                    }
                }
            } else if (arg == "--filter") {
                filter = value("--filter");
            } else if (arg == "--out") {
                out_path = value("--out");
            } else if (arg == "--help" || arg == "-h") {
                usage(std::cerr);
                return 0;
            } else {
                std::cerr << "leq_bench_run: unknown option '" << arg
                          << "'\n";
                return usage(std::cerr);
            }
        }
        if (table1_limit) {
            if (!out_path.empty()) { return usage(std::cerr); }
            return table1_mode(filter, *table1_limit);
        }
        return run_mode(filter, out_path);
    } catch (const std::exception& e) {
        std::cerr << "leq_bench_run: " << e.what() << "\n";
        return 1;
    }
}
