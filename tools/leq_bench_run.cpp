/// \file leq_bench_run.cpp
/// \brief The standard benchmark runner: executes the pinned workloads and
/// gates reports against a baseline.
///
/// This is the single entry point of the perf trajectory (see
/// src/cli/bench.hpp).  Modes:
///
///   leq_bench_run [--filter SUBSTR] [--repeat N] [--out FILE]
///       Run the pinned workloads (optionally only those whose id contains
///       SUBSTR) and write the leq-bench-v1 JSON report to FILE (stdout by
///       default).  Progress goes to stderr.  With --repeat N each workload
///       runs N times and reports the median seconds (counters come from
///       the first run — they are deterministic, repetition only steadies
///       the wall clock); use --filter + --repeat to profile one hot
///       workload without paying for the full sweep.
///
///   leq_bench_run --list
///       Print the pinned workload ids, one per line.
///
///   leq_bench_run --compare [BASELINE] CURRENT
///       Gate CURRENT against BASELINE (two report files; BASELINE defaults
///       to the checked-in BENCH_PR<n>.json the build was configured with).
///       Exit 0 when no gated metric regressed, 1 otherwise, printing one
///       line per regression.  Wall-clock seconds are never gated — only
///       the deterministic work counters are, so the gate behaves
///       identically on every machine.
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

#include <algorithm>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

int usage(std::ostream& err) {
    err << "usage: leq_bench_run [--filter SUBSTR] [--repeat N] "
           "[--out FILE]\n"
        << "       leq_bench_run --list\n"
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

int run_mode(const std::string& filter, std::size_t repeat,
             const std::string& out_path) {
    leq::bench_report report;
    for (const std::string& name : leq::bench_workload_names()) {
        if (!filter.empty() && name.find(filter) == std::string::npos) {
            continue;
        }
        std::cerr << "bench: " << name << "..." << std::flush;
        leq::bench_row row = leq::run_bench_workload(name);
        if (repeat > 1) {
            // counters are deterministic — keep the first run's row and
            // only re-measure the wall clock, reporting the median
            std::vector<double> seconds{row.seconds};
            for (std::size_t r = 1; r < repeat; ++r) {
                seconds.push_back(leq::run_bench_workload(name).seconds);
            }
            std::sort(seconds.begin(), seconds.end());
            const std::size_t mid = seconds.size() / 2;
            row.seconds = seconds.size() % 2 == 1
                              ? seconds[mid]
                              : (seconds[mid - 1] + seconds[mid]) / 2.0;
        }
        std::cerr << " " << row.seconds << "s"
                  << (repeat > 1
                          ? " (median of " + std::to_string(repeat) + ")"
                          : "")
                  << "\n";
        report.rows.push_back(std::move(row));
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
    std::size_t repeat = 1;
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
            if (arg == "--filter") {
                filter = value("--filter");
            } else if (arg == "--repeat") {
                const std::string& v = value("--repeat");
                std::size_t end = 0;
                repeat = std::stoul(v, &end);
                if (end != v.size() || repeat == 0) {
                    throw std::runtime_error("--repeat needs a count >= 1");
                }
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
        return run_mode(filter, repeat, out_path);
    } catch (const std::exception& e) {
        std::cerr << "leq_bench_run: " << e.what() << "\n";
        return 1;
    }
}
