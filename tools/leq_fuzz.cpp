/// \file leq_fuzz.cpp
/// \brief Standalone differential fuzzer: manufacture equation scenarios,
/// cross-examine the solver flows, shrink any failure to a minimal KISS/BLIF
/// reproducer.  The binary behind the nightly CI job.
///
/// Usage:
///   leq_fuzz [--seeds N] [--family F] [--seed-base B] [--no-shrink]
///            [--out STEM] [--time-limit SECONDS] [--no-explicit]
///            [--quiet] [--list-families]
///
/// Exit status: 0 all scenarios clean, 1 failures found (reproducers
/// written when --out is given), 2 usage error.

#include "cli/cli.hpp"
#include "gen/fuzz.hpp"

#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

namespace {

using namespace leq;

int usage() {
    std::cerr
        << "usage: leq_fuzz [options]\n"
        << "  --seeds N         seeds per family (default 20)\n"
        << "  --seed-base B     first seed (default 1; nightly CI derives\n"
        << "                    this from the run number)\n"
        << "  --family F        run one family (repeatable); default all\n"
        << "  --no-shrink       report failures without shrinking\n"
        << "  --out STEM        write reproducer files as STEM-<family>-"
           "<seed>*\n"
        << "  --time-limit S    per-solve wall-clock limit (default 60)\n"
        << "  --no-explicit     skip the explicit Algorithm-1 oracle\n"
        << "  --quiet           only print the final summary\n"
        << "  --list-families   print the family names and exit\n";
    return 2;
}

/// Numbers follow `leq`'s rules (cli/cli.hpp); a refused one exits 2.
int bad_value(const std::string& flag, const char* v) {
    std::cerr << "leq_fuzz: bad value for " << flag << ": '" << v << "'\n";
    return 2;
}

/// Fill `options` from argv.  Returns an exit code to bail out with, or -1
/// to proceed.
int parse_args(int argc, char** argv, fuzz_options& options, bool& quiet) {
    for (int k = 1; k < argc; ++k) {
        const std::string arg = argv[k];
        const auto value = [&]() -> const char* {
            if (k + 1 >= argc) { return nullptr; }
            return argv[++k];
        };
        if (arg == "--list-families") {
            for (const scenario_family f : all_scenario_families) {
                std::cout << to_string(f) << "\n";
            }
            return 0;
        }
        if (arg == "--quiet") {
            quiet = true;
            continue;
        }
        if (arg == "--seeds") {
            const char* v = value();
            if (v == nullptr) { return usage(); }
            const auto n = parse_count(v);
            if (!n) { return bad_value(arg, v); }
            options.seeds = *n;
        } else if (arg == "--seed-base") {
            const char* v = value();
            if (v == nullptr) { return usage(); }
            const auto n = parse_count(v);
            if (!n || *n > std::numeric_limits<std::uint32_t>::max()) {
                return bad_value(arg, v);
            }
            options.seed_base = static_cast<std::uint32_t>(*n);
        } else if (arg == "--family") {
            const char* v = value();
            if (v == nullptr) { return usage(); }
            const auto family = scenario_family_from_string(v);
            if (!family.has_value()) {
                std::cerr << "leq_fuzz: unknown family '" << v
                          << "' (--list-families)\n";
                return 2;
            }
            options.families.push_back(*family);
        } else if (arg == "--no-shrink") {
            options.shrink_failures = false;
        } else if (arg == "--out") {
            const char* v = value();
            if (v == nullptr) { return usage(); }
            options.reproducer_stem = v;
        } else if (arg == "--time-limit") {
            const char* v = value();
            if (v == nullptr) { return usage(); }
            const auto t = parse_seconds(v);
            if (!t) { return bad_value(arg, v); }
            options.diff.time_limit_seconds = *t;
        } else if (arg == "--no-explicit") {
            options.diff.with_explicit = false;
        } else {
            std::cerr << "leq_fuzz: unknown option '" << arg << "'\n";
            return usage();
        }
    }
    return -1;
}

} // namespace

int main(int argc, char** argv) {
    fuzz_options options;
    bool quiet = false;
    const int bail = parse_args(argc, argv, options, quiet);
    if (bail >= 0) { return bail; }

    if (!quiet) { options.log = &std::cout; }
    try {
        const fuzz_report report = run_fuzz(options);
        std::cout << "leq_fuzz: " << report.scenarios_run << " scenarios, "
                  << report.failures.size() << " failure(s)\n";
        for (const fuzz_failure& f : report.failures) {
            std::cout << "  " << to_string(f.family) << ":" << f.seed << " — "
                      << f.failure
                      << (f.shrunk ? " (shrunk, spec " +
                                         std::to_string(f.repro.spec_states) +
                                         " states)"
                                   : "")
                      << "\n";
        }
        return report.ok() ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "leq_fuzz: " << e.what() << "\n";
        return 2;
    }
}
