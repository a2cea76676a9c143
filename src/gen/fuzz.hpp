/// \file fuzz.hpp
/// \brief The fuzz campaign driver: families x seeds -> differential ->
/// shrink -> reproducer.
///
/// One call runs the whole loop the `leq_fuzz` CLI and the nightly CI job
/// are built on: generate each (family, seed) scenario, cross-examine the
/// flows with the differential oracle, and on failure shrink the instance
/// and package a reproducer.  The report is data, not an exit code, so the
/// test suite can drive campaigns in-process.
///
/// Ownership and thread-safety: `run_fuzz` is self-contained — every
/// scenario builds (and destroys) its own equation problem and BDD
/// manager, and the returned report is plain data.  A single call runs on
/// the calling thread; concurrent campaigns are fine as long as each call
/// gets its own `fuzz_options` (the usual one-manager-per-thread rule,
/// upheld here because nothing manager-backed crosses the call boundary).
/// `diff.time_limit_seconds` bounds each solver invocation via the solve's
/// deadline (`solve_options::time_limit_seconds`); a scenario that exceeds
/// it is reported as a finding, not a hang.
#pragma once

#include "gen/differential.hpp"
#include "gen/scenario.hpp"
#include "gen/shrink.hpp"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace leq {

struct fuzz_options {
    /// Families to run; empty = all of `all_scenario_families`.
    std::vector<scenario_family> families;
    /// Seeds per family: seed_base, seed_base+1, ..., seed_base+seeds-1.
    std::size_t seeds = 20;
    std::uint32_t seed_base = 1;
    /// Shrink failing scenarios to minimal reproducers.
    bool shrink_failures = true;
    differential_options diff;
    /// When non-empty, every failure writes reproducer files under
    /// `<stem>-<family>-<seed>*` (see write_reproducer).
    std::string reproducer_stem;
    /// Progress / failure log; null = silent.
    std::ostream* log = nullptr;
};

/// `run_fuzz` stops the campaign after this many failures.
inline constexpr std::size_t fuzz_max_failures = 10;

struct fuzz_failure {
    scenario_family family = scenario_family::random;
    std::uint32_t seed = 0;
    std::string failure;
    reproducer repro; ///< shrunk when `shrunk`, otherwise the raw instance
    bool shrunk = false;
};

struct fuzz_report {
    std::size_t scenarios_run = 0;
    std::vector<fuzz_failure> failures;
    [[nodiscard]] bool ok() const { return failures.empty(); }
};

[[nodiscard]] fuzz_report run_fuzz(const fuzz_options& options = {});

} // namespace leq
