/// \file cli.hpp
/// \brief The `leq` end-user CLI, as a library entry point.
///
/// `tools/leq.cpp` is a two-line main over `run_leq_cli`; the test suite
/// (tests/test_cli.cpp) drives the same entry point in-process, capturing
/// stdout/stderr through the stream parameters, so every subcommand and
/// error path is testable without spawning processes.
///
/// Subcommands (see `leq --help` or docs/ARCHITECTURE.md):
///   solve F S      compute the CSF, emit one JSON stats line
///   verify F S     solve, then check F . X <= S symbolically
///   diagnose F S   solve, then diagnose (optionally a --impl candidate)
///                  with a counterexample trace on failure
///   reduce F S     solve, then reduce the CSF to a small contained FSM
///   batch MANIFEST solve a manifest of equations on a thread pool
///
/// Exit codes: 0 success (an unsolvable equation still exits 0 — the JSON
/// carries `"solution":"empty"`), 1 solver gave up / a check failed / a job
/// errored, 2 usage error, 3 inputs unreadable.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace leq {

/// Run the CLI: `args` excludes the program name ({"solve", "f.kiss", ...}).
/// JSON records go to `out`; usage, summaries and errors go to `err`.
[[nodiscard]] int run_leq_cli(const std::vector<std::string>& args,
                              std::ostream& out, std::ostream& err);

/// A count as the command-line tools (`leq`, `leq_fuzz`, `leq_bench_run`)
/// read one: digits only and the whole token, so "-1" (which std::stoul
/// wraps to 2^64-1) and "5abc" are refused; empty when refused or too big.
[[nodiscard]] std::optional<std::size_t> parse_count(const std::string& text);

/// A time in seconds as the command-line tools read one: finite, >= 0 and
/// the whole token; empty otherwise.
[[nodiscard]] std::optional<double> parse_seconds(const std::string& text);

} // namespace leq
