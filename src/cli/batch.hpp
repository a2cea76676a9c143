/// \file batch.hpp
/// \brief The `leq batch` campaign mode: a manifest of independent
/// equations solved across a thread pool, shared-nothing.
///
/// Concurrency model: the BDD manager is single-threaded by design, so the
/// batch runner never shares one — each job builds its own
/// `equation_problem` (its own manager, unique table, caches) inside the
/// worker that claimed it, runs to completion, and returns a plain-data
/// `solve_record`.  Workers claim jobs off one atomic counter; there are no
/// locks and no cross-thread BDD handles.  This is the codebase's first
/// concurrency layer and the scaffold for sharding campaigns across
/// processes later: the unit of distribution is already a self-contained
/// (source text, config) pair.
///
/// Determinism: records are stored by job index and emitted in manifest
/// order, and the per-record JSON excludes wall-clock fields unless timing
/// is requested — so `--jobs N` output is byte-identical for every N.
#pragma once

#include "cli/run.hpp"

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace leq {

/// One manifest line: an independent equation instance.  Sources are
/// slurped up front (on the calling thread) so workers touch no shared
/// filesystem state and a missing file fails the whole campaign early.
struct batch_job {
    std::string name;
    equation_source fixed;
    equation_source spec;
    /// Set when the job's source dictates the choice-input count (gen:
    /// scenario jobs); overrides the campaign config's value.
    bool has_choice_inputs = false;
    std::size_t choice_inputs = 0;
};

struct batch_options {
    /// Worker threads; 0 = hardware concurrency, 1 = run inline.
    std::size_t jobs = 1;
    /// Per-solve configuration (flow, knobs, limits), shared by all jobs.
    cli_config config;
    /// Subcommand to run per job ("solve" unless overridden).
    std::string command = "solve";
};

struct batch_report {
    std::vector<solve_record> records; ///< one per job, in manifest order
    std::size_t solved = 0;   ///< status ok, solution non-empty
    std::size_t empty = 0;    ///< status ok, no solution exists
    std::size_t gave_up = 0;  ///< timeout / state limit
    std::size_t errors = 0;   ///< load or solver exceptions
    /// Jobs that solved but whose verify/diagnose check failed (counted in
    /// `solved`/`empty` too — the tallies classify the solution, this one
    /// the check).
    std::size_t check_failures = 0;
    double wall_seconds = 0.0;
    [[nodiscard]] bool all_ok() const {
        return gave_up == 0 && errors == 0 && check_failures == 0;
    }
};

/// Parse a manifest: one job per line, `F_PATH S_PATH [NAME]`,
/// whitespace-separated; `#` starts a comment; blank lines are skipped.
/// Relative paths resolve against `base_dir` (the manifest's directory).
/// The default NAME is F_PATH's basename with a trailing `_f` stripped.
/// Throws parse_error ("manifest:LINE: MESSAGE") on a malformed line, a bad
/// gen: spec or an unreadable F or S file.
[[nodiscard]] std::vector<batch_job>
read_manifest(std::istream& in, const std::string& base_dir);

/// Load a manifest file (resolves entries against its own directory).
/// Its parse_errors read "PATH:LINE: MESSAGE", PATH being the manifest's;
/// throws std::runtime_error when the manifest itself cannot be opened.
[[nodiscard]] std::vector<batch_job>
read_manifest_file(const std::string& path);

/// Run every job and collect the ordered report.  Individual job failures
/// land in their records; only campaign-level misuse throws.
[[nodiscard]] batch_report run_batch(const std::vector<batch_job>& jobs,
                                     const batch_options& options);

} // namespace leq
