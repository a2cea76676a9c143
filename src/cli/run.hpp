/// \file run.hpp
/// \brief One equation solve (plus optional verify/diagnose/reduce work) as
/// a reusable, thread-friendly unit: source files in, JSON-ready record out.
///
/// `run_command` owns the whole lifetime of an instance — build the
/// `equation_problem` (and its BDD manager), run the selected flow, run the
/// subcommand's extra checks while the manager is still alive, and return a
/// plain-data record.  Nothing manager-backed escapes, so records can cross
/// threads freely and the batch runner can execute one `run_command` per
/// worker with zero sharing.
#pragma once

#include "cli/equation_io.hpp"
#include "eq/solver.hpp"
#include "eq/verify.hpp"

#include <string>

namespace leq {

/// Everything the flag surface can set for one solve.
struct cli_config {
    /// "partitioned" (default), "monolithic", or "explicit".
    std::string flow = "partitioned";
    /// Solver options; `solve.img` carries the relation-layer knob the
    /// flags expose (the cluster limit).
    solve_options solve;
    /// Trailing F inputs that are footnote-2 choice inputs w.
    std::size_t choice_inputs = 0;
    /// Emit wall-clock fields.  Off in batch mode by default so equal
    /// inputs produce byte-identical records regardless of thread count.
    bool timing = true;
    /// `diagnose`: optional candidate implementation (KISS over u/v) to
    /// check instead of the computed CSF.
    std::string impl_path;
    /// `reduce`: where to write the reduced machine (KISS); empty = don't.
    std::string out_path;
};

/// What happened, flattened to plain data (safe to move across threads).
struct solve_record {
    std::string name;    ///< job label (file stem or manifest name)
    std::string f_path;
    std::string s_path;
    std::string command; ///< solve / verify / diagnose / reduce
    std::string flow;
    std::size_t choice_inputs = 0; ///< effective w count for this job

    bool completed = false; ///< false: `error` explains the failure
    std::string error;
    /// The failure happened while loading an input (reading, parsing or
    /// encoding the pair, or the F/S interface check), not in the solve.
    bool input_error = false;

    solve_result result; ///< CSF dropped; counters and stats kept

    bool has_verify = false;
    bool verify_ok = false;

    bool has_diagnose = false;
    bool diagnose_ok = false;
    std::string diagnose_reason;
    std::string diagnose_trace; ///< format_diagnosis rendering ("" when ok)

    bool has_reduce = false;
    std::size_t reduced_states = 0;
    std::string reduce_method; ///< subsolution_result::method
    std::string wrote_path;    ///< reduce output file, when written

    /// Process exit code this record maps to: 0 solved (even when the
    /// solution is empty), 1 gave up / check failed / errored in the
    /// solver, 3 an input was unreadable or malformed (`input_error`).
    [[nodiscard]] int exit_code() const;
};

/// Execute `command` ("solve", "verify", "diagnose", "reduce") on the pair.
/// Solver and I/O failures are captured in the record (`completed == false`),
/// never thrown: the batch runner must survive any single job.
[[nodiscard]] solve_record
run_command(const std::string& command, const std::string& name,
            const equation_source& fixed, const equation_source& spec,
            const cli_config& config);

/// Render a record as its canonical JSON line (no trailing newline).
[[nodiscard]] std::string record_to_json(const solve_record& record,
                                         const cli_config& config);

} // namespace leq
