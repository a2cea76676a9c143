/// \file solver.hpp
/// \brief Language-equation solving: the paper's two flows and the explicit
/// oracle.
///
/// All three entry points compute the Complete Sequential Flexibility (CSF):
/// the largest prefix-closed, input-progressive solution X of F . X <= S,
/// returned as an explicit deterministic automaton over the (u,v) alphabet.
///
///  * solve_partitioned — the paper's contribution (Section 3.2): a single
///    modified subset construction driven by partitioned image computation;
///    monolithic relations are never built, completion is deferred, and
///    non-conforming transitions are trimmed to DCN on the fly.
///  * solve_monolithic — the baseline (Section 4): build the monolithic
///    transition-output relations, complete S eagerly, form the product,
///    hide i/o by quantification, then determinize traditionally.
///  * solve_explicit — Algorithm 1 executed literally on explicit automata;
///    the cross-validation oracle for small instances.
///
/// Ownership and thread-safety: a solve runs entirely inside the
/// `equation_problem`'s BDD manager, and the returned CSF automaton holds
/// handles into that manager — keep the problem alive as long as the result.
/// Neither `bdd_manager` nor anything built on it is thread-safe; concurrent
/// solves require one manager (i.e. one `equation_problem`) per thread,
/// shared-nothing, which is exactly how the `leq batch` campaign mode runs
/// (src/cli/batch.cpp).  Distinct problems on distinct threads never share
/// state.
#pragma once

#include "automata/automaton.hpp"
#include "eq/problem.hpp"
#include "rel/relation.hpp"

#include <array>
#include <chrono>
#include <optional>

namespace leq {

enum class solve_status {
    ok,          ///< CSF computed
    timeout,     ///< gave up: time limit (reported as CNC in the benches)
    state_limit, ///< gave up: subset-state limit
};

struct solve_options {
    image_options img;
    /// Wall-clock limit; 0 = unlimited.  The solve turns it into `deadline`
    /// (detail::with_deadline) and arms that on the problem's BDD manager
    /// for its whole run: relation construction, the subset loop and the
    /// final trimming.  The manager probes the clock inside its operations,
    /// so one long image cannot run far past the limit.  A timed-out solve
    /// returns `solve_status::timeout` with no CSF; it never throws.
    double time_limit_seconds = 0.0;
    /// Absolute deadline of the solve; unset = none.  Set from
    /// `time_limit_seconds` when empty; a caller may also set it directly.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Cap on explored subset states; 0 = unlimited.
    std::size_t max_subset_states = 0;
};

/// Aggregate statistics of one solve, read off the transition relations the
/// flow built and the BDD manager it ran in.  Filled by the symbolic flows
/// (`solve_partitioned` / `solve_monolithic`); the explicit oracle reports
/// only the manager counters (`live_nodes_after` onward).  On a timeout in
/// the subset construction the counters cover the work done up to the
/// deadline; a deadline tripped inside relation construction reports zero
/// relation counters (the relations unwound), with only the manager
/// counters still measured.
struct solve_stats {
    std::size_t relations = 0;      ///< transition relations constructed
    std::size_t relation_parts = 0; ///< partition parts across all relations
    std::size_t clusters = 0;       ///< scheduled clusters across relations
    std::size_t images = 0;         ///< image() calls served
    /// Live BDD nodes in the problem's manager when the solve returned.
    std::size_t live_nodes_after = 0;
    /// Garbage collections the problem's manager has run, the adaptive
    /// trigger's and explicit ones alike.  Reading these statistics never
    /// collects, so a solve that stays under the trigger reports 0.
    std::size_t gc_runs = 0;
    /// Computed-cache traffic of the problem's manager over the whole solve
    /// (the manager outlives individual relations, so these are totals, not
    /// per-phase).  `op_lookups`/`op_hits` split the same traffic by cached
    /// operation — index with the `bdd_op_name` order — to show which
    /// recursion is thrashing.
    std::size_t cache_lookups = 0;
    std::size_t cache_hits = 0;
    std::array<std::size_t, bdd_num_ops> op_lookups{};
    std::array<std::size_t, bdd_num_ops> op_hits{};
};

struct solve_result {
    solve_status status = solve_status::ok;
    /// The CSF over (u,v); empty optional when status != ok.
    std::optional<automaton> csf;
    /// True when the equation has no prefix-closed progressive solution.
    bool empty_solution = false;
    std::size_t subset_states_explored = 0; ///< before progressive trimming
    std::size_t csf_states = 0;             ///< final states (incl. DCA)
    double seconds = 0.0;
    solve_stats stats;
};

/// Partitioned flow (the paper's method).
[[nodiscard]] solve_result solve_partitioned(const equation_problem& problem,
                                             const solve_options& options = {});

/// Monolithic baseline.
[[nodiscard]] solve_result solve_monolithic(const equation_problem& problem,
                                            const solve_options& options = {});

/// Algorithm 1 on explicit automata (oracle; exponential in |i|+|o|).
/// Uses the problem's variable ids so results are comparable.
[[nodiscard]] solve_result solve_explicit(const equation_problem& problem,
                                          const network& fixed,
                                          const network& spec);

} // namespace leq
