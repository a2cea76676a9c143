/// \file subset_common.hpp
/// \brief Machinery shared by the solver flows: the solve runner that times
/// every flow and enforces its time budget (all three flows), and for the
/// partitioned and monolithic subset constructions (u,v)-cofactor class
/// extraction, the worklist driver, progressive trimming and assembly of
/// the final CSF automaton.
#pragma once

#include "automata/automaton.hpp"
#include "bdd/bdd.hpp"
#include "eq/solver.hpp"

#include <cstdint>
#include <functional>
#include <vector>

namespace leq::detail {

/// Copy of `options` with `deadline` set from `time_limit_seconds` (when a
/// limit is set and no deadline is present).  A limit past the clock's
/// range saturates to no deadline.
[[nodiscard]] solve_options with_deadline(const solve_options& options);

/// Runs one flow's solve under `options`' budget: the one place a solve is
/// timed and its time limit enforced, for all three flows.  It arms
/// with_deadline(options)'s deadline on the problem's manager for the whole
/// of `body` — relation construction, the subset loop and trimming, or
/// Algorithm 1's automaton operations — so the manager's in-operation probe
/// is the one time budget and its bdd_deadline_exceeded the one timeout
/// signal.  A bdd_deadline_exceeded that escapes `body` becomes
/// `solve_status::timeout` (no CSF, no relation counters: the relations
/// unwound).  The deadline is disarmed on every exit; then the manager
/// counters are read (read_manager_stats) and `seconds` is set, from the
/// runner's start, whatever the status.
[[nodiscard]] solve_result
run_solve(const equation_problem& problem, const solve_options& options,
          const std::function<solve_result()>& body);

/// Fold one relation's shape and counters into a solve's aggregate stats
/// (both flows call this once per transition relation they built).
void accumulate_stats(solve_stats& stats, const transition_relation& rel);

/// Snapshot the manager-side counters into a finished solve's stats: live
/// nodes (forces a count) plus read_manager_counters.  run_solve calls this
/// once, on every exit path.
void read_manager_stats(solve_stats& stats, bdd_manager& mgr);

/// One (u,v)-cofactor class of an image P(u,v,ns): the set of (u,v)
/// assignments (guard) that lead to the same successor state set (leaf, over
/// the ns variables, never constant false).
using cofactor_class = bdd_cofactor_class;

/// Split P into its cofactor classes with respect to the top block of the
/// variable order (ids < boundary).  Relies on the problem's variable
/// order: every (u,v) id is below `boundary`, every other id at or above it,
/// so the classes are exactly the distinct sub-BDDs hanging off the block.
/// The manager does the split (bdd_manager::cofactor_classes).
[[nodiscard]] std::vector<cofactor_class>
split_by_top_block(bdd_manager& mgr, const bdd& p, std::uint32_t boundary);

/// Result of expanding one subset state.
struct expansion {
    std::vector<cofactor_class> successors; ///< guard -> successor subset
    bdd to_dca;                             ///< guard of undefined (u,v)
};

/// Generic subset-construction driver.  `expand` maps a subset state (over
/// current-state variables) to its successor classes (leaves over
/// next-state variables; the driver renames them back).  Returns the CSF
/// after progressive trimming, or an early status on limits: a
/// bdd_deadline_exceeded from the expansions, the trimming or the assembly
/// becomes a timeout that still reports the subset states explored (only
/// the driver knows that count).  It keeps no clock: run_solve, which the
/// driver runs under, sets `seconds`.
///
/// Contract:
///  * Subset ids are handed out in discovery order (the initial state is
///    0; a state's successors get theirs in class order), and states are
///    expanded in id order, which is breadth-first.  The completion state
///    DCA takes the id after the last subset.  `max_subset_states` is
///    checked before each expansion against the ids handed out so far.
///  * Subsets are interned by tagged reference (bdd::index()).  The key
///    stays valid for the whole run: the driver holds every interned
///    handle, and a collection never moves or frees a held node.
///  * The CSF keeps the surviving states that state 0 reaches, numbered in
///    id order, each with its surviving transitions in expansion order
///    (the DCA edge last).  That is the automaton progressive() makes of
///    the explored one.
struct subset_driver {
    bdd_manager& mgr;
    std::vector<std::uint32_t> uv_vars;    ///< u then v (label variables)
    std::vector<std::uint32_t> u_vars;     ///< X's inputs (progressive set)
    std::vector<std::uint32_t> ns_to_cs;   ///< permutation for leaf renaming
    const solve_options& options;

    [[nodiscard]] solve_result
    run(const bdd& initial_state,
        const std::function<expansion(const bdd&)>& expand) const;
};

} // namespace leq::detail
