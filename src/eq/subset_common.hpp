/// \file subset_common.hpp
/// \brief Machinery shared by the partitioned and monolithic subset
/// constructions: (u,v)-cofactor class extraction, the worklist driver,
/// progressive trimming and assembly of the final CSF automaton.
#pragma once

#include "automata/automaton.hpp"
#include "bdd/bdd.hpp"
#include "eq/solver.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace leq::detail {

/// Copy of `options` with `deadline` set from `time_limit_seconds` (when a
/// limit is set and no deadline is present).  A limit past the clock's
/// range saturates to no deadline.
[[nodiscard]] solve_options with_deadline(const solve_options& options);

/// Arms `options.deadline`, when set, on the manager for the scope's
/// lifetime and disarms it on every exit.  Each flow holds one around its
/// whole solve — relation construction, the subset loop and trimming — so
/// the manager's in-operation probe is the one time budget, and its
/// bdd_deadline_exceeded the one timeout signal.
class deadline_scope {
public:
    deadline_scope(bdd_manager& mgr, const solve_options& options);
    ~deadline_scope();
    deadline_scope(const deadline_scope&) = delete;
    deadline_scope& operator=(const deadline_scope&) = delete;

private:
    bdd_manager& mgr_;
    bool armed_;
};

/// A timeout-status result with `seconds` measured from `start` (shared by
/// the driver and both solvers' deadline handlers).
[[nodiscard]] solve_result
timeout_result(std::chrono::steady_clock::time_point start);

/// Fold one relation's shape and counters into a solve's aggregate stats
/// (both flows call this once per transition relation they built).
void accumulate_stats(solve_stats& stats, const transition_relation& rel);

/// Snapshot the manager-side counters into a finished solve's stats: live
/// nodes (forces a count) plus total and per-op computed-cache traffic.
/// Every solver exit path — success or deadline — calls this last.
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
/// becomes a timeout that still reports the subset states explored.
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
