/// \file subsolution.hpp
/// \brief Heuristic search for a small FSM sub-solution of the CSF.
///
/// The paper closes with: "Finding an optimum sub-solution of the CSF
/// remains the outstanding problem for future research."  This module is a
/// baseline for that problem: the CSF (a deterministic, prefix-closed,
/// input-progressive automaton over (u,v)) admits many contained FSMs — one
/// per way of committing to a single v response per state and u input.  The
/// search minimizes the compatibility cover (reduce.hpp) and one extraction
/// per commitment policy, verifies containment, and keeps the smallest.
///
/// This is deliberately a heuristic: exact minimum-state sub-solution
/// selection generalizes ISFSM minimization and is NP-hard.
#pragma once

#include "automata/automaton.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace leq {

/// How to commit to one (v, successor) choice per (state, u assignment).
enum class extraction_policy {
    first_edge,     ///< first admitting edge (the greedy baseline)
    prefer_visited, ///< re-enter already-extracted states when possible
};

/// Extract a concrete FSM implementation from a CSF over u_vars and v_vars
/// (as produced by the solvers): in every state and for every input u,
/// commit to one output v and successor the CSF allows, chosen by
/// `policy` with u taken in ascending order (u_vars[0] least significant),
/// and v the smallest the chosen transition allows (0 before 1, the
/// lowest level most significant).  Commits per CSF transition on sets of
/// u, not per u minterm.  The result is a deterministic Mealy FSM,
/// complete over u and contained in the CSF.  Throws std::invalid_argument
/// on an empty CSF and std::logic_error if the CSF is not input-progressive.
[[nodiscard]] automaton extract_fsm(const automaton& csf,
                                    const std::vector<std::uint32_t>& u_vars,
                                    const std::vector<std::uint32_t>& v_vars,
                                    extraction_policy policy);

/// Result of the search: the smallest minimized candidate.
struct subsolution_result {
    automaton fsm;      ///< contained in the CSF
    std::string method; ///< "compatibility", "first_edge" or "prefer_visited"
};

/// Build the candidates in a fixed order — the compatibility cover (when
/// the CSF is inside reduce_subsolution's limits), then first_edge, then
/// prefer_visited — minimize each, check its containment in the CSF
/// (internal invariant; throws std::logic_error if violated), and return
/// the smallest, the earlier on a tie.  Throws std::invalid_argument on an
/// empty CSF.
[[nodiscard]] subsolution_result
select_small_subsolution(const automaton& csf,
                         const std::vector<std::uint32_t>& u_vars,
                         const std::vector<std::uint32_t>& v_vars);

} // namespace leq
