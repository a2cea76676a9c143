/// \file subsolution.hpp
/// \brief Heuristic search for a small FSM sub-solution of the CSF.
///
/// The paper closes with: "Finding an optimum sub-solution of the CSF
/// remains the outstanding problem for future research."  This module is a
/// baseline for that problem: the CSF (a deterministic, prefix-closed,
/// input-progressive automaton over (u,v)) admits many contained FSMs — one
/// per way of committing to a single v response per state and u input.  We
/// extract candidates under several commitment policies, minimize each with
/// the DFA minimizer, verify containment, and keep the smallest.
///
/// This is deliberately a heuristic: exact minimum-state sub-solution
/// selection generalizes ISFSM minimization and is NP-hard.
#pragma once

#include "automata/automaton.hpp"

#include <cstdint>
#include <vector>

namespace leq {

/// How to commit to one (v, successor) choice per (state, u assignment).
enum class extraction_policy {
    first_edge,       ///< first admitting edge (the greedy baseline)
    prefer_visited,   ///< re-enter already-extracted states when possible
    prefer_low_dest,  ///< deterministic bias to the lowest successor id
};

/// All policies, for sweeps.
[[nodiscard]] const std::vector<extraction_policy>& all_extraction_policies();

/// Extract a concrete FSM implementation from a CSF over u_vars and v_vars
/// (as produced by the solvers): in every state and for every input u,
/// commit to one output v and successor the CSF allows, chosen by
/// `policy`.  The result is a deterministic Mealy FSM, complete over the u
/// inputs and contained in the CSF by construction.  Exponential in |u|
/// (it iterates the input minterms).  Throws std::invalid_argument on an
/// empty CSF or more than 20 inputs, and std::logic_error if the CSF is not
/// input-progressive.
[[nodiscard]] automaton extract_fsm(const automaton& csf,
                                    const std::vector<std::uint32_t>& u_vars,
                                    const std::vector<std::uint32_t>& v_vars,
                                    extraction_policy policy);

/// One candidate of the sub-solution search.
struct subsolution_candidate {
    extraction_policy policy = extraction_policy::first_edge;
    std::size_t raw_states = 0;       ///< extracted, before minimization
    std::size_t minimized_states = 0; ///< after DFA minimization
};

/// Result of the search: the smallest minimized FSM over all policies.
struct subsolution_result {
    automaton fsm; ///< minimized winner; contained in the CSF
    extraction_policy policy = extraction_policy::first_edge;
    std::vector<subsolution_candidate> candidates; ///< per-policy sizes
};

/// Try every policy, minimize, verify containment in the CSF (internal
/// invariant; throws std::logic_error if violated), return the smallest.
[[nodiscard]] subsolution_result
select_small_subsolution(const automaton& csf,
                         const std::vector<std::uint32_t>& u_vars,
                         const std::vector<std::uint32_t>& v_vars);

} // namespace leq
