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
    first_edge,       ///< first admitting edge (the extract_fsm baseline)
    prefer_self_loop, ///< stay in the current state when allowed
    prefer_visited,   ///< re-enter already-extracted states when possible
    prefer_low_dest,  ///< deterministic bias to the lowest successor id
};

[[nodiscard]] const char* to_string(extraction_policy policy);

/// All policies, for sweeps.
[[nodiscard]] const std::vector<extraction_policy>& all_extraction_policies();

/// extract_fsm generalized over the commitment policy.  The result is a
/// deterministic FSM (complete over the u inputs) contained in the CSF.
/// Throws std::invalid_argument on an empty CSF and std::logic_error if the
/// CSF is not input-progressive.
[[nodiscard]] automaton
extract_fsm_with_policy(const automaton& csf,
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
