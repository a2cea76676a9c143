/// \file reduce.hpp
/// \brief Compatibility-based state reduction of the CSF: the ISFSM-style
/// attack on the paper's "optimum sub-solution" future work.
///
/// The policy extractions in subsolution.hpp commit to one behaviour and
/// then minimize the committed machine; they cannot merge CSF states whose
/// committed behaviours merely *overlap*.  This module works on the
/// flexibility itself, the way incompletely-specified FSM minimizers do:
///
///   1. build explicit per-letter successor tables from the CSF (the
///      alphabet is enumerated, so the method is for modest |u|+|v|);
///   2. compute the pairwise compatibility relation as a greatest fixpoint:
///      p ~ q iff for every input u some shared output v moves both to a
///      compatible pair;
///   3. grow a closed cover of compatibility cliques greedily: starting
///      from {initial}, every (clique, u) must map under some common v into
///      a clique of the cover — new cliques are opened when no existing one
///      contains the implied successor set;
///   4. read the FSM off the cover (one state per clique).
///
/// Exact minimum closed cover selection is NP-hard; step 3 is a heuristic,
/// so the result is small, sound, but not guaranteed minimum.
#pragma once

#include "automata/automaton.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace leq {

/// Give up beyond this many CSF states (tables are |S|^2).
inline constexpr std::size_t reduce_max_states = 512;
/// Give up when the cover grows past this many cliques.
inline constexpr std::size_t reduce_max_cliques = 4096;
/// Give up beyond this many label bits, |u| + |v| (the alphabet is
/// enumerated).
inline constexpr std::size_t reduce_max_label_bits = 14;

/// Reduce the CSF to a small deterministic FSM by compatibility merging; the
/// result is select_small_subsolution's first candidate, which it minimizes
/// and checks.  Returns std::nullopt when the instance exceeds the limits
/// above or the greedy cover gets stuck.  Throws std::invalid_argument on
/// an empty CSF.
[[nodiscard]] std::optional<automaton>
reduce_subsolution(const automaton& csf,
                   const std::vector<std::uint32_t>& u_vars,
                   const std::vector<std::uint32_t>& v_vars);

} // namespace leq
