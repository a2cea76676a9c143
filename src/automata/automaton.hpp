/// \file automaton.hpp
/// \brief Explicit-state finite automata with BDD-labelled transitions.
///
/// The solver's symbolic flows manipulate automata implicitly; this module
/// provides the same objects explicitly.  It serves three purposes: it is the
/// output format of the solver (the CSF is returned as an explicit automaton
/// over the (u,v) alphabet), the oracle implementation of Algorithm 1 for
/// cross-validation, and the substrate for the paper's verification checks.
///
/// Transition labels are BDDs over a fixed list of label variables (the
/// automaton's support, in the paper's terminology).  A word is a sequence
/// of assignments to the label variables; it is accepted if some run over it
/// ends in an accepting state.  All automata here are over finite words.
#pragma once

#include "bdd/bdd.hpp"

#include <cstdint>
#include <vector>

namespace leq {

/// One labelled transition.
struct transition {
    std::uint32_t dest = 0;
    bdd label; ///< set of label-variable assignments enabling the move
};

/// Explicit automaton; states are dense ids.
class automaton {
public:
    automaton(bdd_manager& mgr, std::vector<std::uint32_t> label_vars)
        : mgr_(&mgr), label_vars_(std::move(label_vars)) {}

    std::uint32_t add_state(bool accepting);
    /// Add (or extend, by disjunction) the transition src -> dest.
    void add_transition(std::uint32_t src, std::uint32_t dest, const bdd& label);
    void set_initial(std::uint32_t state) { initial_ = state; }

    [[nodiscard]] bdd_manager& manager() const { return *mgr_; }
    [[nodiscard]] const std::vector<std::uint32_t>& label_vars() const {
        return label_vars_;
    }
    [[nodiscard]] std::uint32_t initial() const { return initial_; }
    [[nodiscard]] std::size_t num_states() const { return accepting_.size(); }
    [[nodiscard]] bool accepting(std::uint32_t state) const {
        return accepting_[state];
    }
    void set_accepting(std::uint32_t state, bool accepting) {
        accepting_[state] = accepting;
    }
    [[nodiscard]] const std::vector<transition>&
    transitions(std::uint32_t state) const {
        return edges_[state];
    }
    /// Union of outgoing labels (the domain on which the state is defined).
    [[nodiscard]] bdd domain(std::uint32_t state) const;

    [[nodiscard]] std::size_t num_transitions() const;

private:
    bdd_manager* mgr_;
    std::vector<std::uint32_t> label_vars_;
    std::vector<std::vector<transition>> edges_;
    std::vector<bool> accepting_;
    std::uint32_t initial_ = 0;
};

// ---------------------------------------------------------------------------
// elementary operations of language-equation solving (paper, Section 3)
// ---------------------------------------------------------------------------

[[nodiscard]] bool is_deterministic(const automaton& a);
[[nodiscard]] bool is_complete(const automaton& a);

/// Add a non-accepting DC state with a universal self-loop and direct every
/// undefined input combination to it (paper: Complete).
[[nodiscard]] automaton complete(const automaton& a);

/// Swap accepting and non-accepting states.  Requires a deterministic,
/// complete automaton (determinize/complete first otherwise).
[[nodiscard]] automaton complement(const automaton& a);

/// Subset construction.  A subset state is accepting iff it contains an
/// accepting member.
[[nodiscard]] automaton determinize(const automaton& a);

/// Direct product; defined over the union of supports, a pair state is
/// accepting iff both components are.
[[nodiscard]] automaton product(const automaton& a, const automaton& b);

/// Change of support (paper: Support): `vars` is the new label-variable
/// list.  Variables currently in the support but absent from `vars` are
/// hidden (existentially quantified from every label); fresh variables are
/// added as unconstrained.  Hiding typically makes the result
/// non-deterministic.
[[nodiscard]] automaton change_support(const automaton& a,
                                       const std::vector<std::uint32_t>& vars);

/// Remove all non-accepting states and every transition touching them
/// (paper: PrefixClose), then trim unreachable states.
[[nodiscard]] automaton prefix_close(const automaton& a);

/// Largest sub-automaton whose every state accepts all `input_vars`
/// assignments for some assignment of the remaining label variables
/// (paper: Progressive, over the inputs u of the unknown component).
/// Returns an empty-language automaton if the initial state is trimmed.
[[nodiscard]] automaton progressive(const automaton& a,
                                    const std::vector<std::uint32_t>& input_vars);

/// Drop states unreachable from the initial state.
[[nodiscard]] automaton trim_unreachable(const automaton& a);

/// Minimize a deterministic automaton by partition refinement (Moore's
/// algorithm over BDD-labelled edges).  The input need not be complete;
/// "no transition" is treated as a distinct sink behaviour.  The result
/// accepts the same language with the minimum number of states.
[[nodiscard]] automaton minimize(const automaton& a);

// ---------------------------------------------------------------------------
// language queries
// ---------------------------------------------------------------------------

/// L(a) subset-of L(b)?  Supports arbitrary a; b is determinized/completed
/// internally.  Both must share the label variable list.
[[nodiscard]] bool language_contained(const automaton& a, const automaton& b);

[[nodiscard]] bool language_equivalent(const automaton& a, const automaton& b);

/// Does the automaton accept any word (including the empty word)?
[[nodiscard]] bool language_empty(const automaton& a);

/// Word membership.  Each letter assigns every label variable (indexed by
/// variable id, like bdd_manager::eval).  Handles non-deterministic
/// automata by tracking the reachable state subset.
[[nodiscard]] bool accepts(const automaton& a,
                           const std::vector<std::vector<bool>>& word);

// ---------------------------------------------------------------------------
// derived language operations (language_ops.cpp)
// ---------------------------------------------------------------------------

/// A word over the label variables: one full assignment per letter, indexed
/// by variable id (the representation bdd_manager::eval consumes).
using word = std::vector<std::vector<bool>>;

/// Is L(a) prefix-closed?  (Every prefix of an accepted word is accepted.
/// Networks always induce prefix-closed automata — paper, Section 2; the
/// solver's CSF is prefix-closed by construction.)
[[nodiscard]] bool is_prefix_closed(const automaton& a);

/// Sample up to `count` accepted words of length <= max_len by seeded random
/// walks (duplicates removed).  Cheap probabilistic cross-checks: every
/// sampled word of one automaton must be accepted by an equivalent one.
[[nodiscard]] std::vector<word> sample_accepted_words(const automaton& a,
                                                      std::size_t count,
                                                      std::size_t max_len,
                                                      std::uint32_t seed);

} // namespace leq
