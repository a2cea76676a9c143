/// \file verify.hpp
/// \brief The paper's formal verification of a computed CSF (Section 4):
///
///   (1) X_P is contained in X            — the particular solution (the
///       extracted latches) is one of the behaviours the CSF allows;
///   (2) F . X is contained in S          — every behaviour the CSF allows
///       keeps the composition inside the specification.
///
/// Both checks, and check (2)'s counterexample extraction, live in
/// verify.cpp and run one breadth-first search.  They run symbolically: the
/// explicit CSF states index a family of reachable-set BDDs, and the
/// component moves are applied through the partitioned functions (u
/// substituted by and-exists against the U_m parts), so no monolithic
/// relation is ever built here either.  Check (2) is its diagnosis with
/// the trace dropped; the trace is built only on failure.
#pragma once

#include "automata/automaton.hpp"
#include "eq/problem.hpp"

#include <string>
#include <vector>

namespace leq {

/// Check (1): the language of X_P (the extracted-latch component, whose
/// state is the v vector, whose next state is the u input) is contained in
/// the CSF.  `x_init` is X_P's initial latch state (one bit per u/v pair).
[[nodiscard]] bool verify_particular_contained(const equation_problem& problem,
                                               const automaton& csf,
                                               const std::vector<bool>& x_init);

/// Check (2): the composition of F with the CSF never produces an output
/// that disagrees with S.
[[nodiscard]] bool verify_composition_contained(const equation_problem& problem,
                                                const automaton& csf);

// ---------------------------------------------------------------------------
// diagnostic variant of check (2): a concrete counterexample trace on failure
// ---------------------------------------------------------------------------

/// One step of a counterexample trace; values per variable group, in the
/// problem's group order.
struct trace_step {
    std::vector<bool> i, u, v, o;
};

/// Result of a diagnostic verification run.  When `ok` is false, `trace`
/// leads from the initial states to the violation and `reason` names it.
struct verify_diagnosis {
    bool ok = true;
    std::string reason;
    std::vector<trace_step> trace;
};

/// Check (2) with counterexample extraction: on failure the trace is a
/// shortest composed run of F and the CSF ending in a step whose o output
/// disagrees with S.  Its memory follows the (depth, CSF state) pairs the
/// breadth-first search reaches, not depth times the CSF's size.
[[nodiscard]] verify_diagnosis
diagnose_composition_contained(const equation_problem& problem,
                               const automaton& csf);

/// Render a diagnosis for humans: one line per step, variable groups
/// labelled i/u/v/o, plus the reason line.
[[nodiscard]] std::string format_diagnosis(const verify_diagnosis& d);

} // namespace leq
