/// \file test_reach_words.cpp
/// \brief Word counting over CSFs and extracted FSMs.

#include "eq/extract.hpp"
#include "eq/solver.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace leq;

// ---------------------------------------------------------------------------
// word counting
// ---------------------------------------------------------------------------

TEST(count_words, chain_and_universal) {
    bdd_manager mgr(1);
    // accepts words over one variable where every letter is 1, length <= 3
    automaton ones(mgr, {0});
    for (int k = 0; k <= 3; ++k) { ones.add_state(true); }
    for (std::uint32_t k = 0; k < 3; ++k) {
        ones.add_transition(k, k + 1, mgr.var(0));
    }
    ones.set_initial(0);
    EXPECT_EQ(count_words(ones, 0), 1.0);
    EXPECT_EQ(count_words(ones, 2), 1.0);
    EXPECT_EQ(count_words(ones, 3), 1.0);
    EXPECT_EQ(count_words(ones, 4), 0.0);

    // the universal automaton over two variables: 4^L words
    automaton all(mgr, {0});
    all.add_state(true);
    all.set_initial(0);
    all.add_transition(0, 0, mgr.one());
    EXPECT_EQ(count_words(all, 3), 8.0); // one variable: 2^3
}

TEST(count_words, nondeterminism_counts_words_not_runs) {
    bdd_manager mgr(1);
    // two parallel runs accept the same single word: must count once
    automaton nfa(mgr, {0});
    nfa.add_state(false); // 0
    nfa.add_state(true);  // 1
    nfa.add_state(true);  // 2
    nfa.set_initial(0);
    nfa.add_transition(0, 1, mgr.var(0));
    nfa.add_transition(0, 2, mgr.var(0));
    EXPECT_EQ(count_words(nfa, 1), 1.0);
}

TEST(count_words, csf_flexibility_dominates_any_extraction) {
    const network original = make_counter(3);
    const split_result split = split_latches(original, {2});
    const equation_problem problem(split.fixed, original);
    const solve_result r = solve_partitioned(problem);
    ASSERT_EQ(r.status, solve_status::ok);
    const automaton fsm =
        extract_fsm(*r.csf, problem.u_vars, problem.v_vars);
    for (const std::size_t len : {1u, 3u, 5u}) {
        const double flex = count_words(*r.csf, len);
        const double committed = count_words(fsm, len);
        EXPECT_GE(flex, committed) << "length " << len;
        EXPECT_GT(committed, 0.0) << "length " << len;
    }
}

TEST(count_words, deterministic_word_count_is_exact_for_fsm) {
    // an extracted FSM commits to exactly one v per (state, u): 2^(|u| len)
    const network original = make_counter(3);
    const split_result split = split_latches(original, {2});
    const equation_problem problem(split.fixed, original);
    const solve_result r = solve_partitioned(problem);
    ASSERT_EQ(r.status, solve_status::ok);
    const automaton fsm =
        extract_fsm(*r.csf, problem.u_vars, problem.v_vars);
    const double expected =
        std::pow(2.0, static_cast<double>(problem.u_vars.size()) * 4.0);
    EXPECT_EQ(count_words(fsm, 4), expected);
}

} // namespace
