/// \file test_nondet.cpp
/// \brief Non-deterministic relation partitions via choice inputs (paper,
/// footnote 2): F's parts become relations T_k(i,v,cs,ns_k) =
/// exists_w [ns_k == T_k(i,v,w,cs)].

#include "eq/solver.hpp"
#include "eq/subsolution.hpp"
#include "eq/verify.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <gtest/gtest.h>

namespace {

using namespace leq;

/// F where the choice input w is visible to X (u = w) and corrupts the
/// output o = v XOR w.  The only way to conform to a constant-0 spec is
/// v = u at every step: nondeterminism the unknown must actively track.
network make_observable_chaos_f() {
    network f("chaos_f");
    f.add_input("a");  // external input i (unused by the logic)
    f.add_input("xv"); // X's output v
    f.add_input("w");  // the choice input (last, per the convention)
    // o = xv XOR w
    f.add_node("z", {"xv", "w"}, {"01", "10"});
    f.add_output("z");
    // u = w (X observes the choice)
    f.add_node("xu", {"w"}, {"1"});
    f.add_output("xu");
    // a dummy latch keeps F sequential
    f.add_latch("a", "junk", false);
    f.validate();
    return f;
}

/// spec: output constantly 0, one dummy latch.
network make_zero_spec() {
    network s("zero_spec");
    s.add_input("a");
    s.add_latch("a", "s0", false);
    s.add_node("z", {"s0"}, {}); // empty cover: constant 0
    s.add_output("z");
    s.validate();
    return s;
}

/// F where w corrupts the output invisibly (u carries no information).
network make_hidden_chaos_f() {
    network f("hidden_chaos_f");
    f.add_input("a");
    f.add_input("xv");
    f.add_input("w");
    f.add_node("z", {"xv", "w"}, {"01", "10"}); // o = xv XOR w
    f.add_node("xu", {"a"}, {"1"});             // u = a: no w information
    f.add_output("z");
    f.add_output("xu");
    f.add_latch("a", "junk", false);
    f.validate();
    return f;
}

// ---------------------------------------------------------------------------
// unused choice inputs change nothing
// ---------------------------------------------------------------------------

TEST(nondet, ignored_choice_input_preserves_the_csf) {
    const network original = make_counter(3);
    split_result split = split_latches(original, {2});

    // reference: the deterministic problem
    equation_problem det(split.fixed, original);
    const solve_result det_result = solve_partitioned(det);
    ASSERT_EQ(det_result.status, solve_status::ok);

    // same F plus a dangling choice input
    network f_w = split.fixed;
    f_w.add_input("w_choice");
    equation_problem nd(f_w, original, 1);
    ASSERT_EQ(nd.w_vars.size(), 1u);
    const solve_result nd_result = solve_partitioned(nd);
    ASSERT_EQ(nd_result.status, solve_status::ok);

    EXPECT_EQ(det_result.csf_states, nd_result.csf_states);
    EXPECT_EQ(det_result.empty_solution, nd_result.empty_solution);
    // languages live in different managers; compare state/transition counts
    EXPECT_EQ(det_result.csf->num_transitions(),
              nd_result.csf->num_transitions());
}

TEST(nondet, ignored_choice_input_all_flows_agree) {
    const network original = make_counter(3);
    split_result split = split_latches(original, {2});
    network f_w = split.fixed;
    f_w.add_input("w_choice");
    equation_problem problem(f_w, original, 1);

    const solve_result part = solve_partitioned(problem);
    const solve_result mono = solve_monolithic(problem);
    const solve_result oracle = solve_explicit(problem, f_w, original);
    ASSERT_EQ(part.status, solve_status::ok);
    ASSERT_EQ(mono.status, solve_status::ok);
    ASSERT_EQ(oracle.status, solve_status::ok);
    EXPECT_TRUE(language_equivalent(*part.csf, *mono.csf));
    EXPECT_TRUE(language_equivalent(*part.csf, *oracle.csf));
}

// ---------------------------------------------------------------------------
// observable nondeterminism: X must track the choice
// ---------------------------------------------------------------------------

TEST(nondet, observable_chaos_forces_v_equals_u) {
    const network f = make_observable_chaos_f();
    const network s = make_zero_spec();
    equation_problem problem(f, s, 1);
    const solve_result r = solve_partitioned(problem);
    ASSERT_EQ(r.status, solve_status::ok);
    ASSERT_FALSE(r.empty_solution);
    const automaton& csf = *r.csf;
    bdd_manager& mgr = problem.mgr();
    const std::uint32_t u0 = problem.u_vars[0];
    const std::uint32_t v0 = problem.v_vars[0];

    // the copy machine (v = u, combinational) is a solution...
    automaton copy(mgr, csf.label_vars());
    copy.add_state(true);
    copy.set_initial(0);
    copy.add_transition(0, 0, mgr.var(u0).iff(mgr.var(v0)));
    EXPECT_TRUE(language_contained(copy, csf));

    // ...but any v != u step is not: the single-letter word (u=0, v=1)
    std::vector<std::vector<bool>> word(1,
                                        std::vector<bool>(mgr.num_vars()));
    word[0][u0] = false;
    word[0][v0] = true;
    EXPECT_FALSE(accepts(csf, word));
    word[0][u0] = true;
    word[0][v0] = true;
    EXPECT_TRUE(accepts(csf, word));

    // the sub-solution search on a CSF that choice inputs shape: the copy
    // machine is its one-state answer, and each policy's raw extraction
    // (before minimization) is already inside the CSF
    EXPECT_EQ(csf.num_states(), 2u);
    const subsolution_result small =
        select_small_subsolution(csf, problem.u_vars, problem.v_vars);
    EXPECT_EQ(small.fsm.num_states(), 1u);
    EXPECT_EQ(small.method, "compatibility");
    for (const extraction_policy policy :
         {extraction_policy::first_edge, extraction_policy::prefer_visited}) {
        EXPECT_TRUE(language_contained(
            extract_fsm(csf, problem.u_vars, problem.v_vars, policy), csf));
    }
}

TEST(nondet, observable_chaos_flows_agree) {
    const network f = make_observable_chaos_f();
    const network s = make_zero_spec();
    equation_problem problem(f, s, 1);
    const solve_result part = solve_partitioned(problem);
    const solve_result mono = solve_monolithic(problem);
    const solve_result oracle = solve_explicit(problem, f, s);
    ASSERT_EQ(part.status, solve_status::ok);
    ASSERT_EQ(mono.status, solve_status::ok);
    ASSERT_EQ(oracle.status, solve_status::ok);
    EXPECT_TRUE(language_equivalent(*part.csf, *mono.csf));
    EXPECT_TRUE(language_equivalent(*part.csf, *oracle.csf));
    EXPECT_FALSE(part.empty_solution);
}

// ---------------------------------------------------------------------------
// hidden nondeterminism: no solution can exist
// ---------------------------------------------------------------------------

TEST(nondet, hidden_chaos_has_no_solution) {
    const network f = make_hidden_chaos_f();
    const network s = make_zero_spec();
    equation_problem problem(f, s, 1);
    const solve_result part = solve_partitioned(problem);
    ASSERT_EQ(part.status, solve_status::ok);
    EXPECT_TRUE(part.empty_solution);

    const solve_result mono = solve_monolithic(problem);
    ASSERT_EQ(mono.status, solve_status::ok);
    EXPECT_TRUE(mono.empty_solution);

    const solve_result oracle = solve_explicit(problem, f, s);
    ASSERT_EQ(oracle.status, solve_status::ok);
    EXPECT_TRUE(oracle.empty_solution);
}

// ---------------------------------------------------------------------------
// interface validation
// ---------------------------------------------------------------------------

TEST(nondet, problem_rejects_too_many_choice_inputs) {
    const network original = make_counter(3);
    split_result split = split_latches(original, {2});
    // claiming more choice inputs than F has beyond the spec's
    EXPECT_THROW(equation_problem(split.fixed, original,
                                  split.fixed.num_inputs()),
                 std::invalid_argument);
}

TEST(nondet, choice_vars_are_quantified_in_hidden_inputs) {
    const network f = make_observable_chaos_f();
    const network s = make_zero_spec();
    equation_problem problem(f, s, 1);
    const auto hidden = problem.hidden_input_vars();
    EXPECT_EQ(hidden.size(), problem.i_vars.size() + problem.w_vars.size());
    for (const std::uint32_t w : problem.w_vars) {
        EXPECT_NE(std::find(hidden.begin(), hidden.end(), w), hidden.end());
    }
}

// ---------------------------------------------------------------------------
// verification works on nondeterministic instances
// ---------------------------------------------------------------------------

TEST(nondet, composition_check_accepts_the_copy_machine) {
    const network f = make_observable_chaos_f();
    const network s = make_zero_spec();
    equation_problem problem(f, s, 1);
    bdd_manager& mgr = problem.mgr();
    const solve_result r = solve_partitioned(problem);
    ASSERT_EQ(r.status, solve_status::ok);

    automaton copy(mgr, r.csf->label_vars());
    copy.add_state(true);
    copy.set_initial(0);
    copy.add_transition(
        0, 0, mgr.var(problem.u_vars[0]).iff(mgr.var(problem.v_vars[0])));
    EXPECT_TRUE(verify_composition_contained(problem, copy));

    // the anything-goes machine is not a solution, and the diagnosis says so
    automaton anything(mgr, r.csf->label_vars());
    anything.add_state(true);
    anything.set_initial(0);
    anything.add_transition(0, 0, mgr.one());
    EXPECT_FALSE(verify_composition_contained(problem, anything));
    const auto d = diagnose_composition_contained(problem, anything);
    EXPECT_FALSE(d.ok);
    EXPECT_FALSE(d.trace.empty());
}

} // namespace
