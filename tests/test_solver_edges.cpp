/// \file test_solver_edges.cpp
/// \brief Edge cases of the solver entry points: resource limits, option
/// combinations, and degenerate interfaces (combinational F or S, empty
/// variable groups).

#include "eq/solver.hpp"
#include "eq/verify.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <gtest/gtest.h>

namespace {

using namespace leq;

// ---------------------------------------------------------------------------
// resource limits
// ---------------------------------------------------------------------------

TEST(solver_edges, subset_state_limit_reports_state_limit) {
    const network original = make_counter(4);
    const split_result split = split_latches(original, {3});
    const equation_problem problem(split.fixed, original);
    solve_options options;
    options.max_subset_states = 1;
    const solve_result r = solve_partitioned(problem, options);
    EXPECT_EQ(r.status, solve_status::state_limit);
    EXPECT_FALSE(r.csf.has_value());
}

TEST(solver_edges, tiny_time_limit_reports_timeout) {
    structured_spec spec;
    spec.num_inputs = 3;
    spec.num_outputs = 6;
    spec.num_latches = 14;
    spec.seed = 14;
    const network original = make_structured_mix(spec);
    const split_result split = split_last_latches(original, 7);
    const equation_problem problem(split.fixed, original);
    solve_options options;
    options.time_limit_seconds = 1e-9;
    EXPECT_EQ(solve_partitioned(problem, options).status,
              solve_status::timeout);
    EXPECT_EQ(solve_monolithic(problem, options).status,
              solve_status::timeout);
}

TEST(solver_edges, huge_time_limit_is_no_deadline) {
    // a limit past the steady clock's range used to overflow the deadline
    // into the past and time out instantly; it must saturate instead
    const network original = make_counter(4);
    const split_result split = split_latches(original, {3});
    const equation_problem problem(split.fixed, original);
    solve_options options;
    options.time_limit_seconds = 1e300;
    const solve_result part = solve_partitioned(problem, options);
    EXPECT_EQ(part.status, solve_status::ok);
    EXPECT_EQ(solve_monolithic(problem, options).status, solve_status::ok);
    EXPECT_EQ(part.csf_states, solve_partitioned(problem).csf_states);
}

// ---------------------------------------------------------------------------
// option combinations must not change the answer
// ---------------------------------------------------------------------------

TEST(solver_edges, naive_image_mode_matches_scheduled) {
    const network original = make_traffic_controller();
    const split_result split = split_latches(original, {1});
    const equation_problem problem(split.fixed, original);
    const solve_result scheduled = solve_partitioned(problem);
    solve_options naive;
    naive.img.early_quantification = false;
    const solve_result plain = solve_partitioned(problem, naive);
    ASSERT_EQ(scheduled.status, solve_status::ok);
    ASSERT_EQ(plain.status, solve_status::ok);
    EXPECT_TRUE(language_equivalent(*scheduled.csf, *plain.csf));
}

TEST(solver_edges, clustering_disabled_matches) {
    const network original = make_counter(4);
    const split_result split = split_latches(original, {3});
    const equation_problem problem(split.fixed, original);
    const solve_result base = solve_partitioned(problem);
    solve_options no_cluster;
    no_cluster.img.cluster_limit = 0;
    const solve_result flat = solve_partitioned(problem, no_cluster);
    ASSERT_EQ(base.status, solve_status::ok);
    ASSERT_EQ(flat.status, solve_status::ok);
    EXPECT_TRUE(language_equivalent(*base.csf, *flat.csf));
}

// ---------------------------------------------------------------------------
// degenerate interfaces
// ---------------------------------------------------------------------------

TEST(solver_edges, combinational_fixed_component) {
    // F has no latches at all: o = v, u = i (a pure wire box)
    network f("wires");
    f.add_input("a");
    f.add_input("xv");
    f.add_node("z", {"xv"}, {"1"});
    f.add_node("xu", {"a"}, {"1"});
    f.add_output("z");
    f.add_output("xu");
    f.validate();
    // spec: z must equal a delayed once
    network s("delay");
    s.add_input("a");
    s.add_latch("a", "d", false);
    s.add_node("z", {"d"}, {"1"});
    s.add_output("z");
    s.validate();

    const equation_problem problem(f, s);
    EXPECT_TRUE(problem.cs_f.empty());
    const solve_result part = solve_partitioned(problem);
    const solve_result mono = solve_monolithic(problem);
    const solve_result oracle = solve_explicit(problem, f, s);
    ASSERT_EQ(part.status, solve_status::ok);
    ASSERT_EQ(mono.status, solve_status::ok);
    ASSERT_EQ(oracle.status, solve_status::ok);
    EXPECT_FALSE(part.empty_solution); // X = one-bit delay works
    EXPECT_TRUE(language_equivalent(*part.csf, *mono.csf));
    EXPECT_TRUE(language_equivalent(*part.csf, *oracle.csf));
}

TEST(solver_edges, combinational_specification) {
    // S has no latches: z == a combinationally; F wires v to z and a to u
    network f("wires");
    f.add_input("a");
    f.add_input("xv");
    f.add_node("z", {"xv"}, {"1"});
    f.add_node("xu", {"a"}, {"1"});
    f.add_output("z");
    f.add_output("xu");
    f.validate();
    network s("identity");
    s.add_input("a");
    s.add_node("z", {"a"}, {"1"});
    s.add_output("z");
    s.validate();

    const equation_problem problem(f, s);
    EXPECT_TRUE(problem.cs_s.empty());
    const solve_result part = solve_partitioned(problem);
    const solve_result oracle = solve_explicit(problem, f, s);
    ASSERT_EQ(part.status, solve_status::ok);
    ASSERT_EQ(oracle.status, solve_status::ok);
    EXPECT_FALSE(part.empty_solution); // X = identity (v = u) works
    EXPECT_TRUE(language_equivalent(*part.csf, *oracle.csf));

    // the identity machine is allowed, the inverter is not
    bdd_manager& mgr = problem.mgr();
    automaton ident(mgr, part.csf->label_vars());
    ident.add_state(true);
    ident.set_initial(0);
    ident.add_transition(
        0, 0, mgr.var(problem.u_vars[0]).iff(mgr.var(problem.v_vars[0])));
    EXPECT_TRUE(language_contained(ident, *part.csf));
    automaton inv(mgr, part.csf->label_vars());
    inv.add_state(true);
    inv.set_initial(0);
    inv.add_transition(
        0, 0, mgr.var(problem.u_vars[0]) ^ mgr.var(problem.v_vars[0]));
    EXPECT_FALSE(language_contained(inv, *part.csf));
}

TEST(solver_edges, unknown_with_no_outputs) {
    // |v| = 0: X only observes u; F alone must already implement S for a
    // solution to exist (X cannot influence anything)
    network f("observer");
    f.add_input("a");
    f.add_latch("a", "d", false);
    f.add_node("z", {"d"}, {"1"});
    f.add_node("xu", {"a"}, {"1"});
    f.add_output("z");
    f.add_output("xu");
    f.validate();
    network s("delay");
    s.add_input("a");
    s.add_latch("a", "e", false);
    s.add_node("z", {"e"}, {"1"});
    s.add_output("z");
    s.validate();

    const equation_problem problem(f, s);
    EXPECT_TRUE(problem.v_vars.empty());
    const solve_result part = solve_partitioned(problem);
    const solve_result oracle = solve_explicit(problem, f, s);
    ASSERT_EQ(part.status, solve_status::ok);
    ASSERT_EQ(oracle.status, solve_status::ok);
    EXPECT_FALSE(part.empty_solution); // F == S here, so X may be anything
    EXPECT_TRUE(language_equivalent(*part.csf, *oracle.csf));
}

TEST(solver_edges, unknown_with_no_outputs_unsatisfiable) {
    // same shape but F violates S on its own: no X can help
    network f("wrong");
    f.add_input("a");
    f.add_latch("a", "d", false);
    f.add_node("z", {"d"}, {"0"}); // inverted delay
    f.add_node("xu", {"a"}, {"1"});
    f.add_output("z");
    f.add_output("xu");
    f.validate();
    network s("delay");
    s.add_input("a");
    s.add_latch("a", "e", false);
    s.add_node("z", {"e"}, {"1"});
    s.add_output("z");
    s.validate();

    const equation_problem problem(f, s);
    const solve_result part = solve_partitioned(problem);
    ASSERT_EQ(part.status, solve_status::ok);
    EXPECT_TRUE(part.empty_solution);
}

} // namespace
