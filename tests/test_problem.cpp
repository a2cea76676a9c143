/// \file test_problem.cpp
/// \brief Tests for the equation_problem builder: variable layout
/// invariants, partitioned sweep correctness, and input validation.

#include "eq/problem.hpp"
#include "gen/scenario.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace {

using namespace leq;

TEST(problem_builder, variable_layout_uv_block_on_top) {
    const network original = make_counter(5);
    const split_result split = split_latches(original, {2, 4});
    const equation_problem p(split.fixed, original);

    // every u and v id lies below the boundary; every other id at or
    // above it
    const std::uint32_t boundary = p.uv_boundary_level();
    EXPECT_EQ(boundary, p.u_vars.size() + p.v_vars.size());
    for (const std::uint32_t v : p.u_vars) {
        EXPECT_LT(v, boundary);
    }
    for (const std::uint32_t v : p.v_vars) {
        EXPECT_LT(v, boundary);
    }
    for (const auto& group : {p.i_vars, p.o_vars, p.cs_f, p.ns_f, p.cs_s,
                              p.ns_s}) {
        for (const std::uint32_t v : group) {
            EXPECT_GE(v, boundary);
        }
    }
    EXPECT_GE(p.dc_cs, boundary);
}

TEST(problem_builder, uv_pairs_interleaved) {
    const network original = make_counter(6);
    const split_result split = split_latches(original, {1, 3, 5});
    const equation_problem p(split.fixed, original);
    for (std::size_t m = 0; m < p.u_vars.size(); ++m) {
        // u_m sits immediately above its v_m partner
        EXPECT_EQ(p.u_vars[m] + 1, p.v_vars[m]);
    }
}

TEST(problem_builder, each_kept_latch_sits_beside_its_spec_twin) {
    // latch splitting copies S's kept latches into F under the same names:
    // each pair takes four consecutive ids cs_f, ns_f, cs_s, ns_s
    const network original = make_counter(6);
    const split_result split = split_latches(original, {1, 4});
    const equation_problem p(split.fixed, original);
    ASSERT_EQ(p.cs_f.size(), 4u);
    ASSERT_EQ(p.cs_s.size(), 6u);
    const std::size_t kept[] = {0, 2, 3, 5}; // F latch k is S latch kept[k]
    for (std::size_t k = 0; k < p.cs_f.size(); ++k) {
        const std::uint32_t top = p.cs_f[k];
        EXPECT_EQ(p.ns_f[k], top + 1) << k;
        EXPECT_EQ(p.cs_s[kept[k]], top + 2) << k;
        EXPECT_EQ(p.ns_s[kept[k]], top + 3) << k;
    }
    // the latches split into X follow every pair, in S order
    const std::uint32_t pairs_end = p.ns_s[kept[3]] + 1;
    EXPECT_EQ(p.cs_s[1], pairs_end);
    EXPECT_EQ(p.cs_s[4], pairs_end + 2);
}

TEST(problem_builder, every_latch_pair_is_adjacent) {
    const network original = make_lfsr(7, {2, 5});
    const split_result split = split_latches(original, {0, 3, 6});
    const equation_problem p(split.fixed, original);
    for (std::size_t k = 0; k < p.cs_f.size(); ++k) {
        EXPECT_EQ(p.ns_f[k], p.cs_f[k] + 1) << k;
    }
    for (std::size_t k = 0; k < p.cs_s.size(); ++k) {
        EXPECT_EQ(p.ns_s[k], p.cs_s[k] + 1) << k;
    }
    EXPECT_EQ(p.dc_ns, p.dc_cs + 1);
}

TEST(problem_builder, inputs_lie_between_the_uv_block_and_the_latches) {
    // the nondet family carries choice inputs w, so all three input groups
    // are present
    const scenario s = make_scenario(scenario_family::nondet, 3);
    const equation_problem p(s.fixed, s.spec, s.num_choice_inputs);
    ASSERT_FALSE(p.i_vars.empty());
    ASSERT_FALSE(p.w_vars.empty());
    ASSERT_FALSE(p.o_vars.empty());
    std::uint32_t highest_latch = p.dc_cs;
    std::uint32_t lowest_latch = 0;
    for (const auto& group : {p.cs_f, p.ns_f, p.cs_s, p.ns_s}) {
        for (const std::uint32_t v : group) {
            highest_latch = std::min(highest_latch, v);
            lowest_latch = std::max(lowest_latch, v);
        }
    }
    for (const auto& group : {p.i_vars, p.w_vars, p.o_vars}) {
        for (const std::uint32_t v : group) {
            EXPECT_GE(v, p.uv_boundary_level());
            EXPECT_LT(v, highest_latch);
        }
    }
    // i, then w, then o; the completion pair below every latch
    EXPECT_LT(p.i_vars.back(), p.w_vars.front());
    EXPECT_LT(p.w_vars.back(), p.o_vars.front());
    EXPECT_GT(p.dc_cs, lowest_latch);
}

TEST(problem_builder, unrelated_latch_names_keep_the_f_block_above_s) {
    // no F latch shares a name with an S latch: nothing pairs, so F's
    // latches come first and S's follow, each in its own order
    const auto make = [](const std::string& prefix) {
        network n(prefix);
        n.add_input("i");
        n.add_output("o");
        n.add_latch(prefix + "n0", prefix + "q0", false);
        n.add_latch(prefix + "n1", prefix + "q1", true);
        n.add_node("o", {prefix + "q1"}, {"1"});
        n.add_node(prefix + "n0", {"i"}, {"1"});
        n.add_node(prefix + "n1", {prefix + "q0"}, {"1"});
        return n;
    };
    const equation_problem p(make("f"), make("s"));
    EXPECT_EQ(p.cs_f[1], p.cs_f[0] + 2);
    EXPECT_EQ(p.cs_s[0], p.ns_f[1] + 1);
    EXPECT_EQ(p.cs_s[1], p.cs_s[0] + 2);
}

TEST(problem_builder, partitioned_functions_match_network_semantics) {
    const network original = make_lfsr(5, {2});
    const split_result split = split_latches(original, {3, 4});
    const equation_problem p(split.fixed, original);
    bdd_manager& mgr = p.mgr();

    std::mt19937 rng(21);
    for (int trial = 0; trial < 100; ++trial) {
        // random (i, v, cs_f) assignment; compare the swept F functions
        // against the simulator
        std::vector<bool> in(split.fixed.num_inputs());
        std::vector<bool> st(split.fixed.num_latches());
        for (auto&& b : in) { b = (rng() & 1) != 0; }
        for (auto&& b : st) { b = (rng() & 1) != 0; }
        const auto ref = split.fixed.simulate(st, in);

        std::vector<bool> assignment(mgr.num_vars(), false);
        for (std::size_t k = 0; k < p.i_vars.size(); ++k) {
            assignment[p.i_vars[k]] = in[k];
        }
        for (std::size_t k = 0; k < p.v_vars.size(); ++k) {
            assignment[p.v_vars[k]] = in[p.i_vars.size() + k];
        }
        for (std::size_t k = 0; k < p.cs_f.size(); ++k) {
            assignment[p.cs_f[k]] = st[k];
        }
        for (std::size_t j = 0; j < p.f_o.size(); ++j) {
            EXPECT_EQ(mgr.eval(p.f_o[j], assignment), ref.outputs[j]);
        }
        for (std::size_t m = 0; m < p.f_u.size(); ++m) {
            EXPECT_EQ(mgr.eval(p.f_u[m], assignment),
                      ref.outputs[p.f_o.size() + m]);
        }
        for (std::size_t k = 0; k < p.f_next.size(); ++k) {
            EXPECT_EQ(mgr.eval(p.f_next[k], assignment), ref.next_state[k]);
        }
    }
}

TEST(problem_builder, initial_product_state_is_one_minterm) {
    const network original = make_traffic_controller();
    const split_result split = split_latches(original, {0});
    const equation_problem p(split.fixed, original);
    const bdd init = p.initial_product_state();
    const auto nvars =
        static_cast<std::uint32_t>(p.cs_f.size() + p.cs_s.size());
    EXPECT_DOUBLE_EQ(p.mgr().sat_count(init, nvars), 1.0);
}

TEST(problem_builder, ns_to_cs_permutation_is_involution) {
    const network original = make_counter(4);
    const split_result split = split_latches(original, {1});
    const equation_problem p(split.fixed, original);
    const auto perm = p.ns_to_cs_permutation();
    for (std::uint32_t v = 0; v < perm.size(); ++v) {
        EXPECT_EQ(perm[perm[v]], v);
    }
    // cs and ns must map to each other
    for (std::size_t k = 0; k < p.cs_f.size(); ++k) {
        EXPECT_EQ(perm[p.cs_f[k]], p.ns_f[k]);
    }
    // label and input variables stay fixed
    for (const std::uint32_t v : p.u_vars) { EXPECT_EQ(perm[v], v); }
    for (const std::uint32_t v : p.i_vars) { EXPECT_EQ(perm[v], v); }
}

TEST(problem_builder, conformance_is_symmetric_in_structure) {
    const network original = make_shift_xor(4);
    const split_result split = split_latches(original, {2});
    const equation_problem p(split.fixed, original);
    for (std::size_t j = 0; j < p.s_o.size(); ++j) {
        const bdd c = p.conformance(j);
        // conformance holds whenever both outputs agree; spot check by
        // evaluating on assignments where the functions trivially agree
        EXPECT_EQ(c, p.f_o[j].iff(p.s_o[j]));
        EXPECT_EQ(!c, p.f_o[j] ^ p.s_o[j]);
    }
}

TEST(problem_builder, rejects_port_name_mismatch) {
    network f("f");
    f.add_input("wrong_name");
    f.add_input("v0");
    f.add_output("o");
    f.add_output("u0");
    f.add_node("o", {"wrong_name"}, {"1"});
    f.add_node("u0", {"v0"}, {"1"});
    network s("s");
    s.add_input("i");
    s.add_output("o");
    s.add_latch("n", "q", false);
    s.add_node("o", {"i"}, {"1"});
    s.add_node("n", {"q"}, {"1"});
    EXPECT_THROW(equation_problem(f, s), std::invalid_argument);
}

TEST(problem_builder, rejects_f_smaller_than_s) {
    network f("f");
    f.add_input("i");
    f.add_output("o");
    f.add_node("o", {"i"}, {"1"});
    network s("s");
    s.add_input("i");
    s.add_input("j");
    s.add_output("o");
    s.add_latch("n", "q", false);
    s.add_node("o", {"i"}, {"1"});
    s.add_node("n", {"j"}, {"1"});
    EXPECT_THROW(equation_problem(f, s), std::invalid_argument);
}

TEST(problem_builder, all_ns_vars_covers_both_components) {
    const network original = make_counter(4);
    const split_result split = split_latches(original, {0, 3});
    const equation_problem p(split.fixed, original);
    const auto ns = p.all_ns_vars();
    EXPECT_EQ(ns.size(), p.ns_f.size() + p.ns_s.size());
    for (const std::uint32_t v : p.ns_f) {
        EXPECT_NE(std::find(ns.begin(), ns.end(), v), ns.end());
    }
    for (const std::uint32_t v : p.ns_s) {
        EXPECT_NE(std::find(ns.begin(), ns.end(), v), ns.end());
    }
}

} // namespace
