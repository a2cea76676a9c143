/// \file test_subsolution.cpp
/// \brief Sub-solution selection (the paper's "optimum sub-solution" future
/// work): policy extraction, minimization, containment and the search.

#include "eq/solver.hpp"
#include "eq/subsolution.hpp"
#include "eq/verify.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <gtest/gtest.h>

namespace {

using namespace leq;

struct solved {
    network original;
    split_result split;
    equation_problem problem;
    solve_result result;

    solved(network net, const std::vector<std::size_t>& cut)
        : original(std::move(net)), split(split_latches(original, cut)),
          problem(split.fixed, original),
          result(solve_partitioned(problem)) {}
};

bool input_progressive_over_u(const equation_problem& p, const automaton& a) {
    const bdd v_cube = p.mgr().cube(p.v_vars);
    for (std::uint32_t q = 0; q < a.num_states(); ++q) {
        if (!p.mgr().exists(a.domain(q), v_cube).is_one()) { return false; }
    }
    return true;
}

// ---------------------------------------------------------------------------
// policy extraction
// ---------------------------------------------------------------------------

TEST(subsolution, every_policy_yields_contained_progressive_fsm) {
    solved s(make_traffic_controller(), {1});
    ASSERT_EQ(s.result.status, solve_status::ok);
    ASSERT_FALSE(s.result.empty_solution);
    const automaton& csf = *s.result.csf;
    for (const extraction_policy policy : all_extraction_policies()) {
        const automaton fsm =
            extract_fsm(csf, s.problem.u_vars, s.problem.v_vars, policy);
        const int id = static_cast<int>(policy);
        EXPECT_TRUE(is_deterministic(fsm)) << id;
        EXPECT_TRUE(language_contained(fsm, csf)) << id;
        EXPECT_TRUE(input_progressive_over_u(s.problem, fsm)) << id;
        // a contained FSM also satisfies the paper's check (2)
        EXPECT_TRUE(verify_composition_contained(s.problem, fsm)) << id;
    }
}

TEST(subsolution, rejects_empty_csf) {
    solved s(make_paper_example(), {1});
    ASSERT_EQ(s.result.status, solve_status::ok);
    automaton empty(s.problem.mgr(), s.result.csf->label_vars());
    empty.add_state(false);
    empty.set_initial(0);
    EXPECT_THROW((void)extract_fsm(empty, s.problem.u_vars, s.problem.v_vars,
                                   extraction_policy::first_edge),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// the search
// ---------------------------------------------------------------------------

TEST(subsolution, search_returns_smallest_candidate) {
    solved s(make_counter(3), {2});
    ASSERT_EQ(s.result.status, solve_status::ok);
    ASSERT_FALSE(s.result.empty_solution);
    const auto r = select_small_subsolution(*s.result.csf, s.problem.u_vars,
                                            s.problem.v_vars);
    ASSERT_EQ(r.candidates.size(), all_extraction_policies().size());
    std::size_t smallest = SIZE_MAX;
    for (const auto& c : r.candidates) {
        EXPECT_LE(c.minimized_states, c.raw_states)
            << static_cast<int>(c.policy);
        smallest = std::min(smallest, c.minimized_states);
    }
    EXPECT_EQ(r.fsm.num_states(), smallest);
    EXPECT_TRUE(language_contained(r.fsm, *s.result.csf));
    EXPECT_TRUE(verify_composition_contained(s.problem, r.fsm));
}

TEST(subsolution, minimized_fsm_never_larger_than_csf) {
    solved s(make_lfsr(4, {1}), {3});
    ASSERT_EQ(s.result.status, solve_status::ok);
    if (s.result.empty_solution) { GTEST_SKIP(); }
    const auto r = select_small_subsolution(*s.result.csf, s.problem.u_vars,
                                            s.problem.v_vars);
    EXPECT_LE(r.fsm.num_states(), s.result.csf->num_states());
}

TEST(subsolution, search_beats_or_matches_naive_extraction) {
    // the whole point: the searched sub-solution is never worse than the
    // baseline greedy extraction
    solved s(make_shift_xor(4), {3});
    ASSERT_EQ(s.result.status, solve_status::ok);
    if (s.result.empty_solution) { GTEST_SKIP(); }
    const automaton naive =
        extract_fsm(*s.result.csf, s.problem.u_vars, s.problem.v_vars,
                    extraction_policy::first_edge);
    const auto r = select_small_subsolution(*s.result.csf, s.problem.u_vars,
                                            s.problem.v_vars);
    EXPECT_LE(r.fsm.num_states(), naive.num_states());
}

class subsolution_families : public ::testing::TestWithParam<int> {};

TEST_P(subsolution_families, search_is_sound_across_circuits) {
    const int id = GetParam();
    const network net = id == 0   ? make_counter(3)
                        : id == 1 ? make_lfsr(4, {1})
                        : id == 2 ? make_traffic_controller()
                        : id == 3 ? make_shift_xor(3)
                        : id == 4 ? make_paper_example()
                                  : make_counter(4);
    solved s(net, {net.num_latches() - 1});
    ASSERT_EQ(s.result.status, solve_status::ok);
    if (s.result.empty_solution) { GTEST_SKIP(); }
    const auto r = select_small_subsolution(*s.result.csf, s.problem.u_vars,
                                            s.problem.v_vars);
    EXPECT_TRUE(is_deterministic(r.fsm));
    EXPECT_TRUE(language_contained(r.fsm, *s.result.csf));
    EXPECT_TRUE(input_progressive_over_u(s.problem, r.fsm));
    EXPECT_TRUE(verify_composition_contained(s.problem, r.fsm));
    // sanity on the report
    EXPECT_FALSE(r.candidates.empty());
    for (const auto& c : r.candidates) {
        EXPECT_GT(c.raw_states, 0u);
        EXPECT_GT(c.minimized_states, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(families, subsolution_families,
                         ::testing::Range(0, 6));

} // namespace
