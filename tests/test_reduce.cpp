/// \file test_reduce.cpp
/// \brief Compatibility-based closed-cover reduction of the CSF: the first
/// candidate of select_small_subsolution, tested here on its own (the
/// search minimizes it; the size checks below do too).

#include "eq/reduce.hpp"
#include "eq/solver.hpp"
#include "eq/subsolution.hpp"
#include "eq/verify.hpp"
#include "gen/scenario.hpp"
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

TEST(reduce, sound_on_the_paper_example) {
    solved s(make_paper_example(), {1});
    ASSERT_EQ(s.result.status, solve_status::ok);
    const auto r =
        reduce_subsolution(*s.result.csf, s.problem.u_vars, s.problem.v_vars);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(is_deterministic(*r));
    EXPECT_TRUE(language_contained(*r, *s.result.csf));
    EXPECT_TRUE(input_progressive_over_u(s.problem, *r));
    EXPECT_LE(minimize(*r).num_states(), s.result.csf->num_states());
}

TEST(reduce, never_worse_than_the_csf_and_verifies) {
    solved s(make_traffic_controller(), {1});
    ASSERT_EQ(s.result.status, solve_status::ok);
    const auto r =
        reduce_subsolution(*s.result.csf, s.problem.u_vars, s.problem.v_vars);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(verify_composition_contained(s.problem, *r));
}

TEST(reduce, collapses_far_below_the_csf) {
    // counter top-bit cut: the flexibility admits very small machines; the
    // cover reduction must land well under the CSF size (the two heuristic
    // families — policy sweep and cover merging — do not dominate each
    // other, so no cross-comparison is asserted)
    solved s(make_counter(4), {3});
    ASSERT_EQ(s.result.status, solve_status::ok);
    const auto r =
        reduce_subsolution(*s.result.csf, s.problem.u_vars, s.problem.v_vars);
    ASSERT_TRUE(r.has_value());
    EXPECT_LE(minimize(*r).num_states() * 4, s.result.csf->num_states());
    EXPECT_TRUE(verify_composition_contained(s.problem, *r));
}

/// The `count` variable ids from `from` on.
std::vector<std::uint32_t> first_vars(std::uint32_t count,
                                      std::uint32_t from = 0) {
    std::vector<std::uint32_t> vars(count);
    for (std::uint32_t k = 0; k < count; ++k) { vars[k] = from + k; }
    return vars;
}

/// A chain of `n` accepting states over every letter; the last state loops.
automaton letter_chain(bdd_manager& mgr, const std::vector<std::uint32_t>& vars,
                       std::uint32_t n) {
    automaton a(mgr, vars);
    for (std::uint32_t q = 0; q < n; ++q) { a.add_state(true); }
    a.set_initial(0);
    for (std::uint32_t q = 0; q < n; ++q) {
        a.add_transition(q, q + 1 < n ? q + 1 : q, mgr.one());
    }
    return a;
}

TEST(reduce, respects_state_limit) {
    // one u and one v: reduce_max_states states reduce, one more is refused
    bdd_manager mgr(2);
    const std::vector<std::uint32_t> u{0}, v{1};
    const auto n = static_cast<std::uint32_t>(reduce_max_states);
    EXPECT_TRUE(reduce_subsolution(letter_chain(mgr, {0, 1}, n), u, v)
                    .has_value());
    EXPECT_FALSE(reduce_subsolution(letter_chain(mgr, {0, 1}, n + 1), u, v)
                     .has_value());
}

TEST(reduce, respects_alphabet_limit) {
    // 7 u bits + 7 v bits reduce; 8 + 7 are refused
    static_assert(reduce_max_label_bits == 14);
    bdd_manager mgr(15);
    const std::vector<std::uint32_t> v = first_vars(7, 8);
    EXPECT_TRUE(reduce_subsolution(letter_chain(mgr, first_vars(14, 1), 1),
                                   first_vars(7, 1), v)
                    .has_value());
    EXPECT_FALSE(reduce_subsolution(letter_chain(mgr, first_vars(15), 1),
                                    first_vars(8), v)
                     .has_value());
}

TEST(reduce, throws_on_empty_csf) {
    solved s(make_counter(3), {2});
    automaton empty(s.problem.mgr(), s.result.csf->label_vars());
    empty.add_state(false);
    empty.set_initial(0);
    EXPECT_THROW((void)reduce_subsolution(empty, s.problem.u_vars,
                                          s.problem.v_vars),
                 std::invalid_argument);
}

class reduce_families : public ::testing::TestWithParam<int> {};

TEST_P(reduce_families, sound_across_circuits) {
    const int id = GetParam();
    const network net = id == 0   ? make_counter(3)
                        : id == 1 ? make_counter(4)
                        : id == 2 ? make_traffic_controller()
                        : id == 3 ? make_shift_xor(3)
                        : id == 4 ? make_paper_example()
                                  : make_lfsr(4, {1});
    solved s(net, {net.num_latches() - 1});
    ASSERT_EQ(s.result.status, solve_status::ok);
    if (s.result.empty_solution) { GTEST_SKIP(); }
    const auto r =
        reduce_subsolution(*s.result.csf, s.problem.u_vars, s.problem.v_vars);
    if (!r.has_value()) { GTEST_SKIP() << "greedy cover failed"; }
    EXPECT_TRUE(is_deterministic(*r)) << net.name();
    EXPECT_TRUE(language_contained(*r, *s.result.csf)) << net.name();
    EXPECT_TRUE(input_progressive_over_u(s.problem, *r)) << net.name();
    EXPECT_TRUE(verify_composition_contained(s.problem, *r)) << net.name();
}

INSTANTIATE_TEST_SUITE_P(families, reduce_families, ::testing::Range(0, 6));

class reduce_random : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(reduce_random, sound_on_random_circuits) {
    const std::uint32_t seed = test_seed(GetParam());
    SCOPED_TRACE("seed " + std::to_string(seed));
    solved s(make_random_net(seed, 2, 2, 4, 3), {2, 3});
    ASSERT_EQ(s.result.status, solve_status::ok);
    if (s.result.empty_solution) { GTEST_SKIP(); }
    const auto r =
        reduce_subsolution(*s.result.csf, s.problem.u_vars, s.problem.v_vars);
    if (!r.has_value()) { GTEST_SKIP() << "greedy cover failed"; }
    EXPECT_TRUE(language_contained(*r, *s.result.csf));
    EXPECT_TRUE(verify_composition_contained(s.problem, *r));
    EXPECT_LE(minimize(*r).num_states(), s.result.csf->num_states())
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(seeds, reduce_random, ::testing::Range(1u, 11u));

} // namespace
