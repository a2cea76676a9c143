/// \file test_diagnose.cpp
/// \brief Counterexample extraction for the paper's check (2), which is the
/// plain check too: solved CSFs pass, and extracted traces replay on the
/// actual networks.

#include "eq/solver.hpp"
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

/// The anything-goes automaton over the CSF's label variables: one accepting
/// state with a universal self-loop.  Almost never a valid solution.
automaton universal(const automaton& like) {
    automaton out(like.manager(), like.label_vars());
    out.add_state(true);
    out.set_initial(0);
    out.add_transition(0, 0, like.manager().one());
    return out;
}

/// Replay a failing diagnosis on the actual networks: drive F (the fixed
/// part) with (i, v) and S with i.  Every step's u and o must match F's
/// outputs, every step but the last must conform to S, and the last must
/// expose an output disagreement with S.
void expect_replays_on_networks(const solved& s, const verify_diagnosis& d) {
    const network& fixed = s.split.fixed;
    const network& spec = s.original;
    std::vector<bool> f_state = fixed.initial_state();
    std::vector<bool> s_state = spec.initial_state();
    const std::size_t n_o = s.problem.o_vars.size();
    for (std::size_t t = 0; t < d.trace.size(); ++t) {
        const trace_step& st = d.trace[t];
        std::vector<bool> f_in = st.i;
        f_in.insert(f_in.end(), st.v.begin(), st.v.end());
        const auto f_res = fixed.simulate(f_state, f_in);
        const auto s_res = spec.simulate(s_state, st.i);
        ASSERT_EQ(f_res.outputs.size(), n_o + st.u.size());
        // F's outputs are (o..., u...)
        for (std::size_t j = 0; j < n_o; ++j) {
            EXPECT_EQ(f_res.outputs[j], st.o[j]) << "step " << t;
        }
        for (std::size_t m = 0; m < st.u.size(); ++m) {
            EXPECT_EQ(f_res.outputs[n_o + m], st.u[m]) << "step " << t;
        }
        if (t + 1 == d.trace.size()) {
            // violation step: some composed output differs from S's
            bool differs = false;
            for (std::size_t j = 0; j < n_o; ++j) {
                differs = differs || (st.o[j] != s_res.outputs[j]);
            }
            EXPECT_TRUE(differs) << "final step conforms; bad trace";
        } else {
            // conforming prefix
            for (std::size_t j = 0; j < n_o; ++j) {
                EXPECT_EQ(st.o[j], s_res.outputs[j]) << "step " << t;
            }
        }
        f_state = f_res.next_state;
        s_state = s_res.next_state;
    }
}

// ---------------------------------------------------------------------------
// valid CSFs pass; failing verdicts replay
// ---------------------------------------------------------------------------

TEST(diagnose, ok_on_valid_csf_paper_example) {
    solved s(make_paper_example(), {1});
    ASSERT_EQ(s.result.status, solve_status::ok);
    const automaton& csf = *s.result.csf;
    const auto d = diagnose_composition_contained(s.problem, csf);
    EXPECT_TRUE(d.ok);
    EXPECT_TRUE(d.trace.empty());
    EXPECT_EQ(format_diagnosis(d), "ok: containment holds\n");
}

class diagnose_families : public ::testing::TestWithParam<int> {};

TEST_P(diagnose_families, verdicts_have_independent_referees) {
    // the plain check is the diagnosis, so each verdict is refereed
    // outside the search: a failure must replay on the networks, and a
    // pass by the universal X must be a solution the CSF contains
    const int id = GetParam();
    const network net = id == 0   ? make_counter(3)
                        : id == 1 ? make_lfsr(4, {1})
                        : id == 2 ? make_traffic_controller()
                        : id == 3 ? make_shift_xor(3)
                                  : make_counter(4);
    solved s(net, {net.num_latches() - 1});
    ASSERT_EQ(s.result.status, solve_status::ok);
    if (s.result.empty_solution) { GTEST_SKIP(); }
    const automaton& csf = *s.result.csf;
    EXPECT_TRUE(verify_composition_contained(s.problem, csf));
    EXPECT_TRUE(verify_particular_contained(s.problem, csf,
                                            s.split.part.initial_state()));

    const automaton anything = universal(csf);
    const auto d = diagnose_composition_contained(s.problem, anything);
    if (d.ok) {
        EXPECT_TRUE(language_contained(anything, csf));
    } else {
        ASSERT_FALSE(d.trace.empty());
        expect_replays_on_networks(s, d);
    }
}

INSTANTIATE_TEST_SUITE_P(families, diagnose_families,
                         ::testing::Range(0, 5));

// ---------------------------------------------------------------------------
// failing check (2): permissive X lets the composition violate S
// ---------------------------------------------------------------------------

TEST(diagnose, universal_x_fails_composition_with_network_replay) {
    solved s(make_traffic_controller(), {1});
    ASSERT_EQ(s.result.status, solve_status::ok);
    ASSERT_FALSE(s.result.empty_solution);
    const automaton anything = universal(*s.result.csf);
    if (verify_composition_contained(s.problem, anything)) {
        GTEST_SKIP() << "universal X happens to be a solution here";
    }
    const auto d = diagnose_composition_contained(s.problem, anything);
    ASSERT_FALSE(d.ok);
    ASSERT_FALSE(d.trace.empty());

    expect_replays_on_networks(s, d);
}

TEST(diagnose, shortest_trace_for_immediate_violation) {
    // an X that forces a wrong output in the very first step should yield a
    // one-step trace
    solved s(make_counter(3), {2});
    ASSERT_EQ(s.result.status, solve_status::ok);
    const automaton anything = universal(*s.result.csf);
    if (verify_composition_contained(s.problem, anything)) { GTEST_SKIP(); }
    const auto d = diagnose_composition_contained(s.problem, anything);
    ASSERT_FALSE(d.ok);
    // the plain check scans outputs in the same order, so the diagnosis must
    // find a violation at the earliest possible depth; replaying the prefix
    // (asserted in the other test) pins minimality per state/output order
    EXPECT_GE(d.trace.size(), 1u);
}

TEST(diagnose, deep_first_violation_yields_an_exact_shortest_trace) {
    // counter9 with its last latch split into X, and an X that holds v at 1
    // whatever u says: the composition runs conforming for 255 steps, and
    // the shortest trace is 256 steps long
    solved s(make_counter(9), {8});
    ASSERT_EQ(s.result.status, solve_status::ok);
    const automaton& csf = *s.result.csf;
    automaton v_high(csf.manager(), csf.label_vars());
    v_high.add_state(true);
    v_high.set_initial(0);
    v_high.add_transition(0, 0, csf.manager().var(s.problem.v_vars[0]));
    ASSERT_FALSE(verify_composition_contained(s.problem, v_high));
    const auto d = diagnose_composition_contained(s.problem, v_high);
    ASSERT_FALSE(d.ok);
    EXPECT_EQ(d.trace.size(), 256u);
    EXPECT_NE(d.reason.find("at step 255 "), std::string::npos) << d.reason;
    expect_replays_on_networks(s, d);
}

} // namespace
