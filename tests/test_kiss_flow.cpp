/// \file test_kiss_flow.cpp
/// \brief FSM-level equation solving from KISS2 text.

#include "automata/kiss.hpp"
#include "eq/kiss_flow.hpp"
#include "eq/solver.hpp"
#include "eq/subsolution.hpp"
#include "eq/verify.hpp"

#include <gtest/gtest.h>

namespace {

using namespace leq;

/// F in Figure-1 form: inputs (i, v), outputs (o, u); o = v combinationally
/// and u is i delayed one cycle.  Two states remember the last i.
const char* f_delay_kiss = R"(
.i 2
.o 2
.s 2
.p 8
.r s0
00 s0 s0 00
01 s0 s0 10
10 s0 s1 00
11 s0 s1 10
00 s1 s0 01
01 s1 s0 11
10 s1 s1 01
11 s1 s1 11
.e
)";

/// S: o must be i delayed two cycles.  Four states remember the last two.
const char* s_delay2_kiss = R"(
.i 1
.o 1
.s 4
.p 8
.r s00
0 s00 s00 0
1 s00 s10 0
0 s10 s01 0
1 s10 s11 0
0 s01 s00 1
1 s01 s10 1
0 s11 s01 1
1 s11 s11 1
.e
)";

TEST(kiss_flow, builds_figure1_interfaces) {
    const kiss_instance inst =
        build_kiss_instance(f_delay_kiss, s_delay2_kiss);
    EXPECT_EQ(inst.fixed.num_inputs(), 2u);
    EXPECT_EQ(inst.fixed.num_outputs(), 2u);
    EXPECT_EQ(inst.spec.num_inputs(), 1u);
    EXPECT_EQ(inst.spec.num_outputs(), 1u);
    EXPECT_EQ(inst.problem->u_vars.size(), 1u);
    EXPECT_EQ(inst.problem->v_vars.size(), 1u);
}

TEST(kiss_flow, encoded_f_simulates_the_mealy_machine) {
    const kiss_instance inst =
        build_kiss_instance(f_delay_kiss, s_delay2_kiss);
    std::vector<bool> state = inst.fixed.initial_state();
    bool last_i = false;
    std::uint32_t lcg = 11;
    for (int t = 0; t < 40; ++t) {
        lcg = lcg * 1664525u + 1013904223u;
        const bool i = (lcg >> 16) & 1u;
        const bool v = (lcg >> 17) & 1u;
        const auto r = inst.fixed.simulate(state, {i, v});
        ASSERT_EQ(r.outputs.size(), 2u);
        EXPECT_EQ(r.outputs[0], v) << "o = v at t=" << t;
        EXPECT_EQ(r.outputs[1], last_i) << "u = delayed i at t=" << t;
        last_i = i;
        state = r.next_state;
    }
}

TEST(kiss_flow, solves_the_delay_decomposition) {
    const kiss_instance inst =
        build_kiss_instance(f_delay_kiss, s_delay2_kiss);
    const equation_problem& problem = *inst.problem;
    const solve_result result = solve_partitioned(problem);
    ASSERT_EQ(result.status, solve_status::ok);
    ASSERT_FALSE(result.empty_solution);
    // the unknown must be able to behave as a 1-bit delay
    bdd_manager& mgr = problem.mgr();
    const std::uint32_t u0 = problem.u_vars[0];
    const std::uint32_t v0 = problem.v_vars[0];
    automaton xdelay(mgr, result.csf->label_vars());
    xdelay.add_state(true);
    xdelay.add_state(true);
    xdelay.set_initial(0);
    for (std::uint32_t b = 0; b < 2; ++b) {
        for (std::uint32_t u = 0; u < 2; ++u) {
            xdelay.add_transition(b, u,
                                  mgr.literal(v0, b != 0) &
                                      mgr.literal(u0, u != 0));
        }
    }
    EXPECT_TRUE(language_contained(xdelay, *result.csf));
    // any extracted implementation satisfies check (2)
    const automaton fsm =
        extract_fsm(*result.csf, problem.u_vars, problem.v_vars,
                    extraction_policy::first_edge);
    EXPECT_TRUE(verify_composition_contained(problem, fsm));
}

TEST(kiss_flow, rejects_interface_mismatch) {
    // F narrower than S
    EXPECT_THROW((void)build_kiss_instance(s_delay2_kiss, f_delay_kiss),
                 std::invalid_argument);
}

TEST(kiss_flow, rejects_malformed_kiss) {
    EXPECT_THROW((void)build_kiss_instance("garbage", s_delay2_kiss),
                 std::runtime_error);
}

TEST(kiss_flow, header_parser) {
    const kiss_header h = read_kiss_header(f_delay_kiss);
    EXPECT_EQ(h.num_inputs, 2u);
    EXPECT_EQ(h.num_outputs, 2u);
    EXPECT_THROW((void)read_kiss_header(".s 2\n"), std::runtime_error);
}

} // namespace
