/// \file test_encode_compose.cpp
/// \brief Closing the synthesis loop: FSM-to-network encoding, network
/// composition, and the end-to-end circuit-level round trip
/// (split -> solve -> extract -> encode -> compose -> compare with S).

#include "eq/solver.hpp"
#include "eq/subsolution.hpp"
#include "net/compose.hpp"
#include "automata/encode.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <gtest/gtest.h>

#include <random>

namespace {

using namespace leq;

TEST(encode_test, single_state_identity_fsm) {
    bdd_manager mgr(2);
    automaton fsm(mgr, {0, 1}); // u = var0, v = var1
    fsm.set_initial(fsm.add_state(true));
    // v always equals u
    fsm.add_transition(0, 0, mgr.var(0).iff(mgr.var(1)));
    const network net =
        automaton_to_network(fsm, {0}, {1}, {"in"}, {"out"}, "ident");
    EXPECT_EQ(net.num_inputs(), 1u);
    EXPECT_EQ(net.num_outputs(), 1u);
    const auto state = net.initial_state();
    EXPECT_TRUE(net.simulate(state, {true}).outputs[0]);
    EXPECT_FALSE(net.simulate(state, {false}).outputs[0]);
}

TEST(encode_test, rejects_nondeterministic) {
    bdd_manager mgr(2);
    automaton bad(mgr, {0, 1});
    bad.set_initial(bad.add_state(true));
    const auto s1 = bad.add_state(true);
    bad.add_transition(0, 0, mgr.var(0));
    bad.add_transition(0, s1, mgr.var(0) & mgr.var(1));
    EXPECT_THROW(automaton_to_network(bad, {0}, {1}, {"a"}, {"b"}),
                 std::invalid_argument);
}

TEST(moore_encode, moore_outputs_do_not_read_u) {
    // a Moore machine (u = var0, v = var1): v is u delayed one cycle, so
    // each state commits to one v for every u
    bdd_manager mgr(2);
    const bdd u = mgr.var(0);
    const bdd v = mgr.var(1);
    automaton fsm(mgr, {0, 1});
    fsm.set_initial(fsm.add_state(true));
    fsm.add_state(true);
    for (std::uint32_t q = 0; q < 2; ++q) {
        const bdd out = q == 0 ? !v : v;
        fsm.add_transition(q, 0, out & !u);
        fsm.add_transition(q, 1, out & u);
    }
    const network net =
        automaton_to_network(fsm, {0}, {1}, {"u"}, {"v"}, "x_moore");
    // behavioural check: with the state fixed, changing u must not change v
    ASSERT_LT(net.num_latches(), 8u);
    for (std::uint32_t code = 0; code < (1u << net.num_latches()); ++code) {
        std::vector<bool> state(net.num_latches());
        for (std::size_t b = 0; b < state.size(); ++b) {
            state[b] = ((code >> b) & 1u) != 0;
        }
        EXPECT_EQ(net.simulate(state, {false}).outputs,
                  net.simulate(state, {true}).outputs)
            << "state code " << code;
    }
    // and it is still the delay: v follows u one cycle late
    std::vector<bool> state = net.initial_state();
    for (const bool in : {true, true, false, true, false, false}) {
        const auto step = net.simulate(state, {in});
        state = step.next_state;
        EXPECT_EQ(net.simulate(state, {!in}).outputs[0], in);
    }
}

/// Walk the FSM automaton and the encoded network side by side on random
/// inputs; outputs must agree cycle by cycle.
void check_encoding_simulates(const automaton& fsm,
                              const std::vector<std::uint32_t>& u_vars,
                              const std::vector<std::uint32_t>& v_vars,
                              unsigned seed) {
    std::vector<std::string> ins, outs;
    for (std::size_t k = 0; k < u_vars.size(); ++k) {
        ins.push_back("u" + std::to_string(k));
    }
    for (std::size_t k = 0; k < v_vars.size(); ++k) {
        outs.push_back("v" + std::to_string(k));
    }
    const network net = automaton_to_network(fsm, u_vars, v_vars, ins, outs);
    bdd_manager& mgr = fsm.manager();

    std::mt19937 rng(seed);
    std::uint32_t q = fsm.initial();
    std::vector<bool> state = net.initial_state();
    for (int step = 0; step < 200; ++step) {
        std::vector<bool> u(u_vars.size());
        for (auto&& b : u) { b = (rng() & 1) != 0; }
        // find the FSM transition enabled by u
        bdd u_cube = mgr.one();
        for (std::size_t m = 0; m < u_vars.size(); ++m) {
            u_cube &= mgr.literal(u_vars[m], u[m]);
        }
        const transition* taken = nullptr;
        for (const transition& t : fsm.transitions(q)) {
            if (!(t.label & u_cube).is_zero()) {
                taken = &t;
                break;
            }
        }
        ASSERT_NE(taken, nullptr) << "FSM not input-progressive at step "
                                  << step;
        const bdd enabled = taken->label & u_cube;
        const auto r = net.simulate(state, u);
        // the network's v output must satisfy the transition label
        std::vector<bool> full(mgr.num_vars(), false);
        for (std::size_t m = 0; m < u_vars.size(); ++m) {
            full[u_vars[m]] = u[m];
        }
        for (std::size_t m = 0; m < v_vars.size(); ++m) {
            full[v_vars[m]] = r.outputs[m];
        }
        EXPECT_TRUE(mgr.eval(enabled, full)) << "step " << step;
        q = taken->dest;
        state = r.next_state;
    }
}

TEST(encode_test, extracted_fsm_simulates_correctly) {
    const network original = make_traffic_controller();
    const split_result split = split_latches(original, {1});
    const equation_problem problem(split.fixed, original);
    const solve_result result = solve_partitioned(problem);
    ASSERT_EQ(result.status, solve_status::ok);
    const automaton fsm =
        extract_fsm(*result.csf, problem.u_vars, problem.v_vars,
                    extraction_policy::first_edge);
    check_encoding_simulates(fsm, problem.u_vars, problem.v_vars, 11);
}

TEST(compose_test, f_with_xp_reproduces_original) {
    // the canonical round trip: composing F with the extracted latches must
    // be cycle-equivalent to the original circuit
    for (int id = 0; id < 4; ++id) {
        const network original = id == 0   ? make_counter(5)
                                 : id == 1 ? make_lfsr(5, {2})
                                 : id == 2 ? make_traffic_controller()
                                           : make_shift_xor(4);
        const std::vector<std::size_t> cut{0, original.num_latches() - 1};
        const split_result split = split_latches(original, cut);
        const network composed = compose_networks(
            split.fixed, split.part, split.u_names, split.v_names);
        EXPECT_EQ(composed.num_inputs(), original.num_inputs());
        EXPECT_EQ(composed.num_outputs(), original.num_outputs());
        EXPECT_EQ(composed.num_latches(), original.num_latches());

        std::mt19937 rng(13 + id);
        std::vector<bool> s1 = original.initial_state();
        std::vector<bool> s2 = composed.initial_state();
        for (int step = 0; step < 300; ++step) {
            std::vector<bool> in(original.num_inputs());
            for (auto&& b : in) { b = (rng() & 1) != 0; }
            const auto r1 = original.simulate(s1, in);
            const auto r2 = composed.simulate(s2, in);
            ASSERT_EQ(r1.outputs, r2.outputs) << "circuit " << id << " step "
                                              << step;
            s1 = r1.next_state;
            s2 = r2.next_state;
        }
    }
}

TEST(compose_test, rejects_combinational_loop) {
    // F: u = v combinationally; X: v = u combinationally -> cycle
    network f("f");
    f.add_input("i");
    f.add_input("v");
    f.add_output("o");
    f.add_output("u");
    f.add_node("o", {"i"}, {"1"});
    f.add_node("u", {"v"}, {"1"});
    f.validate();
    network x("x");
    x.add_input("a");
    x.add_output("b");
    x.add_node("b", {"a"}, {"1"});
    x.validate();
    EXPECT_THROW(compose_networks(f, x, {"u"}, {"v"}), std::runtime_error);
}

TEST(compose_test, port_count_mismatch_rejected) {
    const network original = make_counter(3);
    const split_result split = split_latches(original, {2});
    EXPECT_THROW(compose_networks(split.fixed, split.part, {}, {}),
                 std::invalid_argument);
}

} // namespace
