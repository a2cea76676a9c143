/// \file test_automata.cpp
/// \brief Tests for explicit automata: elementary operations, language
/// queries, STG extraction, and the paper's Theorem 1 (completion and
/// determinization commute).

#include "automata/automaton.hpp"
#include "automata/stg.hpp"
#include "net/generator.hpp"

#include <gtest/gtest.h>

#include <random>

namespace {

using namespace leq;

/// Two-variable alphabet used by most tests here.
struct fixture {
    bdd_manager mgr{8};
    std::vector<std::uint32_t> vars{0, 1};
    bdd a0() { return mgr.nvar(0); }
    bdd a1() { return mgr.var(0); }
};

/// a* then b: accepts words (0.)* (1.) over var0 (var1 free).
automaton make_simple(fixture& f) {
    automaton aut(f.mgr, f.vars);
    const auto s0 = aut.add_state(true);
    const auto s1 = aut.add_state(true);
    aut.set_initial(s0);
    aut.add_transition(s0, s0, f.a0());
    aut.add_transition(s0, s1, f.a1());
    return aut;
}

TEST(automaton_basic, add_and_query) {
    fixture f;
    const automaton aut = make_simple(f);
    EXPECT_EQ(aut.num_states(), 2u);
    EXPECT_EQ(aut.num_transitions(), 2u);
    EXPECT_TRUE(aut.accepting(0));
    EXPECT_TRUE(aut.domain(0).is_one());
    EXPECT_TRUE(aut.domain(1).is_zero());
}

TEST(automaton_basic, add_transition_merges_parallel_edges) {
    fixture f;
    automaton aut(f.mgr, f.vars);
    const auto s = aut.add_state(true);
    aut.add_transition(s, s, f.a0());
    aut.add_transition(s, s, f.a1());
    EXPECT_EQ(aut.transitions(s).size(), 1u);
    EXPECT_TRUE(aut.transitions(s)[0].label.is_one());
    // zero labels are dropped entirely
    aut.add_transition(s, s, f.mgr.zero());
    EXPECT_EQ(aut.num_transitions(), 1u);
}

TEST(automaton_ops, complete_adds_dc_sink) {
    fixture f;
    const automaton aut = make_simple(f);
    EXPECT_FALSE(is_complete(aut));
    const automaton c = complete(aut);
    EXPECT_TRUE(is_complete(c));
    EXPECT_EQ(c.num_states(), 3u);
    EXPECT_FALSE(c.accepting(2));          // DC is non-accepting
    EXPECT_EQ(c.transitions(2).size(), 1u); // universal self-loop
    EXPECT_TRUE(c.transitions(2)[0].label.is_one());
    // completing a complete automaton is the identity
    const automaton cc = complete(c);
    EXPECT_EQ(cc.num_states(), c.num_states());
}

TEST(automaton_ops, complement_swaps_acceptance) {
    fixture f;
    const automaton aut = complete(make_simple(f));
    const automaton comp = complement(aut);
    for (std::uint32_t s = 0; s < aut.num_states(); ++s) {
        EXPECT_NE(aut.accepting(s), comp.accepting(s));
    }
    // double complement = original language
    EXPECT_TRUE(language_equivalent(complement(comp), aut));
}

TEST(automaton_ops, complement_requires_deterministic_complete) {
    fixture f;
    const automaton incomplete = make_simple(f);
    EXPECT_THROW(complement(incomplete), std::logic_error);
    automaton nondet(f.mgr, f.vars);
    const auto s0 = nondet.add_state(true);
    const auto s1 = nondet.add_state(false);
    nondet.set_initial(s0);
    nondet.add_transition(s0, s0, f.mgr.one());
    nondet.add_transition(s0, s1, f.a1());
    EXPECT_THROW(complement(nondet), std::logic_error);
}

TEST(automaton_ops, determinize_merges_overlapping_moves) {
    fixture f;
    automaton nondet(f.mgr, f.vars);
    const auto s0 = nondet.add_state(true);
    const auto s1 = nondet.add_state(true);
    const auto s2 = nondet.add_state(false);
    nondet.set_initial(s0);
    nondet.add_transition(s0, s1, f.a1());        // on var0
    nondet.add_transition(s0, s2, f.mgr.var(1));  // on var1 (overlaps)
    EXPECT_FALSE(is_deterministic(nondet));
    const automaton det = determinize(nondet);
    EXPECT_TRUE(is_deterministic(det));
    EXPECT_TRUE(language_equivalent(nondet, det));
}

TEST(automaton_ops, product_intersects_languages) {
    fixture f;
    // A: var0 must be 1 forever; B: var1 must be 1 forever
    automaton a(f.mgr, {0}), b(f.mgr, {1});
    a.set_initial(a.add_state(true));
    a.add_transition(0, 0, f.mgr.var(0));
    b.set_initial(b.add_state(true));
    b.add_transition(0, 0, f.mgr.var(1));
    const automaton p = product(a, b);
    EXPECT_EQ(p.label_vars(), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(p.num_states(), 1u);
    EXPECT_EQ(p.transitions(0)[0].label, f.mgr.var(0) & f.mgr.var(1));
}

TEST(automaton_ops, change_support_hides_and_expands) {
    fixture f;
    const automaton aut = make_simple(f);
    // hide var0: every label becomes TRUE (var1 unconstrained)
    const automaton hidden = change_support(aut, {1});
    EXPECT_EQ(hidden.label_vars(), (std::vector<std::uint32_t>{1}));
    EXPECT_FALSE(is_deterministic(hidden)); // hiding created nondeterminism
    // expand with a fresh variable: same structure
    const automaton expanded = change_support(aut, {0, 1, 5});
    EXPECT_EQ(expanded.num_transitions(), aut.num_transitions());
}

TEST(automaton_ops, prefix_close_removes_nonaccepting) {
    fixture f;
    automaton aut(f.mgr, f.vars);
    const auto s0 = aut.add_state(true);
    const auto bad = aut.add_state(false);
    const auto s2 = aut.add_state(true);
    aut.set_initial(s0);
    aut.add_transition(s0, bad, f.a0());
    aut.add_transition(s0, s2, f.a1());
    aut.add_transition(bad, s2, f.mgr.one());
    const automaton pc = prefix_close(aut);
    EXPECT_EQ(pc.num_states(), 2u);
    for (std::uint32_t s = 0; s < pc.num_states(); ++s) {
        EXPECT_TRUE(pc.accepting(s));
    }
}

TEST(automaton_ops, prefix_close_of_rejecting_initial_is_empty) {
    fixture f;
    automaton aut(f.mgr, f.vars);
    const auto s0 = aut.add_state(false);
    aut.set_initial(s0);
    aut.add_transition(s0, s0, f.mgr.one());
    EXPECT_TRUE(language_empty(prefix_close(aut)));
}

TEST(automaton_ops, progressive_trims_input_incomplete_states) {
    fixture f;
    // inputs = {var0}; outputs = {var1}
    automaton aut(f.mgr, f.vars);
    const auto s0 = aut.add_state(true);
    const auto s1 = aut.add_state(true); // s1 only moves on var0 = 1: not
    aut.set_initial(s0);                 // input-progressive
    aut.add_transition(s0, s0, f.a0());
    aut.add_transition(s0, s1, f.a1());
    aut.add_transition(s1, s1, f.a1());
    const automaton prog = progressive(aut, {0});
    // s1 dies; then s0 loses its var0=1 move but var0=0 keeps... s0 also
    // dies because input var0=1 leads nowhere
    EXPECT_TRUE(language_empty(prog));
}

TEST(automaton_ops, progressive_keeps_input_complete_core) {
    fixture f;
    automaton aut(f.mgr, f.vars);
    const auto s0 = aut.add_state(true);
    const auto s1 = aut.add_state(true);
    aut.set_initial(s0);
    aut.add_transition(s0, s0, f.mgr.one()); // all inputs fine at s0
    aut.add_transition(s0, s1, f.a1() & f.mgr.var(1));
    aut.add_transition(s1, s1, f.a1()); // s1 not progressive (var0=0 missing)
    const automaton prog = progressive(aut, {0});
    EXPECT_FALSE(language_empty(prog));
    EXPECT_EQ(prog.num_states(), 1u); // only s0 survives
}

TEST(automaton_lang, containment_and_equivalence) {
    fixture f;
    // L1: all words; L2: words where var0 is always 1
    automaton all(f.mgr, f.vars), ones(f.mgr, f.vars);
    all.set_initial(all.add_state(true));
    all.add_transition(0, 0, f.mgr.one());
    ones.set_initial(ones.add_state(true));
    ones.add_transition(0, 0, f.a1());
    EXPECT_TRUE(language_contained(ones, all));
    EXPECT_FALSE(language_contained(all, ones));
    EXPECT_TRUE(language_equivalent(all, all));
    EXPECT_FALSE(language_equivalent(all, ones));
}

TEST(automaton_lang, empty_language_detection) {
    fixture f;
    automaton aut(f.mgr, f.vars);
    const auto s0 = aut.add_state(false);
    const auto s1 = aut.add_state(true); // unreachable accepting state
    aut.set_initial(s0);
    aut.add_transition(s1, s0, f.mgr.one());
    EXPECT_TRUE(language_empty(aut));
}

// ---------------------------------------------------------------------------
// Theorem 1 (paper appendix): Complete(Determinize(A)) has the same language
// as Determinize(Complete(A)) — checked over random nondeterministic automata
// ---------------------------------------------------------------------------

automaton random_automaton(bdd_manager& mgr,
                           const std::vector<std::uint32_t>& vars,
                           std::uint32_t seed) {
    std::mt19937 rng(seed);
    automaton aut(mgr, vars);
    const std::size_t n = 3 + seed % 4;
    for (std::size_t s = 0; s < n; ++s) { aut.add_state((rng() & 1) != 0); }
    aut.set_initial(0);
    // random labelled edges; labels are random cubes over the vars
    const std::size_t m = n * 2 + rng() % 5;
    for (std::size_t e = 0; e < m; ++e) {
        const auto src = static_cast<std::uint32_t>(rng() % n);
        const auto dst = static_cast<std::uint32_t>(rng() % n);
        bdd label = mgr.one();
        for (const std::uint32_t v : vars) {
            const auto roll = rng() % 3;
            if (roll == 0) { label &= mgr.var(v); }
            if (roll == 1) { label &= mgr.nvar(v); }
        }
        aut.add_transition(src, dst, label);
    }
    return aut;
}

class theorem1_property : public ::testing::TestWithParam<unsigned> {};

TEST_P(theorem1_property, completion_and_determinization_commute) {
    bdd_manager mgr(4);
    const std::vector<std::uint32_t> vars{0, 1};
    const automaton a = random_automaton(mgr, vars, GetParam());
    const automaton lhs = complete(determinize(a));
    const automaton rhs = determinize(complete(a));
    EXPECT_TRUE(language_equivalent(lhs, rhs)) << "seed " << GetParam();
    // and both preserve the original language
    EXPECT_TRUE(language_equivalent(lhs, determinize(a)));
}

INSTANTIATE_TEST_SUITE_P(random_seeds, theorem1_property,
                         ::testing::Range(0u, 15u));

/// Determinization preserves the language (subset-construction soundness).
class determinize_property : public ::testing::TestWithParam<unsigned> {};

TEST_P(determinize_property, preserves_language) {
    bdd_manager mgr(4);
    const std::vector<std::uint32_t> vars{0, 1};
    const automaton a = random_automaton(mgr, vars, 100 + GetParam());
    const automaton d = determinize(a);
    EXPECT_TRUE(is_deterministic(d));
    EXPECT_TRUE(language_equivalent(a, d));
}

INSTANTIATE_TEST_SUITE_P(random_seeds, determinize_property,
                         ::testing::Range(0u, 15u));

// ---------------------------------------------------------------------------
// STG extraction
// ---------------------------------------------------------------------------

TEST(stg, paper_example_automaton) {
    // Figure 3: 3 reachable states; deterministic; incomplete (o is a
    // function of the state)
    const network net = make_paper_example();
    bdd_manager mgr(2);
    const automaton aut = network_to_automaton(mgr, net, {0}, {1});
    EXPECT_EQ(aut.num_states(), 3u);
    EXPECT_TRUE(is_deterministic(aut));
    EXPECT_FALSE(is_complete(aut));
    for (std::uint32_t s = 0; s < aut.num_states(); ++s) {
        EXPECT_TRUE(aut.accepting(s));
    }
}

TEST(stg, traffic_controller_states) {
    const network net = make_traffic_controller();
    bdd_manager mgr(8);
    const automaton aut =
        network_to_automaton(mgr, net, {0, 1}, {2, 3, 4, 5});
    EXPECT_EQ(aut.num_states(), 5u); // HG HY AR FG FY
    EXPECT_TRUE(is_deterministic(aut));
}

TEST(stg, respects_state_cap) {
    const network net = make_counter(8);
    bdd_manager mgr(8);
    EXPECT_THROW(network_to_automaton(mgr, net, {0, 1}, {2}, 10),
                 std::runtime_error);
}

} // namespace

namespace {

using namespace leq;

TEST(minimize_test, collapses_equivalent_states) {
    bdd_manager mgr(2);
    automaton aut(mgr, {0});
    // two interchangeable accepting states looping to each other on var0
    const auto s0 = aut.add_state(true);
    const auto s1 = aut.add_state(true);
    aut.set_initial(s0);
    aut.add_transition(s0, s1, mgr.var(0));
    aut.add_transition(s1, s0, mgr.var(0));
    const automaton m = minimize(aut);
    EXPECT_EQ(m.num_states(), 1u);
    EXPECT_TRUE(language_equivalent(m, aut));
}

TEST(minimize_test, keeps_distinguishable_states) {
    bdd_manager mgr(2);
    automaton aut(mgr, {0});
    const auto s0 = aut.add_state(true);
    const auto s1 = aut.add_state(true);
    aut.set_initial(s0);
    aut.add_transition(s0, s1, mgr.var(0));
    aut.add_transition(s1, s0, mgr.nvar(0)); // different guard: distinct
    const automaton m = minimize(aut);
    EXPECT_EQ(m.num_states(), 2u);
    EXPECT_TRUE(language_equivalent(m, aut));
}

TEST(minimize_test, rejects_nondeterministic_input) {
    bdd_manager mgr(2);
    automaton aut(mgr, {0});
    const auto s0 = aut.add_state(true);
    const auto s1 = aut.add_state(false);
    aut.set_initial(s0);
    aut.add_transition(s0, s0, mgr.one());
    aut.add_transition(s0, s1, mgr.var(0));
    EXPECT_THROW(minimize(aut), std::logic_error);
}

/// A cycle of n equivalent states p_i (each moves on x0 to p_{i+1} and on
/// two disjoint guards to two equivalent sinks), interleaved with a cycle
/// of n distinct states q_i whose guard unions all differ, so that each
/// q_i allocates nodes while the states are signed.  Minimal: the initial
/// state, one p, the n q and one sink.  Label vars 0..9.
automaton make_interleaved_cycles(bdd_manager& mgr, std::uint32_t n) {
    automaton aut(mgr, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
    const std::uint32_t init = aut.add_state(true);
    std::vector<std::uint32_t> p, q;
    for (std::uint32_t i = 0; i < n; ++i) {
        p.push_back(aut.add_state(true));
        q.push_back(aut.add_state(true));
    }
    const std::uint32_t sink_a = aut.add_state(true);
    const std::uint32_t sink_b = aut.add_state(true);
    aut.set_initial(init);
    aut.add_transition(init, p[0], mgr.var(0));
    aut.add_transition(init, q[0], mgr.nvar(0));
    for (std::uint32_t i = 0; i < n; ++i) {
        aut.add_transition(p[i], p[(i + 1) % n], mgr.var(0));
        aut.add_transition(p[i], sink_a, mgr.nvar(0) & mgr.var(1));
        aut.add_transition(p[i], sink_b,
                           mgr.nvar(0) & mgr.nvar(1) & mgr.var(2));
        aut.add_transition(q[i], q[(i + 1) % n], mgr.var(0));
        bdd cube = mgr.nvar(0);
        for (std::uint32_t b = 1; b < 10; ++b) {
            cube &= mgr.literal(b, ((i >> (b - 1)) & 1) != 0);
        }
        aut.add_transition(q[i], sink_a, cube);
    }
    return aut;
}

TEST(minimize_test, collection_inside_the_call_keeps_equal_states_together) {
    constexpr std::uint32_t n = 32;
    std::size_t expected = 0;
    {
        bdd_manager mgr(10);
        expected = minimize(make_interleaved_cycles(mgr, n)).num_states();
        EXPECT_EQ(mgr.stats().gc_runs, 0u);
    }
    EXPECT_EQ(expected, n + 3);
    // fill the arena to just below the collection trigger with garbage
    // (each var(a) & var(b) of fresh variables is one new node), so that a
    // collection fires while minimize signs the states
    constexpr std::uint32_t spare = 200; // fill variables 10..209
    for (const std::size_t margin : {4u, 12u, 20u}) {
        bdd_manager mgr(10 + spare);
        const automaton aut = make_interleaved_cycles(mgr, n);
        std::vector<bdd> vars;
        for (std::uint32_t v = 10; v < 10 + spare; ++v) {
            vars.push_back(mgr.var(v));
        }
        const std::size_t target = mgr.stats().gc_threshold - margin;
        std::size_t allocated = mgr.stats().allocated_nodes;
        ASSERT_LT(allocated, target);
        for (std::uint32_t a = 0; a < spare && allocated < target; ++a) {
            for (std::uint32_t b = a + 1; b < spare && allocated < target;
                 ++b) {
                (void)(vars[a] & vars[b]);
                ++allocated;
            }
        }
        ASSERT_EQ(mgr.stats().allocated_nodes, target);
        ASSERT_EQ(mgr.stats().gc_runs, 0u);
        const automaton m = minimize(aut);
        EXPECT_EQ(mgr.stats().gc_runs, 1u) << "margin " << margin;
        EXPECT_EQ(m.num_states(), expected) << "margin " << margin;
    }
}

class minimize_property : public ::testing::TestWithParam<unsigned> {};

TEST_P(minimize_property, preserves_language_and_is_minimal) {
    bdd_manager mgr(4);
    const std::vector<std::uint32_t> vars{0, 1};
    const automaton a =
        determinize(random_automaton(mgr, vars, 500 + GetParam()));
    const automaton m = minimize(a);
    EXPECT_TRUE(language_equivalent(a, m));
    EXPECT_LE(m.num_states(), trim_unreachable(a).num_states());
    // idempotent
    EXPECT_EQ(minimize(m).num_states(), m.num_states());
}

INSTANTIATE_TEST_SUITE_P(random_seeds, minimize_property,
                         ::testing::Range(0u, 12u));

} // namespace
