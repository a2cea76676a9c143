/// \file test_automata_random.cpp
/// \brief Random-NFA property sweeps over the automata algebra: identities
/// that must hold for arbitrary (including non-deterministic, incomplete)
/// automata, checked on seeded random instances.

#include "automata/automaton.hpp"
#include "gen/scenario.hpp" // test_seed

#include <gtest/gtest.h>

#include <random>

namespace {

using namespace leq;

constexpr std::uint32_t label_bits = 2;

/// Random NFA: 4..7 states, random BDD-labelled edges, random acceptance.
/// The initial state is always accepting half the time so empty-word cases
/// are exercised.
automaton random_nfa(bdd_manager& mgr, std::uint32_t seed) {
    std::mt19937 rng(seed);
    const std::uint32_t n = 4 + rng() % 4;
    automaton a(mgr, {0, 1});
    for (std::uint32_t s = 0; s < n; ++s) { a.add_state((rng() & 1u) != 0); }
    a.set_initial(0);
    const std::uint32_t edges = n + rng() % (2 * n);
    for (std::uint32_t e = 0; e < edges; ++e) {
        const std::uint32_t src = rng() % n;
        const std::uint32_t dst = rng() % n;
        // random nonempty label: a cube or a disjunction of two cubes
        bdd label = mgr.one();
        for (std::uint32_t v = 0; v < label_bits; ++v) {
            switch (rng() % 3) {
                case 0: label &= mgr.var(v); break;
                case 1: label &= mgr.nvar(v); break;
                default: break; // don't care
            }
        }
        if ((rng() & 3u) == 0) {
            bdd second = mgr.one();
            for (std::uint32_t v = 0; v < label_bits; ++v) {
                if (rng() & 1u) {
                    second &= mgr.literal(v, (rng() & 1u) != 0);
                }
            }
            label |= second;
        }
        a.add_transition(src, dst, label);
    }
    return a;
}

class nfa_props : public ::testing::TestWithParam<std::uint32_t> {
protected:
    // LEQ_TEST_SEED replays a CI failure: it overrides every param's seed
    std::uint32_t seed = test_seed(GetParam());
    bdd_manager mgr{label_bits};
    automaton a = random_nfa(mgr, seed);
    automaton b = random_nfa(mgr, seed + 500);
};

TEST_P(nfa_props, determinization_preserves_language) {
    const automaton d = determinize(a);
    EXPECT_TRUE(is_deterministic(d));
    EXPECT_TRUE(language_equivalent(a, d));
}

TEST_P(nfa_props, double_complement_is_identity) {
    const automaton c1 = complement(complete(determinize(a)));
    const automaton c2 = complement(complete(determinize(c1)));
    EXPECT_TRUE(language_equivalent(a, c2));
    // complement really flips membership on sampled words (both sides)
    for (const word& w : sample_accepted_words(a, 6, 5, seed)) {
        EXPECT_FALSE(accepts(c1, w));
    }
}

TEST_P(nfa_props, product_is_intersection) {
    const automaton p = product(a, b);
    EXPECT_TRUE(language_contained(p, a));
    EXPECT_TRUE(language_contained(p, b));
    // any word in both languages is in the product
    for (const word& w : sample_accepted_words(a, 8, 4, seed + 7)) {
        EXPECT_EQ(accepts(p, w), accepts(b, w));
    }
    // commutativity at the language level
    EXPECT_TRUE(language_equivalent(p, product(b, a)));
}

TEST_P(nfa_props, prefix_close_is_idempotent_and_shrinking) {
    const automaton p1 = prefix_close(a);
    EXPECT_TRUE(language_contained(p1, a));
    EXPECT_TRUE(language_equivalent(prefix_close(p1), p1));
    EXPECT_TRUE(is_prefix_closed(p1));
}

TEST_P(nfa_props, minimize_preserves_and_fixes_size) {
    const automaton d = trim_unreachable(determinize(a));
    const automaton m1 = minimize(d);
    EXPECT_TRUE(language_equivalent(d, m1));
    const automaton m2 = minimize(m1);
    EXPECT_EQ(m1.num_states(), m2.num_states());
    EXPECT_LE(m1.num_states(), d.num_states());
}

TEST_P(nfa_props, change_support_expansion_round_trip) {
    // expanding with a fresh unconstrained variable and hiding it again
    // must preserve the language
    bdd_manager wide(label_bits + 1);
    const automaton base = random_nfa(wide, seed);
    const automaton expanded = change_support(base, {0, 1, 2});
    const automaton back = change_support(expanded, {0, 1});
    EXPECT_TRUE(language_equivalent(base, back));
}

INSTANTIATE_TEST_SUITE_P(seeds, nfa_props, ::testing::Range(1u, 16u));

} // namespace
