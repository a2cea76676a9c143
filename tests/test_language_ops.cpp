/// \file test_language_ops.cpp
/// \brief Prefix closure and word sampling.

#include "automata/automaton.hpp"
#include "automata/stg.hpp"
#include "net/generator.hpp"
#include "net/netbdd.hpp"

#include <gtest/gtest.h>

namespace leq {
namespace {

/// a over one label variable x: accepts words where every letter has x=1,
/// of length <= n (prefix-closed chain).
automaton ones_chain(bdd_manager& mgr, std::size_t n) {
    automaton a(mgr, {0});
    for (std::size_t s = 0; s <= n; ++s) { a.add_state(true); }
    for (std::size_t s = 0; s < n; ++s) {
        a.add_transition(static_cast<std::uint32_t>(s),
                         static_cast<std::uint32_t>(s + 1), mgr.var(0));
    }
    a.set_initial(0);
    return a;
}

/// accepts exactly the words of length n (any letters).
automaton length_exactly(bdd_manager& mgr, std::size_t n) {
    automaton a(mgr, {0});
    for (std::size_t s = 0; s <= n; ++s) { a.add_state(s == n); }
    for (std::size_t s = 0; s < n; ++s) {
        a.add_transition(static_cast<std::uint32_t>(s),
                         static_cast<std::uint32_t>(s + 1), mgr.one());
    }
    a.set_initial(0);
    return a;
}

// ---------------------------------------------------------------------------
// prefix closure
// ---------------------------------------------------------------------------

TEST(language_ops, ones_chain_is_prefix_closed) {
    bdd_manager mgr(1);
    EXPECT_TRUE(is_prefix_closed(ones_chain(mgr, 4)));
}

TEST(language_ops, length_exactly_is_not_prefix_closed) {
    bdd_manager mgr(1);
    EXPECT_FALSE(is_prefix_closed(length_exactly(mgr, 2)));
    // length 0 accepts only the empty word, which is prefix-closed
    EXPECT_TRUE(is_prefix_closed(length_exactly(mgr, 0)));
}

TEST(language_ops, empty_language_is_prefix_closed) {
    bdd_manager mgr(1);
    automaton a(mgr, {0});
    a.add_state(false);
    a.set_initial(0);
    EXPECT_TRUE(is_prefix_closed(a));
}

TEST(language_ops, network_stg_is_prefix_closed) {
    // the paper's premise: automata derived from networks are prefix-closed
    const network net = make_paper_example();
    bdd_manager mgr;
    std::vector<std::uint32_t> in_vars, out_vars;
    for (std::size_t k = 0; k < net.num_inputs(); ++k) {
        in_vars.push_back(mgr.new_var());
    }
    for (std::size_t k = 0; k < net.num_outputs(); ++k) {
        out_vars.push_back(mgr.new_var());
    }
    const automaton stg = network_to_automaton(mgr, net, in_vars, out_vars);
    EXPECT_TRUE(is_prefix_closed(stg));
}

// ---------------------------------------------------------------------------
// sampling
// ---------------------------------------------------------------------------

TEST(language_ops, sampled_words_are_accepted) {
    bdd_manager mgr(1);
    const automaton a = ones_chain(mgr, 6);
    const auto words = sample_accepted_words(a, 10, 6, 42);
    EXPECT_FALSE(words.empty());
    for (const word& w : words) {
        EXPECT_TRUE(accepts(a, w));
        EXPECT_LE(w.size(), 6u);
    }
}

TEST(language_ops, sampling_empty_language_yields_nothing) {
    bdd_manager mgr(1);
    automaton a(mgr, {0});
    a.add_state(false);
    a.set_initial(0);
    EXPECT_TRUE(sample_accepted_words(a, 10, 5, 1).empty());
}

TEST(language_ops, sampling_is_deterministic_per_seed) {
    bdd_manager mgr(1);
    const automaton a = ones_chain(mgr, 5);
    const auto w1 = sample_accepted_words(a, 5, 5, 7);
    const auto w2 = sample_accepted_words(a, 5, 5, 7);
    EXPECT_EQ(w1, w2);
}

} // namespace
} // namespace leq
