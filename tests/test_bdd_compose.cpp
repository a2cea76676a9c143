/// \file test_bdd_compose.cpp
/// \brief Simultaneous composition (compose_vector) against truth tables,
/// chained compose and the relational product.

#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <random>

namespace leq {
namespace {

bdd random_function(bdd_manager& mgr, std::uint32_t nvars, std::uint32_t seed,
                    std::size_t ops = 50) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::uint32_t> pick(0, nvars - 1);
    bdd f = mgr.literal(pick(rng), (rng() & 1u) != 0);
    for (std::size_t k = 0; k < ops; ++k) {
        const bdd lit = mgr.literal(pick(rng), (rng() & 1u) != 0);
        switch (rng() % 3) {
            case 0: f = f & lit; break;
            case 1: f = f | lit; break;
            default: f = f ^ lit; break;
        }
    }
    return f;
}

TEST(compose_vector, matches_truth_table_substitution) {
    bdd_manager mgr(6);
    const bdd f = random_function(mgr, 6, 9);
    // substitute x0 <- x2 & x3, x1 <- x4 ^ x5 simultaneously
    const bdd g0 = mgr.var(2) & mgr.var(3);
    const bdd g1 = mgr.var(4) ^ mgr.var(5);
    const bdd composed = mgr.compose_vector(f, {{0, g0}, {1, g1}});
    std::vector<bool> a(6);
    for (std::uint32_t m = 0; m < (1u << 6); ++m) {
        for (std::uint32_t v = 0; v < 6; ++v) { a[v] = (m >> v) & 1u; }
        std::vector<bool> b = a;
        b[0] = mgr.eval(g0, a);
        b[1] = mgr.eval(g1, a);
        ASSERT_EQ(mgr.eval(composed, a), mgr.eval(f, b)) << m;
    }
}

TEST(compose_vector, simultaneous_differs_from_chained) {
    // swap x0 and x1 through composition: simultaneous substitution swaps,
    // chained substitution collapses both onto one variable
    bdd_manager mgr(2);
    const bdd f = mgr.var(0) & !mgr.var(1);
    const bdd swapped =
        mgr.compose_vector(f, {{0, mgr.var(1)}, {1, mgr.var(0)}});
    EXPECT_EQ(swapped, mgr.var(1) & !mgr.var(0));
    const bdd chained =
        mgr.compose(mgr.compose(f, 0, mgr.var(1)), 1, mgr.var(0));
    EXPECT_EQ(chained, mgr.zero()); // x1 & !x1 after the collapse
}

TEST(compose_vector, empty_substitution_is_identity) {
    bdd_manager mgr(4);
    const bdd f = random_function(mgr, 4, 3);
    EXPECT_EQ(mgr.compose_vector(f, {}), f);
}

TEST(compose_vector, agrees_with_single_compose_when_disjoint) {
    bdd_manager mgr(8);
    const bdd f = random_function(mgr, 8, 31);
    const bdd g = mgr.var(6) | mgr.var(7); // fresh variables only
    EXPECT_EQ(mgr.compose_vector(f, {{2, g}}), mgr.compose(f, 2, g));
}

TEST(compose_vector, image_by_substitution_matches_relational_product) {
    // the classic identity: Img(ns) of a state set under next-state
    // functions equals substituting the functions into the set's complement
    // structure — here checked as: for a cube set of states,
    // exists_{cs}(AND_k [ns_k == T_k] & set(cs)) == rename(compose...)
    // simplified to a direct check on a 2-latch system
    bdd_manager mgr(6); // cs0 cs1 i ns0 ns1 (+1 spare)
    const std::uint32_t cs0 = 0, cs1 = 1, in = 2, ns0 = 3, ns1 = 4;
    const bdd t0 = mgr.var(in) & mgr.var(cs1);  // T0(i, cs)
    const bdd t1 = (!mgr.var(in)) | mgr.var(cs0); // T1(i, cs)
    const bdd from = (!mgr.var(cs0)) & (!mgr.var(cs1));
    // relational product
    const bdd rel = (mgr.var(ns0).iff(t0)) & (mgr.var(ns1).iff(t1));
    const bdd img_rel =
        mgr.and_exists(rel, from, mgr.cube({cs0, cs1, in}));
    // substitution: characteristic of image = exists_{cs,i}(from & ns==T)
    // computed via compose on the complement-free form; compare pointwise
    for (std::uint32_t m = 0; m < 4; ++m) {
        std::vector<bool> a(6, false);
        a[ns0] = (m & 1) != 0;
        a[ns1] = (m & 2) != 0;
        // img_rel(ns) true iff exists i: T(i, 00) == ns
        bool expect = false;
        for (int i = 0; i < 2; ++i) {
            std::vector<bool> b(6, false);
            b[in] = i != 0;
            const bool v0 = mgr.eval(t0, b);
            const bool v1 = mgr.eval(t1, b);
            expect = expect || (v0 == a[ns0] && v1 == a[ns1]);
        }
        EXPECT_EQ(mgr.eval(img_rel, a), expect) << m;
    }
}

} // namespace
} // namespace leq
