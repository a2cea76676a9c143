/// \file test_bdd_props.cpp
/// \brief Property sweeps over the BDD package: algebraic identities that
/// must hold for arbitrary functions, checked on seeded random instances.

#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace leq {
namespace {

constexpr std::uint32_t nvars = 8;

bdd random_function(bdd_manager& mgr, std::uint32_t seed, std::size_t ops = 60) {
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

/// Oracle: permute(f, perm)(x) == f(x[perm[0]], x[perm[1]], ...) on every
/// assignment of the first `n` variables.
void expect_permuted(bdd_manager& mgr, const bdd& result, const bdd& f,
                     const std::vector<std::uint32_t>& perm, std::uint32_t n) {
    std::vector<bool> x(n), y(n);
    for (std::uint32_t row = 0; row < (1u << n); ++row) {
        for (std::uint32_t v = 0; v < n; ++v) { x[v] = ((row >> v) & 1u) != 0; }
        for (std::uint32_t v = 0; v < n; ++v) { y[v] = x[perm[v]]; }
        ASSERT_EQ(mgr.eval(result, x), mgr.eval(f, y)) << "row " << row;
    }
}

class bdd_props : public ::testing::TestWithParam<std::uint32_t> {
protected:
    bdd_manager mgr{nvars};
    bdd f = random_function(mgr, GetParam());
    bdd g = random_function(mgr, GetParam() + 100);
    bdd h = random_function(mgr, GetParam() + 200);
    bdd cube = mgr.cube({1, 3, 5});
};

TEST_P(bdd_props, boolean_algebra) {
    // absorption, distribution, de Morgan — at the canonical-node level
    EXPECT_EQ(f & (f | g), f);
    EXPECT_EQ(f | (f & g), f);
    EXPECT_EQ(f & (g | h), (f & g) | (f & h));
    EXPECT_EQ(!(f & g), (!f) | (!g));
    EXPECT_EQ(!(f | g), (!f) & (!g));
    EXPECT_EQ(f ^ g, (f & !g) | ((!f) & g));
    EXPECT_EQ(mgr.ite(f, g, h), (f & g) | ((!f) & h));
}

TEST_P(bdd_props, implication_and_containment) {
    EXPECT_TRUE((f & g).leq(f));
    EXPECT_TRUE(f.leq(f | g));
    EXPECT_EQ(f.implies(g).is_one(), f.leq(g));
    EXPECT_EQ(f.iff(f), mgr.one());
}

TEST_P(bdd_props, quantifier_identities) {
    // monotonicity and distribution laws; universal quantification is the
    // dual !exists(!f) through the complement edges
    const auto forall = [&](const bdd& x) { return !mgr.exists(!x, cube); };
    EXPECT_TRUE(forall(f).leq(f));
    EXPECT_TRUE(f.leq(mgr.exists(f, cube)));
    EXPECT_EQ(mgr.exists(f | g, cube),
              mgr.exists(f, cube) | mgr.exists(g, cube));
    EXPECT_EQ(forall(f & g), forall(f) & forall(g));
    // quantifying twice is idempotent
    EXPECT_EQ(mgr.exists(mgr.exists(f, cube), cube), mgr.exists(f, cube));
}

TEST_P(bdd_props, and_exists_is_fused_relational_product) {
    EXPECT_EQ(mgr.and_exists(f, g, cube), mgr.exists(f & g, cube));
    // special cases
    EXPECT_EQ(mgr.and_exists(f, mgr.one(), cube), mgr.exists(f, cube));
    EXPECT_EQ(mgr.and_exists(f, mgr.zero(), cube), mgr.zero());
}

TEST_P(bdd_props, cofactor_shannon_expansion) {
    const bdd x = mgr.var(2);
    const bdd f1 = mgr.exists(f & x, mgr.cube({2}));
    const bdd f0 = mgr.exists(f & !x, mgr.cube({2}));
    EXPECT_EQ(f, (x & f1) | ((!x) & f0));
    // cofactors are independent of the cofactored variable
    for (const std::uint32_t v : mgr.support(f1)) { EXPECT_NE(v, 2u); }
}

TEST_P(bdd_props, sat_count_inclusion_exclusion) {
    const double cf = mgr.sat_count(f, nvars);
    const double cg = mgr.sat_count(g, nvars);
    const double cand = mgr.sat_count(f & g, nvars);
    const double cor = mgr.sat_count(f | g, nvars);
    EXPECT_EQ(cf + cg, cand + cor);
    EXPECT_EQ(mgr.sat_count(!f, nvars), 256.0 - cf);
}

TEST_P(bdd_props, support_is_tight) {
    // every support variable actually matters; every other one does not
    const auto support = mgr.support(f);
    for (std::uint32_t v = 0; v < nvars; ++v) {
        const bdd pos = mgr.exists(f & mgr.var(v), mgr.cube({v}));
        const bdd neg = mgr.exists(f & mgr.nvar(v), mgr.cube({v}));
        const bool in_support =
            std::find(support.begin(), support.end(), v) != support.end();
        EXPECT_EQ(pos != neg, in_support) << "var " << v;
    }
}

TEST_P(bdd_props, pick_cube_satisfies) {
    if (f.is_zero()) { GTEST_SKIP(); }
    const bdd cube_of_f = mgr.pick_cube(f);
    EXPECT_TRUE(cube_of_f.leq(f));
    EXPECT_FALSE(cube_of_f.is_zero());
}

TEST_P(bdd_props, permute_round_trip_and_pointwise) {
    std::vector<std::uint32_t> swap02(nvars);
    for (std::uint32_t v = 0; v < nvars; ++v) { swap02[v] = v; }
    std::swap(swap02[0], swap02[2]);
    EXPECT_EQ(mgr.permute(mgr.permute(f, swap02), swap02), f);
    ASSERT_NO_FATAL_FAILURE(
        expect_permuted(mgr, mgr.permute(f, swap02), f, swap02, nvars));
}

INSTANTIATE_TEST_SUITE_P(seeds, bdd_props, ::testing::Range(1u, 16u));

// ---------------------------------------------------------------------------
// substitution: the order-preserving mk fast path and the reused memo
// ---------------------------------------------------------------------------

/// A function over one side of `pairs` interleaved (cs, ns) variable pairs
/// — cs_k = 2k, ns_k = 2k + 1 — as the problem builder lays them out.
/// `side` 0 builds over cs, 1 over ns; both sides get the same function:
/// the XOR of x_k & x_{k+pairs/2}, whose BDD doubles with every pair under
/// this order.  Every intermediate result is appended to `keep` when given.
bdd pair_function(bdd_manager& mgr, std::uint32_t pairs, std::uint32_t side,
                  std::vector<bdd>* keep = nullptr) {
    const std::uint32_t half = pairs / 2;
    bdd f = mgr.zero();
    for (std::uint32_t k = 0; k < half; ++k) {
        f = f ^ (mgr.var(2 * k + side) & mgr.var(2 * (k + half) + side));
        if (keep != nullptr) { keep->push_back(f); }
    }
    return f;
}

/// The solver's ns->cs rename: swap every (cs, ns) pair.
std::vector<std::uint32_t> pair_swap(std::uint32_t pairs) {
    std::vector<std::uint32_t> perm(2 * pairs);
    for (std::uint32_t k = 0; k < pairs; ++k) {
        perm[2 * k] = 2 * k + 1;
        perm[2 * k + 1] = 2 * k;
    }
    return perm;
}

/// A seeded random permutation of the first `n` variables.
std::vector<std::uint32_t> shuffled_order(std::uint32_t n, std::uint32_t seed) {
    std::vector<std::uint32_t> perm(n);
    for (std::uint32_t v = 0; v < n; ++v) { perm[v] = v; }
    std::mt19937 rng(seed);
    std::shuffle(perm.begin(), perm.end(), rng);
    return perm;
}

constexpr std::size_t ite_op = 2; // bdd_op_name order

TEST(bdd_subst_fast_path, order_preserving_rename_makes_no_ite_lookups) {
    constexpr std::uint32_t pairs = 8;
    bdd_manager mgr(2 * pairs);
    const bdd over_ns = pair_function(mgr, pairs, 1);
    const bdd over_cs = pair_function(mgr, pairs, 0);
    ASSERT_GT(mgr.dag_size(over_ns), 20u) << "function too small to matter";
    const std::size_t ite_before = mgr.stats().op_lookups[ite_op];
    EXPECT_EQ(mgr.permute(over_ns, pair_swap(pairs)), over_cs);
    // every node rebuilds through mk: the ITE cache is never consulted
    EXPECT_EQ(mgr.stats().op_lookups[ite_op], ite_before)
        << "the order-preserving ns->cs rename fell back to ITE rebuilds";
    // the counter does see the ITE path: a function over both sides of a
    // pair moves each cs variable below its ns partner's renamed node
    const bdd mixed = over_ns & over_cs;
    const bdd renamed = mgr.permute(mixed, pair_swap(pairs));
    EXPECT_GT(mgr.stats().op_lookups[ite_op], ite_before);
    EXPECT_EQ(renamed, mixed); // the swap maps over_ns & over_cs to itself
    mgr.check_consistency();
}

TEST(bdd_subst_fast_path, memo_is_reset_for_recycled_node_indices) {
    constexpr std::uint32_t pairs = 4;
    constexpr std::uint32_t n = 2 * pairs;
    bdd_manager mgr(n);
    for (const auto& perm : {pair_swap(pairs), shuffled_order(n, 29)}) {
        for (std::uint32_t round = 0; round < 4; ++round) {
            {
                // memoize a function's nodes, then let them die
                const bdd f = random_function(mgr, 40 + round);
                (void)mgr.permute(f, perm);
            }
            mgr.collect_garbage();
            ASSERT_LT(mgr.stats().live_nodes, mgr.stats().allocated_nodes)
                << "nothing to recycle";
            // a new function whose nodes reuse the freed indices
            const bdd g = random_function(mgr, 80 + round);
            const bdd result = mgr.permute(g, perm);
            ASSERT_NO_FATAL_FAILURE(expect_permuted(mgr, result, g, perm, n));
            mgr.check_consistency();
        }
    }
}

TEST(bdd_subst_fast_path, rename_that_grows_the_arena_mid_call) {
    constexpr std::uint32_t pairs = 16;
    bdd_manager mgr(2 * pairs);
    // holding every intermediate keeps the free list empty, so the
    // rename's new nodes must extend the arena
    std::vector<bdd> keep;
    const bdd over_ns = pair_function(mgr, pairs, 1, &keep);
    // allocated_nodes is current without a mark pass
    const std::size_t arena_before = mgr.stats().allocated_nodes;
    const bdd renamed = mgr.permute(over_ns, pair_swap(pairs));
    ASSERT_GT(mgr.stats().allocated_nodes, arena_before)
        << "workload too small: the rename fit in the free list";
    // built independently after the rename: canonicity makes handle
    // equality an exact oracle
    EXPECT_EQ(renamed, pair_function(mgr, pairs, 0));
    // renaming back goes through the memo grown to the larger arena
    EXPECT_EQ(mgr.permute(renamed, pair_swap(pairs)), over_ns);
    mgr.check_consistency();
}

// ---------------------------------------------------------------------------
// the rename memo outlives a permute call: it must be dropped at every
// collection, permutation change and unwinding permute, and nowhere else
// ---------------------------------------------------------------------------

/// Non-terminal nodes of f: what a rename with an empty memo rebuilds.
std::size_t internal_nodes(bdd_manager& mgr, const bdd& f) {
    return mgr.dag_size(f) - 1;
}

TEST(bdd_subst_fast_path, rename_counter_counts_memo_misses) {
    bdd_manager mgr(nvars);
    const bdd f = random_function(mgr, 11);
    const std::vector<std::uint32_t> perm = pair_swap(nvars / 2);
    const std::size_t full = internal_nodes(mgr, f);
    ASSERT_GT(full, 5u) << "function too small to matter";
    std::size_t before = mgr.stats().subst_nodes;
    const bdd renamed = mgr.permute(f, perm);
    EXPECT_EQ(mgr.stats().subst_nodes - before, full);
    // the same rename again, and its complement, are pure memo hits
    before = mgr.stats().subst_nodes;
    EXPECT_EQ(mgr.permute(f, perm), renamed);
    EXPECT_EQ(mgr.permute(!f, perm), !renamed);
    EXPECT_EQ(mgr.stats().subst_nodes - before, 0u);
    // a function sharing f's nodes rebuilds only its own
    const bdd wider = f & mgr.var(0);
    before = mgr.stats().subst_nodes;
    (void)mgr.permute(wider, perm);
    EXPECT_LT(mgr.stats().subst_nodes - before, internal_nodes(mgr, wider));
    // a collection drops the memo: the full count again
    mgr.collect_garbage();
    before = mgr.stats().subst_nodes;
    EXPECT_EQ(mgr.permute(f, perm), renamed);
    EXPECT_EQ(mgr.stats().subst_nodes - before, full);
}

TEST(bdd_subst_fast_path, memo_is_dropped_when_the_permutation_changes) {
    bdd_manager mgr(nvars);
    const std::vector<std::uint32_t> p = pair_swap(nvars / 2);
    const std::vector<std::uint32_t> q = shuffled_order(nvars, 5);
    ASSERT_NE(p, q);
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
        const bdd f = random_function(mgr, seed);
        // g shares f's sub-DAGs below its new top
        const bdd g = mgr.ite(mgr.var(0), f, (!f) & mgr.var(7));
        const bdd under_p = mgr.permute(f, p);
        ASSERT_NO_FATAL_FAILURE(expect_permuted(mgr, under_p, f, p, nvars));
        for (const bdd& h : {f, g}) {
            const bdd under_q = mgr.permute(h, q);
            ASSERT_NO_FATAL_FAILURE(expect_permuted(mgr, under_q, h, q, nvars));
        }
        // back to p: the memo now holds q's results, which must not leak
        const bdd again = mgr.permute(g, p);
        ASSERT_NO_FATAL_FAILURE(expect_permuted(mgr, again, g, p, nvars));
    }
    mgr.check_consistency();
}

TEST(bdd_subst_fast_path, a_permute_that_throws_leaves_nothing_memoized) {
    bdd_manager mgr(nvars);
    // g avoids x0 and x7; f = x0 ? x7 : g walks g (the else branch) before
    // it reaches x7, which the short permutation does not cover
    const bdd g = (mgr.var(1) ^ mgr.var(4)) ^ (mgr.var(2) & mgr.var(5)) ^
                  (mgr.var(3) | mgr.var(6));
    ASSERT_GT(internal_nodes(mgr, g), 3u) << "function too small to matter";
    const bdd f = mgr.ite(mgr.var(0), mgr.var(7), g);
    std::vector<std::uint32_t> perm = shuffled_order(nvars - 1, 9);
    EXPECT_THROW((void)mgr.permute(f, perm), std::invalid_argument);
    // the same permutation on g: nothing from the failed walk is reused
    const std::size_t before = mgr.stats().subst_nodes;
    const bdd result = mgr.permute(g, perm);
    EXPECT_EQ(mgr.stats().subst_nodes - before, internal_nodes(mgr, g));
    perm.push_back(nvars - 1);
    ASSERT_NO_FATAL_FAILURE(expect_permuted(mgr, result, g, perm, nvars));
    mgr.check_consistency();
}

// ---------------------------------------------------------------------------
// the fixed memory geometry: cache growth and the GC trigger must follow
// their documented policies, and replacement must be deterministic
// ---------------------------------------------------------------------------

constexpr std::uint32_t big_nvars = 16;

/// Enough distinct nodes to outgrow a 2^8-entry cache several times over.
bdd big_function(bdd_manager& mgr, std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::uint32_t> pick(0, big_nvars - 1);
    bdd f = mgr.literal(pick(rng), (rng() & 1u) != 0);
    for (std::size_t k = 0; k < 400; ++k) {
        const bdd lit = mgr.literal(pick(rng), (rng() & 1u) != 0);
        switch (rng() % 3) {
            case 0: f = f & lit; break;
            case 1: f = f | lit; break;
            default: f = f ^ lit; break;
        }
        if (k % 5 == 0) { f = f ^ (mgr.var(pick(rng)) & f); }
    }
    return f;
}

TEST(bdd_memory_geometry, cache_grows_geometrically_with_unique_table) {
    bdd_manager mgr(big_nvars, 8u);
    EXPECT_EQ(mgr.stats().cache_entries, std::size_t{1} << 8);
    const bdd f = big_function(mgr, 7);
    ASSERT_GT(mgr.stats().allocated_nodes, std::size_t{1} << 9)
        << "workload too small to exercise cache growth";
    EXPECT_GT(mgr.stats().cache_resizes, 0u);
    EXPECT_GT(mgr.stats().cache_entries, std::size_t{1} << 8);
    EXPECT_LE(mgr.stats().cache_entries,
              std::size_t{1} << bdd_manager::max_cache_bits);
    // the initial cache size must not change the function computed
    bdd_manager reference(big_nvars);
    EXPECT_EQ(mgr.sat_count(f, big_nvars),
              reference.sat_count(big_function(reference, 7), big_nvars));
}

TEST(bdd_memory_geometry, default_cache_starts_at_the_growth_floor) {
    // the default initial cache is the floor growth enforces, two slots per
    // initial bucket, so the first table growth resizes it exactly once
    const std::size_t buckets = std::size_t{1}
                                << bdd_manager::initial_bucket_bits;
    bdd_manager mgr(static_cast<std::uint32_t>(buckets));
    EXPECT_EQ(mgr.stats().cache_entries, 2 * buckets);
    EXPECT_EQ(mgr.stats().cache_resizes, 0u);
    // each var() is one fresh node: with the terminal, buckets - 1 of them
    // fill the table to its size without growing it
    std::vector<bdd> held;
    for (std::uint32_t v = 0; v + 1 < buckets; ++v) {
        held.push_back(mgr.var(v));
    }
    ASSERT_EQ(mgr.live_node_count(), buckets);
    EXPECT_EQ(mgr.stats().cache_resizes, 0u);
    EXPECT_EQ(mgr.stats().cache_entries, 2 * buckets);
    // one more node doubles the table, and the cache follows once
    held.push_back(mgr.var(static_cast<std::uint32_t>(buckets - 1)));
    EXPECT_EQ(mgr.stats().cache_resizes, 1u);
    EXPECT_GE(mgr.stats().cache_entries, 2 * (2 * buckets));
}

TEST(bdd_memory_geometry, cache_bits_ctor_pins_initial_cache_size) {
    bdd_manager mgr(4, 12u);
    EXPECT_EQ(mgr.stats().cache_entries, std::size_t{1} << 12);
    EXPECT_EQ(mgr.stats().gc_threshold, bdd_manager::gc_floor);
}

TEST(bdd_memory_geometry, cache_bits_ctor_is_capped_at_the_growth_ceiling) {
    // one past the ceiling would be twice the largest cache growth allows;
    // the cap keeps the constructor inside the 2^max_cache_bits bound
    bdd_manager mgr(4, bdd_manager::max_cache_bits + 1);
    EXPECT_EQ(mgr.stats().cache_entries,
              std::size_t{1} << bdd_manager::max_cache_bits);
}

TEST(bdd_memory_geometry, cache_stops_growing_at_the_ceiling) {
    // each var() is one fresh node, and the unique table keeps at least one
    // bucket per node, so n held nodes mean at least n buckets
    const std::size_t ceiling = std::size_t{1} << bdd_manager::max_cache_bits;
    const std::uint32_t n = static_cast<std::uint32_t>(2 * ceiling);
    bdd_manager mgr(2 * n);
    std::vector<bdd> held;
    held.reserve(2 * n);
    // 2 * ceiling buckets, four times the 2^(max_cache_bits - 1) at which
    // two slots per bucket first reach the ceiling
    for (std::uint32_t v = 0; v < n; ++v) { held.push_back(mgr.var(v)); }
    ASSERT_EQ(mgr.live_node_count(), std::size_t{n} + 1);
    EXPECT_EQ(mgr.stats().cache_entries, ceiling);
    const std::size_t resizes = mgr.stats().cache_resizes;
    EXPECT_GT(resizes, 0u);
    // doubling the table again leaves the cache where it is
    for (std::uint32_t v = n; v < 2 * n; ++v) { held.push_back(mgr.var(v)); }
    ASSERT_EQ(mgr.live_node_count(), 2 * std::size_t{n} + 1);
    EXPECT_EQ(mgr.stats().cache_entries, ceiling);
    EXPECT_EQ(mgr.stats().cache_resizes, resizes);
}

TEST(bdd_memory_geometry, live_node_count_is_a_pure_read) {
    bdd_manager mgr(nvars);
    const std::vector<std::uint32_t> perm = pair_swap(nvars / 2);
    const bdd f = random_function(mgr, 11);
    const bdd renamed = mgr.permute(f, perm);
    const bdd a = random_function(mgr, 12);
    const bdd b = random_function(mgr, 13);
    { const bdd dropped = a & b; } // garbage, but its cache entry stays
    const bdd_stats before = mgr.stats();

    const std::size_t live = mgr.live_node_count();
    EXPECT_EQ(mgr.live_node_count(), live);
    ASSERT_LT(live, mgr.stats().allocated_nodes) << "no garbage to sweep";
    EXPECT_EQ(mgr.stats().live_nodes, live);
    EXPECT_EQ(mgr.stats().gc_runs, before.gc_runs);
    EXPECT_EQ(mgr.stats().cache_entries, before.cache_entries);
    EXPECT_EQ(mgr.stats().gc_threshold, before.gc_threshold);
    EXPECT_NO_THROW(mgr.check_consistency());

    // the dropped result's entry was neither purged nor aged away: the
    // recomputation is one lookup, and it hits
    std::size_t lookups = mgr.stats().cache_lookups;
    std::size_t hits = mgr.stats().cache_hits;
    { const bdd again = a & b; }
    EXPECT_EQ(mgr.stats().cache_lookups, lookups + 1);
    EXPECT_EQ(mgr.stats().cache_hits, hits + 1);
    // the substitution memo survived: the repeated rename rebuilds nothing
    const std::size_t subst = mgr.stats().subst_nodes;
    EXPECT_EQ(mgr.permute(f, perm), renamed);
    EXPECT_EQ(mgr.stats().subst_nodes, subst);

    // a real collection agrees on the count, and it does purge the entry
    mgr.collect_garbage();
    EXPECT_EQ(mgr.stats().live_nodes, live);
    EXPECT_EQ(mgr.stats().gc_runs, before.gc_runs + 1);
    lookups = mgr.stats().cache_lookups;
    { const bdd after_sweep = a & b; }
    EXPECT_GT(mgr.stats().cache_lookups, lookups + 1)
        << "the sweep kept the entry: the read above proved nothing";
}

TEST(bdd_memory_geometry, gc_trigger_tracks_live_nodes) {
    bdd_manager mgr(big_nvars);
    // churn: build and drop garbage until collections happen
    std::size_t rounds = 0;
    while (mgr.stats().gc_runs < 3) {
        ASSERT_LT(rounds, 400u) << "churn never reached the GC floor";
        (void)big_function(mgr, 100 + static_cast<std::uint32_t>(rounds++));
    }
    const auto& stats = mgr.stats();
    // the trigger never drops below the floor, and after a productive
    // collection (all garbage above) it stays proportional to the live set
    // / arena instead of ratcheting monotonically
    EXPECT_GE(stats.gc_threshold, bdd_manager::gc_floor);
    EXPECT_LE(stats.gc_threshold,
              std::max({bdd_manager::gc_floor, 2 * stats.live_nodes,
                        stats.allocated_nodes / 2}) +
                  bdd_manager::gc_floor);
}

// ---------------------------------------------------------------------------
// computed-cache geometry: replacement, aging across GC, op packing, growth
// migration, and check_consistency's cache invariants after each
// ---------------------------------------------------------------------------

TEST(bdd_cache_geometry, replacement_is_deterministic) {
    // identical op sequences against identical geometry must produce
    // identical hit/miss/GC behavior — the age-based replacement policy has
    // no hidden state (no randomness, no clocks).  A 2^8-entry start keeps the
    // early buckets under replacement pressure.
    bdd_manager a(big_nvars, 8u);
    bdd_manager b(big_nvars, 8u);
    const bdd fa = big_function(a, 11);
    const bdd fb = big_function(b, 11);
    EXPECT_EQ(fa.index(), fb.index());
    EXPECT_EQ(a.stats().cache_lookups, b.stats().cache_lookups);
    EXPECT_EQ(a.stats().cache_hits, b.stats().cache_hits);
    EXPECT_EQ(a.stats().gc_runs, b.stats().gc_runs);
    EXPECT_EQ(a.stats().allocated_nodes, b.stats().allocated_nodes);
    EXPECT_EQ(a.stats().cache_resizes, b.stats().cache_resizes);
    ASSERT_GT(a.stats().cache_lookups, a.stats().cache_hits)
        << "workload too small to exercise replacement";
    ASSERT_GT(a.stats().cache_resizes, 0u);
    EXPECT_NO_THROW(a.check_consistency());
    a.collect_garbage();
    EXPECT_NO_THROW(a.check_consistency());
}

TEST(bdd_cache_geometry, entries_age_across_gc_instead_of_dying) {
    bdd_manager mgr(8);
    const bdd f = mgr.var(0);
    const bdd g = mgr.var(1);
    const bdd h1 = f & g; // seeds the and-op cache entry
    // more collections than the 4-bit age can count: the age saturates
    // and must never leak into the packed result bits
    for (int k = 0; k < 20; ++k) { mgr.collect_garbage(); }
    EXPECT_NO_THROW(mgr.check_consistency());
    const std::size_t hits = mgr.stats().cache_hits;
    const bdd h2 = f & g; // every operand is externally held, so the entry
                          // must have survived the sweeps with an older age
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(mgr.stats().cache_hits, hits + 1)
        << "garbage collection dropped a cache entry whose key and result "
           "are all live";
    EXPECT_NO_THROW(mgr.check_consistency());
}

/// Truth table of f over the first nvars variables.
std::vector<bool> truth_table(bdd_manager& mgr, const bdd& f) {
    std::vector<bool> table;
    std::vector<bool> assignment(nvars);
    for (std::uint32_t m = 0; m < (1u << nvars); ++m) {
        for (std::uint32_t v = 0; v < nvars; ++v) {
            assignment[v] = ((m >> v) & 1u) != 0;
        }
        table.push_back(mgr.eval(f, assignment));
    }
    return table;
}

/// One operand pair for every cached op.  The operands are regular,
/// ordered and topped by variable 0, so no core renormalizes them: and and
/// xor both probe key (f,g,0), and ite (with h the cube) and and_exists
/// both probe (f,g,cube) — keys that differ only in the op nibble.
struct op_operands {
    bdd f, g, h, cube;
};

op_operands make_operands(bdd_manager& mgr) {
    bdd f = random_function(mgr, 41) ^ mgr.var(0);
    bdd g = random_function(mgr, 42) ^ mgr.var(0);
    if ((f.index() & 1u) != 0) { f = !f; }
    if ((g.index() & 1u) != 0) { g = !g; }
    if (f.index() > g.index()) { std::swap(f, g); }
    const bdd cube = mgr.cube({1, 3, 5});
    return {f, g, cube, cube};
}

/// Cached op k (bdd_op_name order) on the operands.
bdd run_cached_op(bdd_manager& mgr, const op_operands& o, std::size_t k) {
    switch (k) {
        case 0: return mgr.apply_and(o.f, o.g);
        case 1: return mgr.apply_xor(o.f, o.g);
        case 2: return mgr.ite(o.f, o.g, o.h);
        case 3: return mgr.exists(o.f, o.cube);
        case 4: return mgr.and_exists(o.f, o.g, o.cube);
        default: return mgr.support_cube(o.f);
    }
}

TEST(bdd_cache_geometry, packed_op_nibble_keeps_ops_apart) {
    bdd_manager mgr(nvars);
    const op_operands operands = make_operands(mgr);
    ASSERT_NE(operands.f.index(), operands.g.index());
    std::vector<bdd> first;
    for (std::size_t k = 0; k < bdd_num_ops; ++k) {
        first.push_back(run_cached_op(mgr, operands, k));
    }
    const bdd_stats before = mgr.stats();
    for (std::size_t k = 0; k < bdd_num_ops; ++k) {
        EXPECT_EQ(run_cached_op(mgr, operands, k), first[k]) << bdd_op_name(k);
    }
    const bdd_stats& after = mgr.stats();
    // the second round repeats every top-level call, so every probe hits
    EXPECT_EQ(after.cache_lookups - before.cache_lookups,
              after.cache_hits - before.cache_hits);
    for (std::size_t k = 0; k < bdd_num_ops; ++k) {
        EXPECT_EQ(after.op_hits[k] - before.op_hits[k], 1u)
            << bdd_op_name(k) << " did not hit exactly once";
        // a fresh manager running only op k has no other op's entries to
        // alias with
        bdd_manager fresh(nvars);
        const bdd expected = run_cached_op(fresh, make_operands(fresh), k);
        EXPECT_EQ(truth_table(mgr, first[k]), truth_table(fresh, expected))
            << bdd_op_name(k);
    }
    EXPECT_NO_THROW(mgr.check_consistency());
}

TEST(bdd_cache_geometry, growth_migrates_surviving_entries) {
    bdd_manager mgr(6000, 8u);
    const bdd f = mgr.var(0);
    const bdd g = mgr.var(1);
    const bdd h1 = f & g; // the sentinel entry that must survive growth
    // grow the unique table with variable nodes only — no cache traffic, so
    // the sentinel cannot be evicted by replacement, only lost by a
    // clear-on-grow (the regression this test pins against)
    for (std::uint32_t v = 2; v < 6000; ++v) { (void)mgr.var(v); }
    ASSERT_GT(mgr.stats().cache_resizes, 0u)
        << "workload too small to trigger cache growth";
    EXPECT_NO_THROW(mgr.check_consistency());
    const std::size_t hits = mgr.stats().cache_hits;
    const bdd h2 = f & g;
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(mgr.stats().cache_hits, hits + 1)
        << "rehash-migration dropped a surviving cache entry";
}

} // namespace
} // namespace leq
