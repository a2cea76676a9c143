/// \file test_bdd_oracle.cpp
/// \brief Exhaustive truth-table oracle for the complement-edge BDD engine.
///
/// Every BDD operation is cross-checked against independent bit-vector
/// semantics: a function over n <= 12 variables is a 2^n-bit table, each
/// operator a few word-wise instructions.  Random expression DAGs mix
/// and/or/xor/not/ite/exists/relprod (and_exists) and renaming (permute),
/// and after every step the new node must agree with the oracle on all 2^n
/// rows.
///
/// On top of pointwise agreement the suite asserts the complement-edge
/// canonicity contract:
///  * double negation restores the exact handle (`!!f == f` by reference);
///  * De Morgan forms are handle-identical, not merely equivalent;
///  * a regular (even-reference) handle's then-cofactor is regular — the
///    public-API shadow of the "stored then-edges carry no complement bit"
///    invariant — checked recursively over the whole reachable DAG;
///  * f and !f have the same dag_size (they share every node);
///  * check_consistency() validates the unique table (no duplicate keys, no
///    complemented then-edge, i.e. no function present in both phases).
///
/// The cofactor-class split (bdd_manager::cofactor_classes) is checked
/// against a reference kept here: the straightforward handle-level walk with
/// one ITE rebuild per leaf, which the manager's split replaced.  dag_size,
/// which counts on manager-owned marks, is checked the same way against a
/// walk with a fresh hash set per call.

#include "bdd/bdd.hpp"
#include "bdd_invariants.hpp"
#include "gen/scenario.hpp" // test_seed

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace {

using leq::bdd;
using leq::bdd_manager;

// ---------------------------------------------------------------------------
// bit-vector truth tables (the oracle)
// ---------------------------------------------------------------------------

using words = std::vector<std::uint64_t>;

std::size_t tt_rows(std::uint32_t nvars) { return std::size_t{1} << nvars; }

std::size_t tt_words(std::uint32_t nvars) {
    return nvars >= 6 ? (std::size_t{1} << (nvars - 6)) : 1;
}

std::uint64_t tt_tail_mask(std::uint32_t nvars) {
    return nvars >= 6 ? ~0ull : ((1ull << (1u << nvars)) - 1);
}

bool tt_bit(const words& t, std::size_t row) {
    return ((t[row >> 6] >> (row & 63)) & 1ull) != 0;
}

void tt_assign(words& t, std::size_t row, bool value) {
    if (value) {
        t[row >> 6] |= 1ull << (row & 63);
    } else {
        t[row >> 6] &= ~(1ull << (row & 63));
    }
}

words tt_const(std::uint32_t nvars, bool value) {
    words t(tt_words(nvars), value ? ~0ull : 0ull);
    if (value) { t.back() &= tt_tail_mask(nvars); }
    return t;
}

words tt_var(std::uint32_t nvars, std::uint32_t v) {
    words t = tt_const(nvars, false);
    for (std::size_t r = 0; r < tt_rows(nvars); ++r) {
        tt_assign(t, r, ((r >> v) & 1) != 0);
    }
    return t;
}

words tt_not(const words& a, std::uint32_t nvars) {
    words t(a.size());
    for (std::size_t k = 0; k < a.size(); ++k) { t[k] = ~a[k]; }
    t.back() &= tt_tail_mask(nvars);
    return t;
}

words tt_bin(const words& a, const words& b, int op) {
    words t(a.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        t[k] = op == 0 ? (a[k] & b[k]) : op == 1 ? (a[k] | b[k])
                                                 : (a[k] ^ b[k]);
    }
    return t;
}

words tt_ite(const words& f, const words& g, const words& h,
             std::uint32_t nvars) {
    words t(f.size());
    for (std::size_t k = 0; k < f.size(); ++k) {
        t[k] = (f[k] & g[k]) | (~f[k] & h[k]);
    }
    t.back() &= tt_tail_mask(nvars);
    return t;
}

/// Smooth (existential quantification) over one variable.
words tt_quant1(const words& a, std::uint32_t nvars, std::uint32_t v) {
    words t = a;
    for (std::size_t r = 0; r < tt_rows(nvars); ++r) {
        const bool b0 = tt_bit(a, r & ~(std::size_t{1} << v));
        const bool b1 = tt_bit(a, r | (std::size_t{1} << v));
        tt_assign(t, r, b0 || b1);
    }
    return t;
}

words tt_quant(const words& a, std::uint32_t nvars,
               const std::vector<std::uint32_t>& vars) {
    words t = a;
    for (const std::uint32_t v : vars) { t = tt_quant1(t, nvars, v); }
    return t;
}

/// Rename variable v to perm[v] in f: result(x) = f(x[perm[0]], ...).
words tt_permute(const words& f, const std::vector<std::uint32_t>& perm,
                 std::uint32_t nvars) {
    words t = tt_const(nvars, false);
    for (std::size_t r = 0; r < tt_rows(nvars); ++r) {
        std::size_t rr = 0;
        for (std::uint32_t v = 0; v < nvars; ++v) {
            if ((r >> perm[v]) & 1) { rr |= std::size_t{1} << v; }
        }
        tt_assign(t, r, tt_bit(f, rr));
    }
    return t;
}

std::size_t tt_count(const words& a) {
    std::size_t n = 0;
    for (const std::uint64_t w : a) {
        n += static_cast<std::size_t>(__builtin_popcountll(w));
    }
    return n;
}

// ---------------------------------------------------------------------------
// agreement + canonicity checks
// ---------------------------------------------------------------------------

/// Pointwise agreement between a BDD and its oracle table.
void expect_matches(bdd_manager& mgr, const bdd& f, const words& t,
                    std::uint32_t nvars, const char* what) {
    std::vector<bool> a(nvars);
    for (std::size_t r = 0; r < tt_rows(nvars); ++r) {
        for (std::uint32_t v = 0; v < nvars; ++v) { a[v] = ((r >> v) & 1) != 0; }
        ASSERT_EQ(mgr.eval(f, a), tt_bit(t, r))
            << what << ": disagrees with the oracle at row " << r;
    }
}

void expect_canonicity(bdd_manager& mgr, const bdd& f, const bdd& g,
                       std::uint32_t nvars) {
    // double negation restores the handle exactly
    ASSERT_EQ((!(!f)).index(), f.index());
    // De Morgan and xor-complement forms are handle-identical
    ASSERT_EQ((!(f & g)).index(), ((!f) | (!g)).index());
    ASSERT_EQ((!(f | g)).index(), ((!f) & (!g)).index());
    ASSERT_EQ((f ^ mgr.one()).index(), (!f).index());
    // f and !f share every node
    ASSERT_EQ(mgr.dag_size(f), mgr.dag_size(!f));
    // complementary sat counts
    ASSERT_DOUBLE_EQ(mgr.sat_count(f, nvars) + mgr.sat_count(!f, nvars),
                     std::pow(2.0, nvars));
    expect_regular_then_edges(f);
}

// ---------------------------------------------------------------------------
// random expression DAGs
// ---------------------------------------------------------------------------

struct oracle_params {
    unsigned seed;
    std::uint32_t min_vars;
    std::uint32_t max_vars;
    std::size_t ops;
};

void run_expression_dag(const oracle_params& p) {
    SCOPED_TRACE("seed " + std::to_string(p.seed) +
                 " (replay: LEQ_TEST_SEED=" + std::to_string(p.seed) + ")");
    std::mt19937 rng(p.seed * 2654435761u + 13);
    std::uniform_int_distribution<std::uint32_t> pick_nvars(p.min_vars,
                                                            p.max_vars);
    const std::uint32_t nvars = pick_nvars(rng);
    bdd_manager mgr(nvars);

    // seed pool: literals of both phases and the constants
    std::vector<std::pair<bdd, words>> pool;
    pool.emplace_back(mgr.zero(), tt_const(nvars, false));
    pool.emplace_back(mgr.one(), tt_const(nvars, true));
    for (std::uint32_t v = 0; v < nvars; ++v) {
        pool.emplace_back(mgr.var(v), tt_var(nvars, v));
        pool.emplace_back(mgr.nvar(v),
                          tt_not(tt_var(nvars, v), nvars));
    }

    const auto pick = [&]() -> const std::pair<bdd, words>& {
        std::uniform_int_distribution<std::size_t> d(0, pool.size() - 1);
        return pool[d(rng)];
    };
    const auto pick_vars = [&](std::size_t count) {
        std::vector<std::uint32_t> vars(nvars);
        std::iota(vars.begin(), vars.end(), 0u);
        std::shuffle(vars.begin(), vars.end(), rng);
        vars.resize(std::min(count, vars.size()));
        return vars;
    };

    for (std::size_t step = 0; step < p.ops; ++step) {
        std::uniform_int_distribution<int> pick_op(0, 7);
        const int op = pick_op(rng);
        bdd f;
        words t;
        switch (op) {
        case 0:
        case 1:
        case 2: { // and / or / xor
            const auto& [af, at] = pick();
            const auto& [bf, bt] = pick();
            f = op == 0 ? (af & bf) : op == 1 ? (af | bf) : (af ^ bf);
            t = tt_bin(at, bt, op);
            break;
        }
        case 3: { // not
            const auto& [af, at] = pick();
            f = !af;
            t = tt_not(at, nvars);
            break;
        }
        case 4: { // ite
            const auto& [af, at] = pick();
            const auto& [bf, bt] = pick();
            const auto& [cf, ct] = pick();
            f = mgr.ite(af, bf, cf);
            t = tt_ite(at, bt, ct, nvars);
            break;
        }
        case 5: { // exists
            const auto& [af, at] = pick();
            const auto vars = pick_vars(1 + rng() % 3);
            f = mgr.exists(af, mgr.cube(vars));
            t = tt_quant(at, nvars, vars);
            break;
        }
        case 6: { // relational product
            const auto& [af, at] = pick();
            const auto& [bf, bt] = pick();
            const auto vars = pick_vars(1 + rng() % 3);
            f = mgr.and_exists(af, bf, mgr.cube(vars));
            t = tt_quant(tt_bin(at, bt, 0), nvars, vars);
            // the fused form must equal the two-step form exactly
            ASSERT_EQ(f.index(),
                      mgr.exists(af & bf, mgr.cube(vars)).index());
            break;
        }
        default: { // permute
            const auto& [af, at] = pick();
            std::vector<std::uint32_t> perm(nvars);
            std::iota(perm.begin(), perm.end(), 0u);
            bdd from = af;
            words from_t = at;
            switch (rng() % 3) {
            case 0: { // swap two variables
                const std::uint32_t a = rng() % nvars;
                const std::uint32_t b = rng() % nvars;
                std::swap(perm[a], perm[b]);
                break;
            }
            case 1: { // the solver's ns->cs rename: read the variables as
                      // interleaved (cs, ns) pairs, quantify cs away and
                      // swap each pair — order-preserving under the
                      // creation order, so every node rebuilds through mk
                std::vector<std::uint32_t> cs;
                for (std::uint32_t v = 0; v < nvars; v += 2) { cs.push_back(v); }
                from = mgr.exists(af, mgr.cube(cs));
                from_t = tt_quant(at, nvars, cs);
                for (std::uint32_t v = 0; v + 1 < nvars; v += 2) {
                    std::swap(perm[v], perm[v + 1]);
                }
                break;
            }
            default: // a random full permutation: mostly the ITE rebuild
                std::shuffle(perm.begin(), perm.end(), rng);
                break;
            }
            f = mgr.permute(from, perm);
            t = tt_permute(from_t, perm, nvars);
            break;
        }
        }
        ASSERT_NO_FATAL_FAILURE(
            expect_matches(mgr, f, t, nvars, "dag step"));
        if (op == 9) { mgr.check_consistency(); }
        // sat_count against popcount on every step
        ASSERT_DOUBLE_EQ(mgr.sat_count(f, nvars),
                         static_cast<double>(tt_count(t)));
        pool.emplace_back(std::move(f), std::move(t));
    }

    // canonicity sweep over a handful of random pool members
    for (int k = 0; k < 6; ++k) {
        const bdd f = pick().first;
        const bdd g = pick().first;
        ASSERT_NO_FATAL_FAILURE(expect_canonicity(mgr, f, g, nvars));
    }
    mgr.check_consistency();
    mgr.collect_garbage();
    mgr.check_consistency();
}

class oracle_small : public ::testing::TestWithParam<unsigned> {};

/// 160 DAGs over 4..8 variables, 24 operations each.
TEST_P(oracle_small, random_dag_agrees_with_truth_tables) {
    run_expression_dag({leq::test_seed(GetParam()), 4, 8, 24});
}

INSTANTIATE_TEST_SUITE_P(seeds, oracle_small, ::testing::Range(0u, 160u));

class oracle_wide : public ::testing::TestWithParam<unsigned> {};

/// 40 DAGs over 9..12 variables, 12 operations each (4096-row tables).
TEST_P(oracle_wide, random_dag_agrees_with_truth_tables) {
    run_expression_dag({leq::test_seed(GetParam()), 9, 12, 12});
}

INSTANTIATE_TEST_SUITE_P(seeds, oracle_wide, ::testing::Range(1000u, 1040u));

// ---------------------------------------------------------------------------
// directed canonicity cases
// ---------------------------------------------------------------------------

TEST(oracle_canonicity, constants_and_literals) {
    bdd_manager m(6);
    EXPECT_EQ((!m.zero()).index(), m.one().index());
    EXPECT_EQ((!m.one()).index(), m.zero().index());
    for (std::uint32_t v = 0; v < 6; ++v) {
        EXPECT_EQ((!m.var(v)).index(), m.nvar(v).index());
        EXPECT_EQ((!m.nvar(v)).index(), m.var(v).index());
        // a literal and its negation are the same node, opposite phase
        EXPECT_EQ(m.var(v).index() ^ 1u, m.nvar(v).index());
    }
    m.check_consistency();
}

TEST(oracle_canonicity, negation_is_node_free) {
    bdd_manager m(16);
    bdd f = m.one();
    for (std::uint32_t v = 0; v + 1 < 16; v += 2) {
        f &= (m.var(v) | m.var(v + 1));
    }
    const std::size_t before_nodes = m.live_node_count();
    const auto before_lookups = m.stats().cache_lookups;
    std::vector<bdd> negs;
    for (int k = 0; k < 1000; ++k) { negs.push_back(!f); }
    // O(1) contract: no new nodes, no cache traffic
    EXPECT_EQ(m.live_node_count(), before_nodes);
    EXPECT_EQ(m.stats().cache_lookups, before_lookups);
    EXPECT_EQ(negs.front(), negs.back());
}

TEST(oracle_canonicity, unique_table_survives_rehash_growth) {
    // drive the arena through several unique-table rehashes (growth doublings
    // at 4k/8k/16k/... nodes) while holding everything live, and verify after
    // each one that every reachable node is still findable through the table
    // — a chain-corrupting rehash would mint duplicate nodes and break
    // reference canonicity
    // distinct literal cubes build through mk() alone (no computed-cache
    // short-circuit), so a table-orphaned node would deterministically
    // surface as a duplicate — and a different handle — on re-derivation
    bdd_manager m(26);
    const auto build_cube = [&m](std::uint32_t seed) {
        std::mt19937 rng(seed);
        std::vector<std::uint32_t> vars(26);
        std::iota(vars.begin(), vars.end(), 0u);
        std::shuffle(vars.begin(), vars.end(), rng);
        bdd c = m.one();
        for (std::size_t k = 0; k < 8; ++k) {
            c &= m.literal(vars[k], (rng() & 1) != 0);
        }
        return c;
    };
    std::vector<bdd> keep;
    for (std::uint32_t s = 0; s < 3000; ++s) {
        keep.push_back(build_cube(s));
        if (s % 512 == 511) { m.check_consistency(); }
    }
    m.check_consistency();
    for (std::uint32_t s = 0; s < 3000; s += 7) {
        ASSERT_EQ(build_cube(s), keep[s]) << "cube " << s
            << " re-derived to a different handle: canonicity broken";
    }
    m.collect_garbage();
    m.check_consistency();
}

TEST(oracle_canonicity, shared_phases_across_operations) {
    bdd_manager m(8);
    const bdd f = (m.var(0) & m.var(1)) | (m.var(2) ^ m.var(3));
    const bdd g = (m.var(4) | m.var(5)) & (m.var(6) ^ !m.var(7));
    // the same function reached through complementary routes
    EXPECT_EQ(m.ite(f, g, m.zero()).index(), (f & g).index());
    EXPECT_EQ(m.ite(f, m.one(), g).index(), (f | g).index());
    EXPECT_EQ(m.ite(f, !g, g).index(), (f ^ g).index());
    EXPECT_EQ(m.ite(!f, g, !g).index(), (f ^ g).index());
    EXPECT_EQ(f.implies(g).index(), (!(f & !g)).index());
    m.check_consistency();
}

// ---------------------------------------------------------------------------
// cofactor classes over a variable-id boundary
// ---------------------------------------------------------------------------

/// The reference split: collect the distinct non-FALSE leaves (the first
/// nodes at or below the boundary, by tagged reference) in a depth-first,
/// else-first walk, then rebuild each guard with ITEs, that leaf read as
/// TRUE and every other leaf as FALSE.
std::vector<leq::bdd_cofactor_class> reference_split(bdd_manager& mgr,
                                                     const bdd& p,
                                                     std::uint32_t boundary) {
    if (p.is_zero()) { return {}; }
    const auto is_leaf = [&](const bdd& n) {
        return n.is_const() || n.top_var() >= boundary;
    };
    std::vector<bdd> leaves;
    std::unordered_map<std::uint32_t, char> visited;
    const std::function<void(const bdd&)> collect = [&](const bdd& n) {
        if (!visited.emplace(n.index(), 1).second) { return; }
        if (is_leaf(n)) {
            if (!n.is_zero()) { leaves.push_back(n); }
            return;
        }
        collect(n.low());
        collect(n.high());
    };
    collect(p);
    std::vector<leq::bdd_cofactor_class> classes;
    for (const bdd& leaf : leaves) {
        std::unordered_map<std::uint32_t, bdd> memo;
        const std::function<bdd(const bdd&)> rebuild =
            [&](const bdd& n) -> bdd {
            if (is_leaf(n)) { return n == leaf ? mgr.one() : mgr.zero(); }
            const auto it = memo.find(n.index());
            if (it != memo.end()) { return it->second; }
            const bdd r = mgr.ite(mgr.var(n.top_var()), rebuild(n.high()),
                                  rebuild(n.low()));
            memo.emplace(n.index(), r);
            return r;
        };
        classes.push_back({rebuild(p), leaf});
    }
    return classes;
}

/// The split of f must equal the reference class by class, and its guards
/// must partition f: pairwise disjoint, over the ids below the boundary,
/// with OR(guard & leaf) == f.
void expect_split_matches_reference(bdd_manager& mgr, const bdd& f,
                                    std::uint32_t boundary) {
    const std::vector<leq::bdd_cofactor_class> got =
        mgr.cofactor_classes(f, boundary);
    const std::vector<leq::bdd_cofactor_class> want =
        reference_split(mgr, f, boundary);
    ASSERT_EQ(got.size(), want.size());
    bdd sum = mgr.zero();
    for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].guard, want[k].guard) << "class " << k;
        ASSERT_EQ(got[k].leaf, want[k].leaf) << "class " << k;
        ASSERT_FALSE(got[k].leaf.is_zero()) << "class " << k;
        ASSERT_FALSE(got[k].guard.is_zero()) << "class " << k;
        for (const std::uint32_t v : mgr.support(got[k].guard)) {
            ASSERT_LT(v, boundary) << "class " << k;
        }
        for (std::size_t j = 0; j < k; ++j) {
            ASSERT_TRUE((got[j].guard & got[k].guard).is_zero())
                << "classes " << j << " and " << k << " overlap";
        }
        sum |= got[k].guard & got[k].leaf;
    }
    ASSERT_EQ(sum, f);
}

/// A random pool of functions over `nvars` variables: the literals, then
/// `steps` random and/or/xor/ite combinations of earlier entries.
std::vector<bdd> random_pool(bdd_manager& mgr, std::uint32_t nvars, int steps,
                             std::mt19937& rng) {
    std::vector<bdd> pool;
    for (std::uint32_t v = 0; v < nvars; ++v) {
        pool.push_back(mgr.var(v));
        pool.push_back(mgr.nvar(v));
    }
    const auto pick = [&]() { return pool[rng() % pool.size()]; };
    for (int step = 0; step < steps; ++step) {
        const bdd a = pick();
        const bdd b = pick();
        switch (rng() % 4) {
        case 0: pool.push_back(a & b); break;
        case 1: pool.push_back(a | b); break;
        case 2: pool.push_back(a ^ b); break;
        default: pool.push_back(mgr.ite(pick(), a, b)); break;
        }
    }
    return pool;
}

class oracle_split : public ::testing::TestWithParam<unsigned> {};

/// 200 random functions over 2..12 variables, split at a random boundary.
TEST_P(oracle_split, random_dag_matches_reference) {
    const unsigned seed = leq::test_seed(GetParam());
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 " (replay: LEQ_TEST_SEED=" + std::to_string(seed) + ")");
    std::mt19937 rng(seed * 2654435761u + 7);
    const std::uint32_t nvars = 2 + rng() % 11;
    bdd_manager mgr(nvars);
    const std::vector<bdd> pool = random_pool(mgr, nvars, 40, rng);
    for (int k = 0; k < 6; ++k) {
        const bdd f = pool[pool.size() - 1 - rng() % 20];
        const std::uint32_t boundary = rng() % (nvars + 1);
        ASSERT_NO_FATAL_FAILURE(expect_split_matches_reference(mgr, f, boundary))
            << "boundary " << boundary;
        ASSERT_NO_FATAL_FAILURE(
            expect_split_matches_reference(mgr, !f, boundary))
            << "boundary " << boundary << ", complement";
    }
    mgr.check_consistency();
}

INSTANTIATE_TEST_SUITE_P(seeds, oracle_split, ::testing::Range(0u, 200u));

TEST(oracle_split_cases, false_has_no_classes) {
    bdd_manager m(4);
    EXPECT_TRUE(m.cofactor_classes(m.zero(), 2).empty());
    EXPECT_TRUE(m.cofactor_classes(m.zero(), 0).empty());
}

TEST(oracle_split_cases, true_is_one_class) {
    bdd_manager m(4);
    for (const std::uint32_t boundary : {0u, 2u, 4u}) {
        const auto classes = m.cofactor_classes(m.one(), boundary);
        ASSERT_EQ(classes.size(), 1u);
        EXPECT_TRUE(classes[0].guard.is_one());
        EXPECT_TRUE(classes[0].leaf.is_one());
    }
}

TEST(oracle_split_cases, function_below_the_boundary_is_its_own_leaf) {
    bdd_manager m(4);
    const bdd g = m.var(2) ^ m.var(3);
    const auto classes = m.cofactor_classes(g, 2);
    ASSERT_EQ(classes.size(), 1u);
    EXPECT_TRUE(classes[0].guard.is_one());
    EXPECT_EQ(classes[0].leaf, g);
}

TEST(oracle_split_cases, region_node_reached_in_both_phases) {
    // x0, x1 above the boundary; a and b below it.  n = ite(x1, a, b) is
    // reached as n under x0 and as !n under !x0: one node, two phases, four
    // leaves
    bdd_manager m(4);
    const bdd a = m.var(2) & m.var(3);
    const bdd b = m.var(2) | m.var(3);
    const bdd n = m.ite(m.var(1), a, b);
    const bdd f = m.ite(m.var(0), n, !n);
    ASSERT_EQ(f.low().index(), f.high().index() ^ 1u)
        << "the region node must be shared between the phases";
    const auto classes = m.cofactor_classes(f, 2);
    ASSERT_EQ(classes.size(), 4u);
    // else-first walk: !x0 (!n: !b, then !a), then x0 (n: b, then a)
    const bdd x0 = m.var(0);
    const bdd x1 = m.var(1);
    EXPECT_EQ(classes[0].leaf, !b);
    EXPECT_EQ(classes[0].guard, (!x0) & (!x1));
    EXPECT_EQ(classes[1].leaf, !a);
    EXPECT_EQ(classes[1].guard, (!x0) & x1);
    EXPECT_EQ(classes[2].leaf, b);
    EXPECT_EQ(classes[2].guard, x0 & !x1);
    EXPECT_EQ(classes[3].leaf, a);
    EXPECT_EQ(classes[3].guard, x0 & x1);
    ASSERT_NO_FATAL_FAILURE(expect_split_matches_reference(m, f, 2));
}

TEST(oracle_split_cases, leaf_in_both_phases_is_two_classes) {
    bdd_manager m(3);
    const bdd g = m.var(1) ^ m.var(2);
    const bdd f = m.ite(m.var(0), g, !g);
    const auto classes = m.cofactor_classes(f, 1);
    ASSERT_EQ(classes.size(), 2u);
    EXPECT_EQ(classes[0].leaf, !g);
    EXPECT_EQ(classes[0].guard, m.nvar(0));
    EXPECT_EQ(classes[1].leaf, g);
    EXPECT_EQ(classes[1].guard, m.var(0));
    ASSERT_NO_FATAL_FAILURE(expect_split_matches_reference(m, f, 1));
}

TEST(oracle_split_cases, large_region_grows_the_numbering_table) {
    // a parity chain over 16 region variables has 2 nodes per level, and
    // 64 leaves below: far past the numbering table's first size
    bdd_manager m(22);
    bdd region = m.zero();
    for (std::uint32_t v = 0; v < 16; ++v) { region = region ^ m.var(v); }
    bdd f = m.zero();
    for (std::uint32_t k = 0; k < 64; ++k) {
        bdd leaf = m.one();
        for (std::uint32_t b = 0; b < 6; ++b) {
            leaf &= m.literal(16 + b, ((k >> b) & 1u) != 0);
        }
        bdd guard = (k % 2 == 0) ? region : !region;
        for (std::uint32_t v = 0; v < 5; ++v) {
            guard &= m.literal(v, ((k >> (v + 1)) & 1u) != 0);
        }
        f |= guard & (leaf | m.var(21));
    }
    ASSERT_NO_FATAL_FAILURE(expect_split_matches_reference(m, f, 16));
    // a second split reuses the scratch the first one left
    ASSERT_NO_FATAL_FAILURE(expect_split_matches_reference(m, !f, 16));
    ASSERT_NO_FATAL_FAILURE(expect_split_matches_reference(m, f, 8));
    m.check_consistency();
}

// ---------------------------------------------------------------------------
// dag_size against a reference walk
// ---------------------------------------------------------------------------

/// The reference count: the nodes reachable from f, collected in a fresh
/// hash set of node indices (a tagged reference without its complement
/// bit), the terminal included.
std::size_t reference_dag_size(const bdd& f) {
    std::unordered_set<std::uint32_t> seen;
    std::vector<bdd> stack{f};
    while (!stack.empty()) {
        const bdd n = stack.back();
        stack.pop_back();
        if (!seen.insert(n.index() >> 1).second || n.is_const()) { continue; }
        stack.push_back(n.low());
        stack.push_back(n.high());
    }
    return seen.size();
}

/// dag_size of f and of !f must equal the reference, twice in a row (the
/// second call runs on the marks the first one left).
void expect_dag_size_matches_reference(bdd_manager& mgr, const bdd& f) {
    const std::size_t want = reference_dag_size(f);
    ASSERT_EQ(mgr.dag_size(f), want);
    ASSERT_EQ(mgr.dag_size(f), want) << "second call";
    ASSERT_EQ(mgr.dag_size(!f), want) << "complement";
}

class oracle_dag_size : public ::testing::TestWithParam<unsigned> {};

/// 60 random pools over 2..14 variables: every sampled function, before
/// and after a collection that frees most of the arena and a rebuild that
/// reuses the freed node indices.
TEST_P(oracle_dag_size, random_dag_matches_reference) {
    const unsigned seed = leq::test_seed(GetParam());
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 " (replay: LEQ_TEST_SEED=" + std::to_string(seed) + ")");
    std::mt19937 rng(seed * 2654435761u + 11);
    const std::uint32_t nvars = 2 + rng() % 13;
    bdd_manager mgr(nvars);
    std::vector<bdd> pool = random_pool(mgr, nvars, 60, rng);
    for (int k = 0; k < 12; ++k) {
        ASSERT_NO_FATAL_FAILURE(expect_dag_size_matches_reference(
            mgr, pool[rng() % pool.size()]));
    }
    const bdd kept = pool.back();
    pool.clear();
    mgr.collect_garbage();
    ASSERT_NO_FATAL_FAILURE(expect_dag_size_matches_reference(mgr, kept));
    pool = random_pool(mgr, nvars, 60, rng);
    for (int k = 0; k < 12; ++k) {
        ASSERT_NO_FATAL_FAILURE(expect_dag_size_matches_reference(
            mgr, pool[rng() % pool.size()]));
    }
    mgr.check_consistency();
}

INSTANTIATE_TEST_SUITE_P(seeds, oracle_dag_size, ::testing::Range(0u, 60u));

TEST(oracle_dag_size_cases, terminals_are_one_node) {
    bdd_manager m(3);
    EXPECT_EQ(m.dag_size(m.one()), 1u);
    EXPECT_EQ(m.dag_size(m.zero()), 1u);
    // again, after a walk that marked real nodes
    EXPECT_EQ(m.dag_size(m.var(0) & m.var(2)), 3u);
    EXPECT_EQ(m.dag_size(m.zero()), 1u);
    EXPECT_EQ(m.dag_size(m.one()), 1u);
}

TEST(oracle_dag_size_cases, parity_chain_and_arena_growth) {
    // parity over n variables: one node per level with complement edges
    bdd_manager m(24);
    bdd parity = m.zero();
    for (std::uint32_t v = 0; v < 24; ++v) { parity = parity ^ m.var(v); }
    ASSERT_EQ(m.dag_size(parity), 25u);
    const std::size_t arena_before = m.stats().allocated_nodes;
    // a multiplexer tree over 2^10 data leaves grows the arena well past
    // the size of the marks the walks above left
    bdd mux = m.zero();
    for (std::uint32_t k = 0; k < 1024; ++k) {
        bdd select = m.one();
        for (std::uint32_t b = 0; b < 10; ++b) {
            select &= m.literal(b, ((k >> b) & 1u) != 0);
        }
        bdd data = m.one();
        for (std::uint32_t b = 0; b < 14; ++b) {
            if ((((k * 2654435761u) >> (b + 7)) & 1u) != 0) {
                data &= m.literal(10 + b, ((k >> (b % 10)) & 1u) != 0);
            }
        }
        mux |= select & data;
    }
    ASSERT_GT(m.stats().allocated_nodes, 4 * arena_before);
    ASSERT_NO_FATAL_FAILURE(expect_dag_size_matches_reference(m, mux));
    EXPECT_EQ(m.dag_size(parity), 25u);
    m.collect_garbage();
    ASSERT_NO_FATAL_FAILURE(expect_dag_size_matches_reference(m, mux));
    EXPECT_EQ(m.dag_size(parity), 25u);
}

} // namespace
