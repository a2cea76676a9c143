/// \file test_relation.cpp
/// \brief Oracle suite for the shared transition-relation subsystem
/// (src/rel/): images over random partitions must equal the naive
/// monolithic conjunction across the full {cluster_limit x
/// early-quantification} option matrix, also when private variables are
/// folded out of their clusters ahead of the chain, and clustering must
/// respect its node bound.  The relation layer has no deadline of its own: the manager's op
/// deadline must interrupt construction and image chains, and a solve's
/// deadline must end both flows in `timeout` and disarm on the way out.

#include "eq/solver.hpp"
#include "gen/scenario.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"
#include "net/netbdd.hpp"
#include "rel/relation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <vector>

namespace {

using namespace leq;

struct circuit_vars {
    std::vector<std::uint32_t> in, cs, ns;
};

std::pair<net_bdds, circuit_vars> setup(bdd_manager& mgr, const network& net) {
    circuit_vars vars;
    for (std::size_t k = 0; k < net.num_inputs(); ++k) {
        vars.in.push_back(mgr.new_var());
    }
    for (std::size_t k = 0; k < net.num_latches(); ++k) {
        vars.cs.push_back(mgr.new_var());
        vars.ns.push_back(mgr.new_var());
    }
    net_bdds fns = build_net_bdds(mgr, net, vars.in, vars.cs);
    return {std::move(fns), std::move(vars)};
}

/// Relation parts ns_k == T_k for a compiled network.
std::vector<bdd> next_state_parts(bdd_manager& mgr, const net_bdds& fns,
                                  const circuit_vars& vars) {
    std::vector<bdd> parts;
    for (std::size_t k = 0; k < fns.next_state.size(); ++k) {
        parts.push_back(mgr.var(vars.ns[k]).iff(fns.next_state[k]));
    }
    return parts;
}

/// The next-state relation of a compiled network: parts ns_k == T_k, with
/// the inputs and current-state variables quantified (images over ns).
transition_relation next_state_relation(bdd_manager& mgr, const net_bdds& fns,
                                        const circuit_vars& vars,
                                        const image_options& options = {}) {
    std::vector<std::uint32_t> quantify = vars.in;
    quantify.insert(quantify.end(), vars.cs.begin(), vars.cs.end());
    return transition_relation(mgr, next_state_parts(mgr, fns, vars),
                               std::move(quantify), options);
}

/// The full option matrix of the relation layer.
std::vector<image_options> option_matrix() {
    std::vector<image_options> matrix;
    for (const std::size_t limit :
         {std::size_t{0}, std::size_t{60}, std::size_t{2500}}) {
        for (const bool early : {true, false}) {
            image_options o;
            o.cluster_limit = limit;
            o.early_quantification = early;
            matrix.push_back(o);
        }
    }
    return matrix;
}

network machine_for(int id) { return make_menu_circuit(id, /*salt=*/4); }

/// A few interesting state sets over the cs variables: the initial state,
/// a random union of states, and a random function of the cs variables.
std::vector<bdd> sample_state_sets(bdd_manager& mgr, const network& net,
                                   const circuit_vars& vars,
                                   std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::vector<bdd> sets;
    sets.push_back(state_cube(mgr, vars.cs, net.initial_state()));
    bdd some = sets.back();
    for (int k = 0; k < 3; ++k) {
        std::vector<bool> s(vars.cs.size());
        for (std::size_t b = 0; b < s.size(); ++b) { s[b] = (rng() & 1) != 0; }
        some |= state_cube(mgr, vars.cs, s);
    }
    sets.push_back(some);
    bdd fn = mgr.zero();
    for (std::size_t k = 0; k < vars.cs.size(); ++k) {
        const bdd lit = mgr.literal(vars.cs[k], (rng() & 1) != 0);
        fn = (rng() & 1) != 0 ? (fn | lit) : (fn ^ lit);
    }
    sets.push_back(fn);
    return sets;
}

class relation_oracle : public ::testing::TestWithParam<int> {};

/// A twin of the first part over a fresh next-state variable: with every
/// part its own cluster (limit 0), whichever twin is scheduled first
/// retires nothing, so its chain step is a plain conjunction.
void add_twin_part(bdd_manager& mgr, const net_bdds& fns,
                   std::vector<bdd>& parts) {
    parts.push_back(mgr.var(mgr.new_var()).iff(fns.next_state[0]));
}

/// Assert that every part is its own cluster, so the twins of
/// add_twin_part stand apart and a step before the last retires nothing.
void expect_empty_step_before_last(const transition_relation& rel,
                                   const std::vector<bdd>& parts) {
    ASSERT_GE(parts.size(), 2u);
    EXPECT_EQ(rel.num_clusters(), parts.size())
        << "a twin part was merged into another cluster";
}

TEST_P(relation_oracle, image_matches_naive_monolithic_conjunction) {
    const network net = machine_for(GetParam());
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    std::vector<bdd> parts = next_state_parts(mgr, fns, vars);
    add_twin_part(mgr, fns, parts);
    std::vector<std::uint32_t> quantify = vars.in;
    quantify.insert(quantify.end(), vars.cs.begin(), vars.cs.end());

    // the oracle: conjoin everything, then quantify
    bdd product = mgr.one();
    for (const bdd& p : parts) { product &= p; }
    const bdd qcube = mgr.cube(quantify);

    const std::vector<bdd> from_sets =
        sample_state_sets(mgr, net, vars, 1000u + GetParam());
    for (const image_options& options : option_matrix()) {
        const transition_relation rel(mgr, parts, quantify, options);
        if (options.cluster_limit == 0 && options.early_quantification) {
            SCOPED_TRACE("machine " + std::to_string(GetParam()));
            expect_empty_step_before_last(rel, parts);
        }
        for (const bdd& from : from_sets) {
            const bdd reference = mgr.exists(product & from, qcube);
            EXPECT_EQ(rel.image(from), reference)
                << "machine " << GetParam() << " limit "
                << options.cluster_limit << " early "
                << options.early_quantification;
        }
    }
}

TEST_P(relation_oracle, constrained_image_fuses_the_extra_conjunct) {
    // image(from, c) conjoins c into `from` in the leading quantification
    // (one binary and-exists, the leading cube possibly TRUE); the result
    // must equal the materialized image(from & c) for any extra conjunct,
    // whatever the schedule shape: a relation with no parts, clusters with
    // an empty leading cube, a leading cube whose variables the constraint
    // reads, and clusters that retire nothing
    const network net = machine_for(GetParam());
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    std::vector<bdd> parts = next_state_parts(mgr, fns, vars);
    add_twin_part(mgr, fns, parts);
    std::vector<std::uint32_t> quantify = vars.in;
    quantify.insert(quantify.end(), vars.cs.begin(), vars.cs.end());
    // quantified variables in no part: they form the leading cube
    const std::uint32_t x0 = mgr.new_var();
    const std::uint32_t x1 = mgr.new_var();
    std::vector<std::uint32_t> with_leading = quantify;
    with_leading.push_back(x0);
    with_leading.push_back(x1);

    const std::vector<bdd> sets =
        sample_state_sets(mgr, net, vars, 3000u + GetParam());
    std::vector<bdd> constraints = sets;
    for (const bdd& s : sets) {
        constraints.push_back(s & (mgr.var(x0) ^ mgr.var(vars.cs[0])));
        constraints.push_back(s | (mgr.var(x1) & !mgr.var(vars.cs.back())));
    }
    const bdd& from = sets[1];
    bdd product = mgr.one();
    for (const bdd& p : parts) { product &= p; }
    for (const std::size_t limit :
         {std::size_t{0}, std::size_t{60}, std::size_t{2500}}) {
        image_options options;
        options.cluster_limit = limit;
        for (const auto* q : {&quantify, &with_leading}) {
            // x0 and x1 occur in no part, so with_leading's leading cube
            // holds both; the naive oracle checks that they are quantified
            const transition_relation rel(mgr, parts, *q, options);
            if (limit == 0) {
                SCOPED_TRACE("machine " + std::to_string(GetParam()));
                expect_empty_step_before_last(rel, parts);
            }
            const bdd qcube = mgr.cube(*q);
            for (const bdd& constraint : constraints) {
                const bdd image = rel.image(from, constraint);
                EXPECT_EQ(image, rel.image(from & constraint))
                    << "machine " << GetParam() << " limit " << limit
                    << " leading " << (q == &with_leading);
                EXPECT_EQ(image,
                          mgr.exists(product & from & constraint, qcube))
                    << "machine " << GetParam() << " limit " << limit
                    << " leading " << (q == &with_leading) << " (oracle)";
            }
        }
    }
    // also through a no-part relation (the X_P walker shape)
    const transition_relation empty(mgr, {}, vars.cs);
    for (const bdd& constraint : constraints) {
        EXPECT_EQ(empty.image(from, constraint),
                  empty.image(from & constraint));
    }
}

INSTANTIATE_TEST_SUITE_P(machines, relation_oracle, ::testing::Range(0, 10));

TEST(relation_fold, window_images_match_the_naive_product) {
    // quantified variables private to one part are folded out of it ahead
    // of the chain when they lie in the window: strictly below the
    // constraint's deepest variable and above `from`'s top.  Levels, top
    // to bottom: a (the (u,v) labels of the verify walks), i (hidden
    // inputs), c (current state), n (free next state).
    bdd_manager mgr;
    const auto fresh = [&](std::size_t n) {
        std::vector<std::uint32_t> vars;
        for (std::size_t k = 0; k < n; ++k) { vars.push_back(mgr.new_var()); }
        return vars;
    };
    const std::vector<std::uint32_t> a = fresh(2), i = fresh(3), c = fresh(3),
                                     n = fresh(2);
    const auto v = [&](std::uint32_t x) { return mgr.var(x); };
    // a[0], a[1], i[0], i[2] and c[2] occur in one part each; i[1], c[0]
    // and c[1] in two; one cluster at the default limit makes every one
    // private
    const std::vector<bdd> parts = {
        v(n[0]).iff((v(c[0]) & v(i[0])) | (v(a[0]) ^ v(i[1]))),
        v(n[1]).iff((v(c[1]) | v(i[2])) & (v(a[1]) | v(c[0]))),
        v(c[1]).implies(v(c[2]) ^ v(i[1])),
    };
    std::vector<std::uint32_t> quantify = a;
    quantify.insert(quantify.end(), i.begin(), i.end());
    quantify.insert(quantify.end(), c.begin(), c.end());
    bdd product = mgr.one();
    for (const bdd& p : parts) { product &= p; }
    const bdd qcube = mgr.cube(quantify);

    const std::vector<bdd> froms = {
        // top below the whole private block
        v(c[0]) ^ v(c[1]),
        v(c[1]) | !v(c[2]),
        // reads one private variable, which must stay in the chain
        v(i[1]) & v(c[0]),
        v(i[2]) ^ v(c[2]),
        v(a[1]) | v(c[1]),
        // constants
        mgr.one(),
        mgr.zero(),
    };
    const std::vector<bdd> constraints = {
        mgr.one(),
        mgr.zero(),
        // deepest variable below a private one that lies above `from`'s
        // top: a verify walk's CSF label
        v(a[0]) ^ v(a[1]),
        !v(a[1]),
        // deepest variable inside the input block
        v(a[0]) & v(i[1]),
        v(c[2]),
    };
    for (const image_options& options : option_matrix()) {
        const transition_relation rel(mgr, parts, quantify, options);
        // twice over: the second pass runs on the memoized folds
        for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t f = 0; f < froms.size(); ++f) {
                for (std::size_t k = 0; k < constraints.size(); ++k) {
                    const bdd reference = mgr.exists(
                        product & froms[f] & constraints[k], qcube);
                    EXPECT_EQ(rel.image(froms[f], constraints[k]), reference)
                        << "from " << f << " constraint " << k << " limit "
                        << options.cluster_limit << " early "
                        << options.early_quantification << " pass " << pass;
                }
            }
        }
    }
}

TEST(relation_clustering, merged_clusters_never_exceed_cluster_limit) {
    // the clustering's node bound: every cluster it returns either respects
    // the limit or is a single unmerged part
    for (int id = 0; id < 10; ++id) {
        const network net = machine_for(id);
        bdd_manager mgr;
        auto [fns, vars] = setup(mgr, net);
        const std::vector<bdd> parts = next_state_parts(mgr, fns, vars);
        for (const std::size_t limit :
             {std::size_t{30}, std::size_t{120}, std::size_t{2500}}) {
            const std::vector<bdd> clusters = cluster_parts(mgr, parts, limit);
            ASSERT_LE(clusters.size(), parts.size());
            for (const bdd& c : clusters) {
                if (mgr.dag_size(c) <= limit) { continue; }
                // oversized clusters must be original (unmergeable) parts
                EXPECT_NE(std::find(parts.begin(), parts.end(), c),
                          parts.end())
                    << "machine " << id << " limit " << limit;
            }
        }
    }
}

TEST(relation_stats, schedule_shape_and_per_call_counters) {
    const network net = make_counter(6);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    image_options options;
    options.cluster_limit = 0; // keep every part its own cluster
    const transition_relation rel =
        next_state_relation(mgr, fns, vars, options);

    EXPECT_EQ(rel.num_clusters(), fns.next_state.size());
    EXPECT_EQ(rel.stats().images, 0u);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    // every quantified variable dies somewhere (counter: all cs vars occur;
    // the input occurs too): the image equals conjoin-then-quantify
    bdd product = mgr.one();
    for (const bdd& p : next_state_parts(mgr, fns, vars)) { product &= p; }
    std::vector<std::uint32_t> quantify = vars.in;
    quantify.insert(quantify.end(), vars.cs.begin(), vars.cs.end());
    EXPECT_EQ(rel.image(init), mgr.exists(product & init, mgr.cube(quantify)));
    (void)rel.image(init);
    EXPECT_EQ(rel.stats().images, 2u);
}

TEST(op_deadline, interrupts_relation_construction) {
    // clustering is real BDD work: an expired deadline on the manager
    // interrupts it before the first image is ever computed
    const network net = make_counter(8);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    std::vector<std::uint32_t> quantify = vars.in;
    quantify.insert(quantify.end(), vars.cs.begin(), vars.cs.end());
    const std::vector<bdd> parts = next_state_parts(mgr, fns, vars);
    image_options options;
    mgr.set_op_deadline(std::chrono::steady_clock::now() -
                        std::chrono::seconds(1));
    EXPECT_THROW((void)transition_relation(mgr, parts, quantify, options),
                 bdd_deadline_exceeded);
    options.early_quantification = false; // the naive-mode product fold too
    EXPECT_THROW((void)transition_relation(mgr, parts, quantify, options),
                 bdd_deadline_exceeded);
    mgr.clear_op_deadline();
}

TEST(op_deadline, interrupts_an_image_chain) {
    const network net = make_counter(8);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    image_options options;
    options.cluster_limit = 0; // construction merges nothing
    const transition_relation rel =
        next_state_relation(mgr, fns, vars, options);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    mgr.set_op_deadline(std::chrono::steady_clock::now() -
                        std::chrono::seconds(1));
    EXPECT_THROW((void)rel.image(init), bdd_deadline_exceeded);
    mgr.clear_op_deadline();
}

TEST(op_deadline, interrupts_inside_a_chain_step) {
    // one long and_exists must not overrun the budget: the manager probes
    // its deadline inside the recursion, so an expired one surfaces from
    // image() mid-step, and the aborted chain leaves the relation and the
    // manager usable.
    structured_spec spec;
    spec.num_inputs = 4;
    spec.num_latches = 16;
    spec.seed = 5;
    const network net = make_structured_mix(spec);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const transition_relation rel = next_state_relation(mgr, fns, vars);
    // an awkward xor-of-products state set drives the cold chain through
    // several thousand cache probes
    bdd from = mgr.zero();
    for (std::size_t k = 0; k + 2 < vars.cs.size(); k += 3) {
        from = from ^ (mgr.var(vars.cs[k]) &
                       (mgr.var(vars.cs[k + 1]) | !mgr.var(vars.cs[k + 2])));
    }

    mgr.set_op_deadline(std::chrono::steady_clock::now() -
                        std::chrono::seconds(1));
    EXPECT_THROW((void)rel.image(from), bdd_deadline_exceeded);
    mgr.clear_op_deadline();
    // disarmed, the identical call runs to completion and agrees with an
    // independently built relation (the aborted chain left no bad state)
    const bdd result = rel.image(from);
    const transition_relation again = next_state_relation(mgr, fns, vars);
    EXPECT_EQ(again.image(from), result);
    EXPECT_FALSE(result.is_zero());
}

TEST(op_deadline, solvers_translate_deadline_into_timeout_status) {
    const network original = make_counter(3);
    const split_result split = split_last_latches(original, 1);
    const equation_problem problem(split.fixed, original);

    solve_options options;
    options.deadline = std::chrono::steady_clock::now() -
                       std::chrono::seconds(1);
    const solve_result part = solve_partitioned(problem, options);
    EXPECT_EQ(part.status, solve_status::timeout);
    EXPECT_FALSE(part.csf.has_value());
    const solve_result mono = solve_monolithic(problem, options);
    EXPECT_EQ(mono.status, solve_status::timeout);
    EXPECT_FALSE(mono.csf.has_value());

    // the timed-out solves disarmed the manager on their way out: both
    // flows solve the same problem with no limit
    const solve_result part_ok = solve_partitioned(problem, {});
    EXPECT_EQ(part_ok.status, solve_status::ok);
    const solve_result mono_ok = solve_monolithic(problem, {});
    EXPECT_EQ(mono_ok.status, solve_status::ok);
    EXPECT_TRUE(language_equivalent(*part_ok.csf, *mono_ok.csf));
}

TEST(partitioned_image, early_and_naive_modes_agree) {
    const network net = make_lfsr(6, {1, 3});
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    image_options naive;
    naive.early_quantification = false;
    const transition_relation early = next_state_relation(mgr, fns, vars);
    const transition_relation flat = next_state_relation(mgr, fns, vars, naive);

    const bdd from = state_cube(mgr, vars.cs, net.initial_state());
    EXPECT_EQ(early.image(from), flat.image(from));
    // also from a non-singleton set
    const bdd set = from | state_cube(mgr, vars.cs,
                                      {true, false, true, false, true, false});
    EXPECT_EQ(early.image(set), flat.image(set));
}

TEST(partitioned_image, clustering_reduces_part_count) {
    const network net = make_counter(8);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    image_options big_clusters;
    big_clusters.cluster_limit = 100000;
    image_options no_clusters;
    no_clusters.cluster_limit = 0;
    const transition_relation clustered =
        next_state_relation(mgr, fns, vars, big_clusters);
    const transition_relation flat =
        next_state_relation(mgr, fns, vars, no_clusters);
    EXPECT_LT(clustered.num_clusters(), flat.num_clusters());
    EXPECT_EQ(flat.num_clusters(), flat.num_parts());
    // same results either way
    const bdd from = state_cube(mgr, vars.cs, net.initial_state());
    EXPECT_EQ(clustered.image(from), flat.image(from));
}

TEST(partitioned_image, image_of_empty_set_is_empty) {
    const network net = make_counter(3);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const transition_relation rel = next_state_relation(mgr, fns, vars);
    EXPECT_TRUE(rel.image(mgr.zero()).is_zero());
}

} // namespace
