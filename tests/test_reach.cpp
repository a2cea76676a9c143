/// \file test_reach.cpp
/// \brief Forward reachability is a pure function of the machine: under any
/// early-quantification x clustering combination the frontier fixpoint
/// reaches the identical state set, and both the reached set and the BFS
/// layering it reports match an explicit-state BFS oracle.  Cross-checked
/// on randomly generated networks plus structured families.

#include "gen/scenario.hpp"
#include "img/image.hpp"
#include "net/generator.hpp"
#include "net/netbdd.hpp"

#include <gtest/gtest.h>

#include <set>
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

/// Explicit BFS oracle (small machines): the number of states first
/// reached in each layer, layer 0 being the initial state.
std::vector<double> explicit_layer_counts(const network& net) {
    std::set<std::vector<bool>> seen{net.initial_state()};
    std::vector<std::vector<bool>> layer{net.initial_state()};
    std::vector<double> counts;
    const std::size_t ni = net.num_inputs();
    while (!layer.empty()) {
        counts.push_back(static_cast<double>(layer.size()));
        std::vector<std::vector<bool>> next;
        for (const std::vector<bool>& s : layer) {
            for (std::size_t m = 0; m < (1u << ni); ++m) {
                std::vector<bool> in(ni);
                for (std::size_t b = 0; b < ni; ++b) {
                    in[b] = ((m >> b) & 1) != 0;
                }
                const auto r = net.simulate(s, in);
                if (seen.insert(r.next_state).second) {
                    next.push_back(r.next_state);
                }
            }
        }
        layer = std::move(next);
    }
    return counts;
}

/// Whether the explicit oracle can enumerate the machine quickly.
bool oracle_sized(const network& net) {
    return net.num_inputs() <= 4 && net.num_latches() <= 10;
}

/// 24 machines: deep and wide stress shapes (past ~5 sequential levels /
/// 6 parallel latches), then the shared menu's named families and random
/// tail.
network machine_for(int id) {
    switch (id) {
    case 1: return make_counter(6);    // deep-sequential
    case 2: return make_lfsr(6, {1, 4});
    case 3: return make_shift_xor(7);  // wide-parallel
    default: return make_menu_circuit(id);
    }
}

/// The option matrix the engine supports: early-quantification on/off x
/// clustering off/default.
std::vector<image_options> option_matrix() {
    std::vector<image_options> matrix;
    for (const bool early : {true, false}) {
        for (const std::size_t cluster : {std::size_t{0}, std::size_t{2500}}) {
            image_options o;
            o.early_quantification = early;
            o.cluster_limit = cluster;
            matrix.push_back(o);
        }
    }
    return matrix;
}

class reach : public ::testing::TestWithParam<int> {};

TEST_P(reach, identical_reached_set_across_option_matrix) {
    const network net = machine_for(GetParam());
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    const auto nbits = static_cast<std::uint32_t>(vars.cs.size());

    const bdd reference = reachable_states(mgr, fns.next_state, vars.cs,
                                           vars.ns, vars.in, init);
    const double ref_count = mgr.sat_count(reference, nbits);
    for (const image_options& options : option_matrix()) {
        const bdd reached = reachable_states(mgr, fns.next_state, vars.cs,
                                             vars.ns, vars.in, init, options);
        EXPECT_EQ(reached, reference)
            << "machine " << GetParam() << " early "
            << options.early_quantification << " cluster "
            << options.cluster_limit;
        EXPECT_DOUBLE_EQ(mgr.sat_count(reached, nbits), ref_count);
    }
}

TEST_P(reach, layering_matches_explicit_bfs) {
    // each frontier step adds exactly the BFS layer Img(R_k) \ R_k, so the
    // reported depth and per-layer counts equal an explicit BFS's
    const network net = machine_for(GetParam());
    if (!oracle_sized(net)) { GTEST_SKIP() << "too large for the oracle"; }
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    const std::vector<double> oracle = explicit_layer_counts(net);

    const reach_info info = reachable_states_layered(
        mgr, fns.next_state, vars.cs, vars.ns, vars.in, init);
    EXPECT_EQ(info.depth, oracle.size() - 1) << "machine " << GetParam();
    EXPECT_EQ(info.layer_states, oracle) << "machine " << GetParam();
    double total = 0.0;
    for (const double states : oracle) { total += states; }
    EXPECT_DOUBLE_EQ(info.total_states, total);
}

INSTANTIATE_TEST_SUITE_P(random_machines, reach, ::testing::Range(0, 24));

TEST(reach_oracle, sat_count_matches_explicit_bfs) {
    for (int id = 0; id < 8; ++id) {
        const network net = machine_for(id);
        if (!oracle_sized(net)) { continue; }
        bdd_manager mgr;
        auto [fns, vars] = setup(mgr, net);
        const bdd init = state_cube(mgr, vars.cs, net.initial_state());
        double oracle = 0.0;
        for (const double states : explicit_layer_counts(net)) {
            oracle += states;
        }
        for (const image_options& options : option_matrix()) {
            const bdd reached = reachable_states(
                mgr, fns.next_state, vars.cs, vars.ns, vars.in, init, options);
            EXPECT_DOUBLE_EQ(
                mgr.sat_count(reached,
                              static_cast<std::uint32_t>(vars.cs.size())),
                oracle)
                << "machine " << id;
        }
    }
}

} // namespace
