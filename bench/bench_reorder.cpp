/// \file bench_reorder.cpp
/// \brief Ablation D: dynamic variable reordering in the BDD substrate.
///
/// The solver pins its (u,v)-block order and never reorders
/// (docs/ARCHITECTURE.md, `eq/` section), so reordering is evaluated where
/// it is safe: on standalone function builds and on symbolic reachability
/// of the generator circuits.
/// Three orders are compared per workload:
///
///   natural   the order the variables were created in
///   scrambled a deterministic bad permutation (worst-case stand-in)
///   sifted    scrambled, then one Rudell sifting pass
///
/// Reported: live BDD nodes for the swept functions under each order, the
/// sifting time, and the node count recovered by sifting.  The claim under
/// test: sifting recovers most of the size lost to a bad order, at a cost
/// that is small against the blowup it removes.
///
/// Usage: bench_reorder [max_bits] (default 12)

#include "gen/scenario.hpp"
#include "img/image.hpp"
#include "net/generator.hpp"
#include "net/netbdd.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

namespace {

using namespace leq;

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/// Deterministic "bad" permutation: reverse-interleave the ids.
std::vector<std::uint32_t> scramble(std::uint32_t n) {
    std::vector<std::uint32_t> order;
    order.reserve(n);
    for (std::uint32_t v = 0; v < n; v += 2) { order.push_back(v); }
    for (std::uint32_t v = 1; v < n; v += 2) { order.push_back(v); }
    std::reverse(order.begin() + n / 3, order.end());
    return order;
}

struct row {
    const char* name;
    std::size_t natural;
    std::size_t scrambled;
    std::size_t sifted;
    double sift_seconds;
};

/// Sweep a network's output/next-state functions under three orders.
row measure_network(const char* name, const network& net) {
    row r{name, 0, 0, 0, 0.0};
    const auto sweep_nodes = [&](bdd_manager& mgr) {
        std::vector<std::uint32_t> ins, css;
        for (std::size_t k = 0; k < net.num_inputs(); ++k) {
            ins.push_back(k);
        }
        for (std::size_t k = 0; k < net.num_latches(); ++k) {
            css.push_back(net.num_inputs() + k);
        }
        const net_bdds fns = build_net_bdds(mgr, net, ins, css);
        std::size_t live = mgr.live_node_count();
        return std::pair{fns, live};
    };
    const auto nvars =
        static_cast<std::uint32_t>(net.num_inputs() + net.num_latches());
    {
        bdd_manager mgr(nvars);
        r.natural = sweep_nodes(mgr).second;
    }
    {
        bdd_manager mgr(nvars);
        mgr.set_var_order(scramble(nvars));
        auto [fns, live] = sweep_nodes(mgr);
        r.scrambled = live;
        const auto start = std::chrono::steady_clock::now();
        r.sifted = mgr.reorder_sift();
        r.sift_seconds = seconds_since(start);
    }
    return r;
}

/// The classic x0&x1 | x2&x3 | ... function under the three orders.
row measure_chain(std::uint32_t pairs) {
    static char label[32];
    std::snprintf(label, sizeof label, "chain%u", pairs);
    row r{label, 0, 0, 0, 0.0};
    const auto build = [&](bdd_manager& mgr) {
        bdd f = mgr.zero();
        for (std::uint32_t p = 0; p < pairs; ++p) {
            f |= mgr.var(2 * p) & mgr.var(2 * p + 1);
        }
        return f;
    };
    {
        bdd_manager mgr(2 * pairs);
        const bdd f = build(mgr);
        r.natural = mgr.dag_size(f);
    }
    {
        bdd_manager mgr(2 * pairs);
        // all even variables above all odd ones: exponential
        std::vector<std::uint32_t> order;
        for (std::uint32_t v = 0; v < 2 * pairs; v += 2) {
            order.push_back(v);
        }
        for (std::uint32_t v = 1; v < 2 * pairs; v += 2) {
            order.push_back(v);
        }
        mgr.set_var_order(order);
        const bdd f = build(mgr);
        r.scrambled = mgr.dag_size(f);
        const auto start = std::chrono::steady_clock::now();
        mgr.reorder_sift();
        r.sift_seconds = seconds_since(start);
        r.sifted = mgr.dag_size(f);
    }
    return r;
}

void print_row(const row& r) {
    std::printf("%-10s %10zu %12zu %10zu %10.3f %9.1fx\n", r.name, r.natural,
                r.scrambled, r.sifted, r.sift_seconds,
                r.sifted > 0 ? static_cast<double>(r.scrambled) /
                                   static_cast<double>(r.sifted)
                             : 0.0);
}

} // namespace

int main(int argc, char** argv) {
    const auto max_bits =
        static_cast<std::uint32_t>(argc > 1 ? std::atoi(argv[1]) : 12);

    std::printf("Ablation D: dynamic variable reordering (sifting)\n");
    std::printf("%-10s %10s %12s %10s %10s %10s\n", "workload", "natural",
                "scrambled", "sifted", "sift,s", "recovery");

    for (std::uint32_t pairs = 4; pairs <= max_bits; pairs += 2) {
        print_row(measure_chain(pairs));
    }
    print_row(measure_network("counter8", make_counter(8)));
    print_row(measure_network("counter12", make_counter(12)));
    print_row(measure_network("lfsr10", make_lfsr(10, {2, 6})));
    print_row(measure_network("shiftxor9", make_shift_xor(9)));
    {
        structured_spec spec;
        spec.num_inputs = 3;
        spec.num_outputs = 6;
        spec.num_latches = 14;
        // LEQ_TEST_SEED shifts the generated circuit (0 when unset)
        spec.seed = test_seed(0) + 14;
        print_row(measure_network("mix14", make_structured_mix(spec)));
    }
    std::printf("\nclaim: sifting recovers most of the blowup a bad order "
                "causes;\nthe solver itself keeps its pinned (u,v) order "
                "(see docs/ARCHITECTURE.md).\n");
    return 0;
}
