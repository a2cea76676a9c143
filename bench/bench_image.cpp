/// \file bench_image.cpp
/// \brief google-benchmark micro suite for the image-computation substrate:
/// early-quantification scheduling vs naive conjoin-then-quantify, cluster
/// limits, and full reachability sweeps.

#include "gen/scenario.hpp"
#include "img/image.hpp"
#include "net/generator.hpp"
#include "net/netbdd.hpp"

#include <benchmark/benchmark.h>


namespace {

using namespace leq;

struct setup {
    bdd_manager mgr;
    std::vector<std::uint32_t> in, cs, ns;
    net_bdds fns;
    bdd init;

    explicit setup(const network& net) : mgr(0, 20), init(mgr.one()) {
        for (std::size_t k = 0; k < net.num_inputs(); ++k) {
            in.push_back(mgr.new_var());
        }
        for (std::size_t k = 0; k < net.num_latches(); ++k) {
            cs.push_back(mgr.new_var());
            ns.push_back(mgr.new_var());
        }
        fns = build_net_bdds(mgr, net, in, cs);
        init = state_cube(mgr, cs, net.initial_state());
    }

    [[nodiscard]] std::vector<bdd> parts() {
        std::vector<bdd> p;
        for (std::size_t k = 0; k < fns.next_state.size(); ++k) {
            p.push_back(mgr.var(ns[k]).iff(fns.next_state[k]));
        }
        return p;
    }
    [[nodiscard]] std::vector<std::uint32_t> quantify() const {
        std::vector<std::uint32_t> q = in;
        q.insert(q.end(), cs.begin(), cs.end());
        return q;
    }
    [[nodiscard]] std::vector<std::uint32_t> cs_ns_swap() const {
        std::vector<std::uint32_t> p(mgr.num_vars());
        for (std::uint32_t v = 0; v < p.size(); ++v) { p[v] = v; }
        for (std::size_t k = 0; k < cs.size(); ++k) {
            p[ns[k]] = cs[k];
            p[cs[k]] = ns[k];
        }
        return p;
    }
    /// `init` advanced a few image steps (a non-trivial frontier).
    [[nodiscard]] bdd advanced_frontier(const transition_relation& rel,
                                        int steps = 3) {
        const std::vector<std::uint32_t> perm = cs_ns_swap();
        bdd from = init;
        for (int k = 0; k < steps; ++k) {
            from |= mgr.permute(rel.image(from), perm);
        }
        return from;
    }
};

network bench_circuit(int size) {
    structured_spec spec;
    spec.num_inputs = 4;
    spec.num_outputs = 4;
    spec.num_latches = static_cast<std::size_t>(size);
    // LEQ_TEST_SEED shifts the generated circuits (0 when unset)
    spec.seed = test_seed(0) + 17;
    return make_structured_mix(spec);
}

void bm_image_scheduled(benchmark::State& state) {
    setup s(bench_circuit(static_cast<int>(state.range(0))));
    image_options options;
    const transition_relation rel(s.mgr, s.parts(), s.quantify(), options);
    // image from a frontier after a few steps (more interesting than init)
    const bdd from = s.advanced_frontier(rel);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rel.image(from));
    }
}
BENCHMARK(bm_image_scheduled)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

void bm_image_naive(benchmark::State& state) {
    setup s(bench_circuit(static_cast<int>(state.range(0))));
    image_options options;
    options.early_quantification = false;
    const transition_relation rel(s.mgr, s.parts(), s.quantify(), options);
    bdd from = s.init;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rel.image(from));
    }
}
BENCHMARK(bm_image_naive)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

void bm_reachability(benchmark::State& state) {
    const network net = bench_circuit(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        setup s(net);
        benchmark::DoNotOptimize(
            reachable_states(s.mgr, s.fns.next_state, s.cs, s.ns, s.in,
                             s.init));
    }
}
BENCHMARK(bm_reachability)->Arg(8)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

void bm_cluster_limit(benchmark::State& state) {
    setup s(bench_circuit(20));
    image_options options;
    options.cluster_limit = static_cast<std::size_t>(state.range(0));
    const transition_relation rel(s.mgr, s.parts(), s.quantify(), options);
    bdd from = s.init;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rel.image(from));
    }
}
BENCHMARK(bm_cluster_limit)->Arg(0)->Arg(500)->Arg(2500)->Arg(10000);

} // namespace

BENCHMARK_MAIN();
