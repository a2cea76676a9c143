/// \file bench_bdd.cpp
/// \brief google-benchmark micro suite for the BDD substrate: connective
/// throughput, quantification, relational product and renaming on
/// structured functions (adders, parities, comparators).

#include "bdd/bdd.hpp"

#include <benchmark/benchmark.h>

#include <memory>

namespace {

using namespace leq;

/// n-bit ripple-carry adder sum and carry bits: classic BDD stress shape.
std::vector<bdd> adder_sums(bdd_manager& mgr, std::uint32_t bits) {
    std::vector<bdd> sums;
    bdd carry = mgr.zero();
    for (std::uint32_t k = 0; k < bits; ++k) {
        const bdd a = mgr.var(2 * k);
        const bdd b = mgr.var(2 * k + 1);
        sums.push_back(a ^ b ^ carry);
        carry = (a & b) | (carry & (a ^ b));
    }
    sums.push_back(carry);
    return sums;
}

void bm_adder_build(benchmark::State& state) {
    const auto bits = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        bdd_manager mgr(2 * bits);
        benchmark::DoNotOptimize(adder_sums(mgr, bits));
    }
}
BENCHMARK(bm_adder_build)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void bm_and_chain(benchmark::State& state) {
    const auto bits = static_cast<std::uint32_t>(state.range(0));
    bdd_manager mgr(2 * bits);
    const std::vector<bdd> sums = adder_sums(mgr, bits);
    for (auto _ : state) {
        bdd acc = mgr.one();
        for (const bdd& s : sums) { acc &= s; }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(bm_and_chain)->Arg(8)->Arg(16)->Arg(32);

void bm_xor_parity(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    bdd_manager mgr(n);
    for (auto _ : state) {
        bdd acc = mgr.zero();
        for (std::uint32_t v = 0; v < n; ++v) { acc ^= mgr.var(v); }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(bm_xor_parity)->Arg(16)->Arg(64)->Arg(128);

void bm_exists(benchmark::State& state) {
    const auto bits = static_cast<std::uint32_t>(state.range(0));
    bdd_manager mgr(2 * bits);
    const std::vector<bdd> sums = adder_sums(mgr, bits);
    bdd f = mgr.one();
    for (const bdd& s : sums) { f &= s; }
    std::vector<std::uint32_t> evens;
    for (std::uint32_t v = 0; v < 2 * bits; v += 2) { evens.push_back(v); }
    const bdd cube = mgr.cube(evens);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mgr.exists(f, cube));
    }
}
BENCHMARK(bm_exists)->Arg(8)->Arg(16)->Arg(32);

void bm_and_exists_vs_two_step(benchmark::State& state) {
    const auto bits = static_cast<std::uint32_t>(state.range(0));
    bdd_manager mgr(2 * bits);
    const std::vector<bdd> sums = adder_sums(mgr, bits);
    bdd f = mgr.one(), g = mgr.one();
    for (std::uint32_t k = 0; k < sums.size(); ++k) {
        (k % 2 ? f : g) &= sums[k];
    }
    std::vector<std::uint32_t> evens;
    for (std::uint32_t v = 0; v < 2 * bits; v += 2) { evens.push_back(v); }
    const bdd cube = mgr.cube(evens);
    const bool fused = state.range(1) != 0;
    for (auto _ : state) {
        if (fused) {
            benchmark::DoNotOptimize(mgr.and_exists(f, g, cube));
        } else {
            benchmark::DoNotOptimize(mgr.exists(f & g, cube));
        }
    }
}
BENCHMARK(bm_and_exists_vs_two_step)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({32, 0})
    ->Args({32, 1});

void bm_permute(benchmark::State& state) {
    const auto bits = static_cast<std::uint32_t>(state.range(0));
    bdd_manager mgr(2 * bits);
    const std::vector<bdd> sums = adder_sums(mgr, bits);
    bdd f = mgr.one();
    for (const bdd& s : sums) { f &= s; }
    std::vector<std::uint32_t> perm(2 * bits);
    for (std::uint32_t v = 0; v < 2 * bits; ++v) { perm[v] = v ^ 1u; }
    for (auto _ : state) {
        benchmark::DoNotOptimize(mgr.permute(f, perm));
    }
}
BENCHMARK(bm_permute)->Arg(8)->Arg(16)->Arg(32);

/// Negation throughput: with complement edges this is a bit flip per call.
void bm_not(benchmark::State& state) {
    const auto bits = static_cast<std::uint32_t>(state.range(0));
    bdd_manager mgr(2 * bits);
    const std::vector<bdd> sums = adder_sums(mgr, bits);
    // conjoin the sum bits but not the carry-out (that would force zero)
    bdd f = mgr.one();
    for (std::size_t k = 0; k + 1 < sums.size(); ++k) { f &= sums[k]; }
    for (auto _ : state) {
        benchmark::DoNotOptimize(!f);
    }
    state.counters["nodes_f"] = static_cast<double>(mgr.dag_size(f));
    state.counters["nodes_not_f"] = static_cast<double>(mgr.dag_size(!f));
}
BENCHMARK(bm_not)->Arg(8)->Arg(16)->Arg(32);

/// Both phases of many functions held live: complement edges keep the node
/// count flat where a phase-blind package stores f and !f separately.
void bm_phase_pairs_live(benchmark::State& state) {
    const auto bits = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        // manager/adder construction, the GC inside live_node_count, and the
        // manager teardown are all kept out of the timed region: the subject
        // is only the cost of materializing both phases
        state.PauseTiming();
        auto mgr = std::make_unique<bdd_manager>(2 * bits);
        std::vector<bdd> sums = adder_sums(*mgr, bits);
        std::vector<bdd> keep;
        state.ResumeTiming();
        for (const bdd& s : sums) {
            keep.push_back(s);
            keep.push_back(!s);
        }
        benchmark::DoNotOptimize(keep);
        state.PauseTiming();
        state.counters["live_nodes"] =
            static_cast<double>(mgr->live_node_count());
        keep.clear();
        sums.clear();
        mgr.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(bm_phase_pairs_live)->Arg(8)->Arg(16)->Arg(32);

/// De Morgan-shaped recomputation: ~(~f | ~g) after f & g should be pure
/// cache hits under ITE standard triples.
void bm_demorgan_refold(benchmark::State& state) {
    const auto bits = static_cast<std::uint32_t>(state.range(0));
    bdd_manager mgr(2 * bits);
    const std::vector<bdd> sums = adder_sums(mgr, bits);
    bdd f = mgr.one(), g = mgr.one();
    for (std::uint32_t k = 0; k < sums.size(); ++k) {
        (k % 2 ? f : g) &= sums[k];
    }
    for (auto _ : state) {
        const bdd direct = f & g;
        const bdd refolded = !((!f) | (!g));
        benchmark::DoNotOptimize(direct == refolded);
    }
}
BENCHMARK(bm_demorgan_refold)->Arg(8)->Arg(16)->Arg(32);

void bm_gc_pressure(benchmark::State& state) {
    bdd_manager mgr(32);
    for (auto _ : state) {
        bdd junk = mgr.zero();
        for (std::uint32_t v = 0; v + 2 < 32; ++v) {
            junk |= mgr.var(v) & mgr.var(v + 1) & !mgr.var(v + 2);
        }
        benchmark::DoNotOptimize(junk);
    }
    state.counters["gc_runs"] =
        static_cast<double>(mgr.stats().gc_runs);
}
BENCHMARK(bm_gc_pressure);

void bm_compose_vector_vs_chain(benchmark::State& state) {
    const auto bits = static_cast<std::uint32_t>(state.range(0));
    bdd_manager mgr(3 * bits);
    const std::vector<bdd> sums = adder_sums(mgr, bits);
    bdd f = mgr.one();
    for (const bdd& s : sums) { f &= s; }
    std::vector<std::pair<std::uint32_t, bdd>> subs;
    for (std::uint32_t k = 0; k < bits; ++k) {
        subs.emplace_back(k, mgr.var(2 * bits + k) ^ mgr.var(k + bits));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(mgr.compose_vector(f, subs));
    }
}
BENCHMARK(bm_compose_vector_vs_chain)->Arg(8)->Arg(16);

} // namespace

BENCHMARK_MAIN();
