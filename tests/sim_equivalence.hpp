/// \file sim_equivalence.hpp
/// \brief Shared test helper: seeded random-simulation equivalence of two
/// networks.
#pragma once

#include "net/network.hpp"

#include <cstdint>
#include <random>
#include <vector>

/// True when both networks produce identical output streams on `runs` runs
/// of `cycles` random input vectors each, from their initial states.
/// Networks with different input or output counts are never equivalent.
inline bool simulation_equivalent(const leq::network& a, const leq::network& b,
                                  std::size_t runs, std::size_t cycles,
                                  std::uint32_t seed) {
    if (a.num_inputs() != b.num_inputs() ||
        a.num_outputs() != b.num_outputs()) {
        return false;
    }
    std::mt19937 rng(seed);
    for (std::size_t run = 0; run < runs; ++run) {
        std::vector<bool> sa = a.initial_state();
        std::vector<bool> sb = b.initial_state();
        for (std::size_t t = 0; t < cycles; ++t) {
            std::vector<bool> in(a.num_inputs());
            for (std::size_t k = 0; k < in.size(); ++k) {
                in[k] = (rng() & 1u) != 0;
            }
            const auto ra = a.simulate(sa, in);
            const auto rb = b.simulate(sb, in);
            if (ra.outputs != rb.outputs) { return false; }
            sa = ra.next_state;
            sb = rb.next_state;
        }
    }
    return true;
}
