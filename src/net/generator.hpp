/// \file generator.hpp
/// \brief Synthetic sequential-circuit generators.
///
/// The paper's experiments use MCNC/ISCAS89 circuits (s208...s526) which are
/// not bundled in this offline build.  These generators produce circuits
/// with the same interface dimensions (PI/PO/latch counts, Table 1) from
/// structured families — counters, LFSRs, shift registers with feedback,
/// Moore controllers and seeded random logic — so the benchmark harness
/// exercises the identical code paths.  Absolute numbers therefore differ
/// from the paper's testbed; only the shape of each comparison carries over.
#pragma once

#include "net/network.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace leq {

/// The worked example of the paper (Figure 3): input i, output o, latches
/// cs1, cs2 with T1 = i & cs2, T2 = !i | cs1, o = cs1 & cs2, initial state 00.
[[nodiscard]] network make_paper_example();

/// n-bit binary counter with enable and synchronous clear; output = carry.
[[nodiscard]] network make_counter(std::size_t bits);

/// n-bit Fibonacci LFSR; `taps` are bit positions XORed into the feedback.
/// Output = bit 0.  A one-hot init would be all-zero lock; init is 1000..0.
[[nodiscard]] network make_lfsr(std::size_t bits,
                                const std::vector<std::size_t>& taps);

/// Shift register with XOR'd serial input and a parity output.
[[nodiscard]] network make_shift_xor(std::size_t bits);

/// Classic two-road traffic-light Moore controller (3 latches, sensor and
/// timer inputs, 4 outputs) — a realistic control-dominated workload.
[[nodiscard]] network make_traffic_controller();

/// Seeded random sequential logic with the given interface; every latch
/// next-state and output is a small SOP/XOR mix over a few signals.
struct random_spec {
    std::size_t num_inputs = 2;
    std::size_t num_outputs = 2;
    std::size_t num_latches = 4;
    std::uint32_t seed = 1;
    /// max fanins per generated function (>= 2)
    std::size_t max_fanin = 4;
};
[[nodiscard]] network make_random_sequential(const random_spec& spec);

/// Structured mix: latches organized into counter / shift / LFSR blocks with
/// weak bridge coupling (each block's carry/tail gates the next block), the
/// transition structure real ISCAS89 controllers exhibit — low per-state
/// fanout and compact BDDs — unlike uniformly random logic whose CSF
/// explodes.  Outputs are small cross-block mixes.
struct structured_spec {
    std::size_t num_inputs = 3;
    std::size_t num_outputs = 6;
    std::size_t num_latches = 12;
    std::uint32_t seed = 1;
    /// When set, the outputs jointly observe every latch (output j is the
    /// XOR of latches j, j+no, j+2no, ...).  High observability bounds the
    /// flexibility classes, keeping the CSF of large instances enumerable —
    /// the regime of the paper's biggest benchmarks.
    bool full_observation = false;
    /// When set, only the first block is enabled by a primary input; later
    /// blocks tick off the previous block's carry/tail.  Less hidden-input
    /// entropy per cycle keeps the subset construction's knowledge states
    /// bounded on the deep (20+ latch) instances.
    bool chained_enables = false;
};
[[nodiscard]] network make_structured_mix(const structured_spec& spec);

/// Two independent structured mixes sharing the primary inputs, with the
/// observable outputs XORing the two halves.  The flexibility classes of a
/// latch cut multiply across independent sub-machines, so pairing two
/// instances with small CSFs produces the 10^4..10^5-state CSFs of the
/// paper's largest benchmarks while staying enumerable.
[[nodiscard]] network make_paired_mix(const structured_spec& a,
                                      const structured_spec& b);

/// One Table-1 instance: the circuit plus the latch-split sizes.
struct table1_instance {
    std::string name;           ///< paper's benchmark name (s510, ...)
    network circuit;            ///< synthetic stand-in, same i/o/cs counts
    std::size_t f_latches = 0;  ///< latches kept in F
    std::size_t x_latches = 0;  ///< latches extracted into X
};

/// All six rows of Table 1 with matching interface dimensions.
[[nodiscard]] std::vector<table1_instance> make_table1_suite();

} // namespace leq
