/// \file mutate.hpp
/// \brief Structure-preserving netlist edits: reductions and mutations.
///
/// The scenario kit and the shrinker both need to produce a *new* network
/// that differs from an existing one by a single localized edit.  Reductions
/// (tie an input or latch to a constant, drop an output) monotonically
/// simplify an instance and are the shrinker's move set; mutations (flip one
/// cube literal, drop one cube, complement a cover, flip a latch init) are
/// the near-miss generators: a known-good fixed/spec pair plus one flipped
/// transition or output bit yields an equation whose solution shrinks or
/// vanishes.  Every edit returns a fresh, validated network and leaves the
/// argument untouched.
#pragma once

#include "net/network.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace leq {

// ---------------------------------------------------------------------------
// reductions (the shrinker's move set)
// ---------------------------------------------------------------------------

/// Remove primary input `index`, driving its signal with the constant
/// `value` instead.  Later inputs shift down by one.
[[nodiscard]] network tie_input(const network& net, std::size_t index,
                                bool value);

/// Remove latch `index`, driving its output signal with the latch's init
/// value (frozen state: the machine behaves as if that latch never left
/// reset).  The next-state cone may become dangling logic; it is kept —
/// dead-logic removal is the sweep pass's job, not a semantic edit.
[[nodiscard]] network tie_latch(const network& net, std::size_t index);

/// Remove primary output `index` from the output list (the driving logic
/// stays; it simply stops being observed).  Later outputs shift down.
[[nodiscard]] network drop_output(const network& net, std::size_t index);

// ---------------------------------------------------------------------------
// mutations (near-miss generators)
// ---------------------------------------------------------------------------

/// One localized fault.  `node` indexes network::nodes(); `cube` / `literal`
/// address the flipped position inside that node's cover.
enum class mutation_kind : std::uint8_t {
    flip_literal, ///< toggle one cube literal: 0 -> 1, 1 -> 0, '-' -> 1
    drop_cube,    ///< delete one cube from a cover (shrinks the on-set)
    complement,   ///< toggle the node's complemented flag (on-set <-> off-set)
    flip_init,    ///< toggle latch `node`'s reset value
};

struct mutation {
    mutation_kind kind = mutation_kind::flip_literal;
    std::size_t node = 0;    ///< node index (flip_init: latch index)
    std::size_t cube = 0;    ///< cube row (flip_literal / drop_cube)
    std::size_t literal = 0; ///< literal column (flip_literal)
};

/// Human-readable description ("flip node 'ns1' cube 0 literal 2", ...),
/// for reproducer headers.
[[nodiscard]] std::string describe(const mutation& m, const network& net);

/// All well-formed single-fault mutations of `net`.  drop_cube skips
/// single-cube covers (deleting the only cube makes a constant — legal but a
/// much bigger behavioural step than one flipped bit).
[[nodiscard]] std::vector<mutation> enumerate_mutations(const network& net);

/// Apply one mutation; throws std::out_of_range on a stale index.
[[nodiscard]] network apply_mutation(const network& net, const mutation& m);

} // namespace leq
