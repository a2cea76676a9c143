/// \file shrink.hpp
/// \brief Automatic shrinking of failing equation instances to minimal
/// reproducers.
///
/// A fuzz failure on a 5-latch random machine is an opaque artifact; the
/// same failure on a 2-state KISS pair is a bug report.  The shrinker takes
/// a failing (F, S) instance and a predicate ("does the failure still
/// reproduce?") and greedily deletes structure while the predicate stays
/// true, delta-debugging style:
///
///   phase 1 (netlist): tie spec/fixed latches to their reset values (each
///     tied latch removes one partitioned relation part), drop u outputs,
///     tie v/w/i inputs to 0, drop o output pairs;
///   phase 2 (explicit states, machines of at most 64 states): re-derive
///     each machine's STG, delete one
///     state at a time (in-edges redirected to the initial state), and
///     re-encode the survivor — this is what gets a reproducer under a
///     handful of states rather than a handful of latches.
///
/// The result is 1-minimal: no single remaining move keeps the predicate
/// true.  `write_reproducer` then renders the shrunk pair as BLIF and KISS
/// plus the exact seed and option set, so a nightly CI failure replays from
/// one small text artifact.
#pragma once

#include "net/network.hpp"

#include <cstdint>
#include <functional>
#include <string>

namespace leq {

/// A shrinkable instance: the networks plus the choice-input count that
/// together define the equation problem.
struct shrink_instance_desc {
    network fixed;
    network spec;
    std::size_t num_choice_inputs = 0;
};

/// Returns true when the failure still reproduces on the candidate.
/// Exceptions thrown by the predicate reject the candidate (a reduction
/// that makes the instance unbuildable is not a smaller failure).
using shrink_predicate = std::function<bool(const shrink_instance_desc&)>;

struct shrink_result {
    shrink_instance_desc inst; ///< the minimal failing instance
    std::size_t accepted = 0;        ///< reductions that kept the failure
    std::size_t predicate_runs = 0;  ///< total predicate evaluations
    /// Reachable explicit states of the shrunk machines (0 = not computed,
    /// machine larger than 1024 states).
    std::size_t spec_states = 0;
    std::size_t fixed_states = 0;
};

/// Greedily shrink `start` while `still_failing` holds.  `still_failing` is
/// expected to be true for `start` itself; if it is not, the result is
/// simply `start` unshrunk.
[[nodiscard]] shrink_result shrink_instance(shrink_instance_desc start,
                                            const shrink_predicate& still_failing);

// ---------------------------------------------------------------------------
// reproducer emission
// ---------------------------------------------------------------------------

/// Everything needed to replay a shrunk failure offline.
struct reproducer {
    std::string family;     ///< scenario family name
    std::uint32_t seed = 0; ///< scenario seed
    std::string option_set; ///< option matrix / harness configuration
    std::string failure;    ///< the differential's failure text
    shrink_instance_desc inst;
    std::size_t spec_states = 0;
    std::size_t fixed_states = 0;
};

/// One self-contained text artifact: a commented header (family, seed,
/// options, failure), both machines as BLIF, and both as KISS state tables
/// (KISS is skipped, with a note, for machines beyond ~256 states).
[[nodiscard]] std::string reproducer_to_string(const reproducer& repro);

/// Write `<stem>.repro.txt` (the artifact above) plus `<stem>_f.blif` /
/// `<stem>_s.blif` / `<stem>_f.kiss` / `<stem>_s.kiss` for direct tool
/// consumption.  Throws std::runtime_error when a file cannot be opened.
void write_reproducer(const reproducer& repro, const std::string& stem);

/// KISS2 text of a network's state transition graph (the representation
/// the reproducers embed).  Throws std::runtime_error when the machine
/// exceeds `max_states`.
[[nodiscard]] std::string network_to_kiss(const network& net,
                                          std::size_t max_states = 256);

} // namespace leq
