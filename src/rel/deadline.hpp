/// \file deadline.hpp
/// \brief Relation-layer deadlines: an optional absolute time point checked
/// between chain steps and cluster merges.
#pragma once

#include <chrono>
#include <optional>
#include <stdexcept>

namespace leq {

/// Thrown by relation-layer operations (construction, image chains) when an
/// `image_options::deadline` passes mid-computation.  The solvers translate it into `solve_status::timeout`.
struct relation_deadline_exceeded : std::runtime_error {
    relation_deadline_exceeded()
        : std::runtime_error("relation layer: deadline exceeded") {}
};

/// Optional absolute deadline used across the relation layer.
using relation_deadline =
    std::optional<std::chrono::steady_clock::time_point>;

/// Throw once the deadline has passed (no-op when unset).
inline void throw_if_past(const relation_deadline& deadline) {
    if (deadline && std::chrono::steady_clock::now() > *deadline) {
        throw relation_deadline_exceeded{};
    }
}

} // namespace leq
