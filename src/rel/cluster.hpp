/// \file cluster.hpp
/// \brief Partition clustering for the relation layer.
///
/// A transition relation arrives as a list of small conjuncts ("parts",
/// typically one `ns_k == T_k` per latch).  Conjoining some of them up front
/// — clustering — trades BDD size against the number of and-exists steps per
/// image.  Clustering is a greedy adjacent merge: each part folds into the
/// previous cluster while the product stays within the node limit.  It is
/// cheap and follows the declaration order, which on the solver's problems
/// already groups related latches.  A limit of 0 keeps the parts exactly as
/// given.
///
/// The node limit is an upper bound on every *merged* product; a single part
/// that is already larger than the limit is kept as its own cluster (parts
/// are never split).
#pragma once

#include "bdd/bdd.hpp"

#include <cstddef>
#include <vector>

namespace leq {

/// Merge adjacent `parts` into clusters.  Every cluster formed by merging
/// two or more parts has dag_size <= cluster_limit; a limit of 0 disables
/// merging entirely.
[[nodiscard]] std::vector<bdd>
cluster_parts(bdd_manager& mgr, const std::vector<bdd>& parts,
              std::size_t cluster_limit);

} // namespace leq
