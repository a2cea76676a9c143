/// \file cluster.cpp
/// \brief Greedy adjacent clustering of relation parts.

#include "rel/cluster.hpp"

namespace leq {

std::vector<bdd> cluster_parts(bdd_manager& mgr, const std::vector<bdd>& parts,
                               std::size_t cluster_limit) {
    if (cluster_limit == 0 || parts.size() < 2) { return parts; }
    std::vector<bdd> clustered;
    for (const bdd& p : parts) {
        if (!clustered.empty()) {
            const bdd candidate = clustered.back() & p;
            if (mgr.dag_size(candidate) <= cluster_limit) {
                clustered.back() = candidate;
                continue;
            }
        }
        clustered.push_back(p);
    }
    return clustered;
}

} // namespace leq
