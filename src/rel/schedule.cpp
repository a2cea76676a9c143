/// \file schedule.cpp
/// \brief Schedule construction (cost-driven greedy order, exact
/// per-cluster retirement sets) and execution.

#include "rel/schedule.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace leq {

quant_schedule::quant_schedule(bdd_manager& mgr,
                               const std::vector<bdd>& clusters,
                               const std::vector<std::uint32_t>& quantify)
    : mgr_(&mgr), leading_cube_(mgr.one()) {
    const std::unordered_set<std::uint32_t> qset(quantify.begin(),
                                                 quantify.end());
    // quantified support per cluster
    std::vector<std::vector<std::uint32_t>> qsupport(clusters.size());
    for (std::size_t k = 0; k < clusters.size(); ++k) {
        for (const std::uint32_t v : mgr.support(clusters[k])) {
            if (qset.count(v) != 0) { qsupport[k].push_back(v); }
        }
    }

    // cost-driven greedy order: at each step pick the cluster that retires
    // the most quantified variables (variables appearing in no other pending
    // cluster) net of the variables it newly activates
    std::vector<std::size_t> order;
    order.reserve(clusters.size());
    std::vector<bool> used(clusters.size(), false);
    std::unordered_set<std::uint32_t> live;
    for (std::size_t round = 0; round < clusters.size(); ++round) {
        int best_score = std::numeric_limits<int>::min();
        std::size_t best = 0;
        for (std::size_t k = 0; k < clusters.size(); ++k) {
            if (used[k]) { continue; }
            int retired = 0, activated = 0;
            for (const std::uint32_t v : qsupport[k]) {
                bool elsewhere = false;
                for (std::size_t m = 0; m < clusters.size(); ++m) {
                    if (m == k || used[m]) { continue; }
                    if (std::find(qsupport[m].begin(), qsupport[m].end(),
                                  v) != qsupport[m].end()) {
                        elsewhere = true;
                        break;
                    }
                }
                if (!elsewhere) { ++retired; }
                if (live.count(v) == 0) { ++activated; }
            }
            const int score = 2 * retired - activated;
            if (score > best_score) {
                best_score = score;
                best = k;
            }
        }
        used[best] = true;
        order.push_back(best);
        for (const std::uint32_t v : qsupport[best]) { live.insert(v); }
    }

    // exact retirement: the last occurrence of each quantified variable along
    // the chosen order is where it dies (it appears in no later cluster)
    retired_.resize(order.size());
    std::unordered_set<std::uint32_t> seen;
    for (std::size_t pos = order.size(); pos-- > 0;) {
        for (const std::uint32_t v : qsupport[order[pos]]) {
            if (seen.insert(v).second) { retired_[pos].push_back(v); }
        }
    }
    // variables in no cluster at all: quantified straight out of `from`
    for (const std::uint32_t v : quantify) {
        if (seen.count(v) == 0) { leading_.push_back(v); }
    }
    leading_cube_ = mgr.cube(leading_);

    clusters_.reserve(order.size());
    cubes_.reserve(order.size());
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        clusters_.push_back(clusters[order[pos]]);
        cubes_.push_back(mgr.cube(retired_[pos]));
    }
}

bdd quant_schedule::apply(const bdd& from, const bdd& constraint) const {
    // leading quantification, with the extra conjunct conjoined into `from`
    // (against TRUE the and-exists is the plain exists).  In the verify and
    // diagnose walks `from` is a state set and the constraint a CSF label,
    // over disjoint supports, so the conjunction stays small
    bdd acc = mgr_->and_exists(from, constraint, leading_cube_);
    // one cached binary and-exists per cluster; a cluster that retires
    // nothing has a TRUE cube, and the step is the plain conjunction
    for (std::size_t k = 0; k < clusters_.size(); ++k) {
        acc = mgr_->and_exists(acc, clusters_[k], cubes_[k]);
    }
    return acc;
}

void quant_schedule::describe(relation_stats& stats) const {
    stats.quantified_per_cluster.clear();
    for (const std::vector<std::uint32_t>& retired : retired_) {
        stats.quantified_per_cluster.push_back(retired.size());
    }
    stats.leading_quantified = leading_.size();
}

} // namespace leq
