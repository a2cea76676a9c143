/// \file schedule.cpp
/// \brief Schedule construction (cost-driven greedy order, exact
/// per-cluster retirement sets, private variables) and execution.

#include "rel/schedule.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace leq {

quant_schedule::quant_schedule(bdd_manager& mgr,
                               const std::vector<bdd>& clusters,
                               const std::vector<std::uint32_t>& quantify,
                               bool fold_private)
    : mgr_(&mgr), leading_cube_(mgr.one()) {
    const std::unordered_set<std::uint32_t> qset(quantify.begin(),
                                                 quantify.end());
    // quantified support per cluster
    std::vector<std::vector<std::uint32_t>> qsupport(clusters.size());
    std::unordered_map<std::uint32_t, std::size_t> occurrences;
    for (std::size_t k = 0; k < clusters.size(); ++k) {
        for (const std::uint32_t v : mgr.support(clusters[k])) {
            if (qset.count(v) != 0) {
                qsupport[k].push_back(v);
                ++occurrences[v];
            }
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

    chain_.clusters.reserve(order.size());
    chain_.cubes.reserve(order.size());
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        chain_.clusters.push_back(clusters[order[pos]]);
        chain_.cubes.push_back(mgr.cube(retired_[pos]));
    }

    // private variables: a variable in one cluster only dies there
    if (!fold_private) { return; }
    std::vector<std::pair<std::uint32_t, std::size_t>> owned;
    for (std::size_t pos = 0; pos < retired_.size(); ++pos) {
        for (const std::uint32_t v : retired_[pos]) {
            if (occurrences[v] == 1) { owned.emplace_back(v, pos); }
        }
    }
    std::sort(owned.begin(), owned.end());
    for (const auto& [v, pos] : owned) {
        private_.push_back(v);
        owner_.push_back(pos);
    }
}

const quant_schedule::cluster_chain&
quant_schedule::folded(std::size_t lo, std::size_t hi) const {
    const auto key = std::make_pair(lo, hi);
    if (const auto it = folds_.find(key); it != folds_.end()) {
        return it->second;
    }
    // built aside and inserted whole, so a deadline that interrupts the
    // folding leaves no partial entry
    std::vector<std::vector<std::uint32_t>> window(retired_.size());
    for (std::size_t k = lo; k < hi; ++k) {
        window[owner_[k]].push_back(private_[k]);
    }
    cluster_chain chain = chain_;
    for (std::size_t pos = 0; pos < window.size(); ++pos) {
        if (window[pos].empty()) { continue; }
        chain.clusters[pos] =
            mgr_->exists(chain.clusters[pos], mgr_->cube(window[pos]));
        std::vector<std::uint32_t> rest;
        for (const std::uint32_t v : retired_[pos]) {
            if (std::find(window[pos].begin(), window[pos].end(), v) ==
                window[pos].end()) {
                rest.push_back(v);
            }
        }
        chain.cubes[pos] = mgr_->cube(rest);
    }
    return folds_.emplace(key, std::move(chain)).first->second;
}

bdd quant_schedule::apply(const bdd& from, const bdd& constraint) const {
    if (from.is_zero() || constraint.is_zero()) { return mgr_->zero(); }
    // the window of private variables in neither operand: above `from`'s
    // top variable and strictly below the constraint's deepest one
    const std::size_t hi =
        from.is_one()
            ? private_.size()
            : static_cast<std::size_t>(
                  std::lower_bound(private_.begin(), private_.end(),
                                   from.top_var()) -
                  private_.begin());
    std::size_t lo = 0;
    if (hi > 0 && !constraint.is_one()) {
        // the support cube's last variable is the deepest one
        bdd deepest = mgr_->support_cube(constraint);
        while (!deepest.high().is_const()) { deepest = deepest.high(); }
        lo = static_cast<std::size_t>(
            std::upper_bound(private_.begin(), private_.end(),
                             deepest.top_var()) -
            private_.begin());
    }
    const cluster_chain& chain = lo < hi ? folded(lo, hi) : chain_;
    // leading quantification, with the extra conjunct conjoined into `from`
    // (against TRUE the and-exists is the plain exists).  In the verify and
    // diagnose walks `from` is a state set and the constraint a CSF label,
    // over disjoint supports, so the conjunction stays small
    bdd acc = mgr_->and_exists(from, constraint, leading_cube_);
    // one cached binary and-exists per cluster; a cluster that retires
    // nothing has a TRUE cube, and the step is the plain conjunction
    for (std::size_t k = 0; k < chain.clusters.size(); ++k) {
        acc = mgr_->and_exists(acc, chain.clusters[k], chain.cubes[k]);
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
