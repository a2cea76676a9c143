/// \file schedule.hpp
/// \brief Cost-driven quantification scheduling over a fixed cluster list.
///
/// Given clusters {c_1..c_n} and a set of variables Q to eliminate, a
/// `quant_schedule` fixes the order in which clusters are conjoined and
/// computes, per scheduled cluster, the exact set of quantified variables
/// that *die* there — variables appearing in no later cluster — so each
/// variable is existentially quantified at the earliest point soundness
/// allows (IWLS95-style early quantification):
///
///     apply(from, c) = exists Q . c_1 & ... & c_n & from & c
///
/// The order is cost-driven and greedy: each step picks the cluster
/// maximizing retired-minus-activated quantified variables.  Variables in Q
/// that occur in no cluster at all are quantified straight out of
/// `from & c` before the chain starts; the chain is then one binary
/// and-exists per cluster.
#pragma once

#include "bdd/bdd.hpp"

#include <cstdint>
#include <vector>

namespace leq {

/// Per-relation statistics.  The static fields (quantified variable
/// counts) are filled at schedule construction; `images` accumulates across
/// image calls.
struct relation_stats {
    std::vector<std::size_t> quantified_per_cluster; ///< vars dying per cluster
    std::size_t leading_quantified = 0; ///< vars in no cluster (from-only)
    std::size_t images = 0;             ///< image() calls served
};

/// An executable quantification schedule (order + per-cluster retire cubes).
class quant_schedule {
public:
    quant_schedule() = default;

    quant_schedule(bdd_manager& mgr, const std::vector<bdd>& clusters,
                   const std::vector<std::uint32_t>& quantify);

    /// exists quantify . (AND clusters) & from & constraint.  The leading
    /// quantification conjoins the constraint into `from` (one binary
    /// and-exists over the leading cube; when every quantified variable
    /// occurs in a cluster that cube is TRUE and the step is the plain
    /// `from & constraint`); then each scheduled cluster
    /// is one binary and-exists over the variables dying there.
    [[nodiscard]] bdd apply(const bdd& from, const bdd& constraint) const;

    [[nodiscard]] std::size_t num_clusters() const { return clusters_.size(); }

    /// Copy the static schedule shape into a stats block.
    void describe(relation_stats& stats) const;

private:
    bdd_manager* mgr_ = nullptr;
    std::vector<bdd> clusters_; ///< scheduled order
    std::vector<bdd> cubes_;    ///< per cluster: cube of `retired_[k]`
    std::vector<std::vector<std::uint32_t>> retired_;
    std::vector<std::uint32_t> leading_;
    bdd leading_cube_;
};

} // namespace leq
