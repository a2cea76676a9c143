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
///     apply(from) = exists Q . c_1 & ... & c_n & from
///
/// The order is cost-driven and greedy: each step picks the cluster
/// maximizing retired-minus-activated quantified variables.  Variables in Q
/// that occur in no cluster at all are quantified straight out of `from`
/// before the chain starts.
#pragma once

#include "bdd/bdd.hpp"
#include "rel/deadline.hpp"

#include <cstdint>
#include <vector>

namespace leq {

/// Per-relation statistics.  The static fields (cluster sizes, quantified
/// variable counts) are filled at schedule construction; the counters and
/// `peak_intermediate` accumulate across image calls
/// (`peak_intermediate` only when the relation was built with
/// `collect_stats`, because measuring it costs a DAG traversal per step).
struct relation_stats {
    std::vector<std::size_t> cluster_sizes;          ///< per scheduled cluster
    std::vector<std::size_t> quantified_per_cluster; ///< vars dying per cluster
    std::size_t leading_quantified = 0; ///< vars in no cluster (from-only)
    std::size_t images = 0;             ///< image() calls served
    std::size_t peak_intermediate = 0;  ///< max partial-product DAG size
};

/// An executable quantification schedule (order + per-cluster retire cubes).
class quant_schedule {
public:
    quant_schedule() = default;

    quant_schedule(bdd_manager& mgr, const std::vector<bdd>& clusters,
                   const std::vector<std::uint32_t>& quantify);

    /// exists quantify . (AND clusters) & from.  Checks `deadline` before
    /// the leading quantification and between chain steps, *and* arms the
    /// manager's op-level deadline for the duration — so a single long
    /// and_exists run is interrupted from the inside instead of running to
    /// completion past the budget.  A bdd_deadline_exceeded thrown by the
    /// manager (including one from a manually armed set_op_deadline) is
    /// translated to relation_deadline_exceeded.  `stats` (optional)
    /// receives peak intermediate sizes.
    [[nodiscard]] bdd apply(const bdd& from, const relation_deadline& deadline,
                            relation_stats* stats) const {
        return apply(from, nullptr, deadline, stats);
    }

    /// Same, with one extra conjunct: the leading quantification conjoins
    /// it into `from` with one binary and-exists over the leading cube,
    /// through the computed cache.  When every quantified variable occurs
    /// in a cluster the leading cube is TRUE and that step is the plain
    /// `from & *constraint`.  The constraint never joins an n-ary chain
    /// step.  `constraint` may be null.
    [[nodiscard]] bdd apply(const bdd& from, const bdd* constraint,
                            const relation_deadline& deadline,
                            relation_stats* stats) const;

    [[nodiscard]] std::size_t num_clusters() const { return clusters_.size(); }
    /// Clusters in scheduled order.
    [[nodiscard]] const std::vector<bdd>& clusters() const { return clusters_; }
    /// Quantified variables dying at each scheduled cluster.
    [[nodiscard]] const std::vector<std::vector<std::uint32_t>>&
    retired() const {
        return retired_;
    }
    /// Quantified variables occurring in no cluster.
    [[nodiscard]] const std::vector<std::uint32_t>& leading() const {
        return leading_;
    }

    /// Copy the static schedule shape into a stats block.
    void describe(bdd_manager& mgr, relation_stats& stats) const;

private:
    /// The chain itself (leading quantification + n-ary steps); apply()
    /// wraps it with the op-deadline guard and the exception translation.
    [[nodiscard]] bdd apply_steps(const bdd& from, const bdd* constraint,
                                  const relation_deadline& deadline,
                                  relation_stats* stats) const;

    bdd_manager* mgr_ = nullptr;
    std::vector<bdd> clusters_; ///< scheduled order
    std::vector<bdd> cubes_;    ///< per cluster: cube of `retired_[k]`
    std::vector<std::vector<std::uint32_t>> retired_;
    std::vector<std::uint32_t> leading_;
    bdd leading_cube_;
    /// Batches for the n-ary and-exists: `run_end_[k]` is one past the last
    /// cluster of the k-th chain step; a step spans consecutive clusters of
    /// which only the last retires variables (empty-retire clusters are fused
    /// into their successor instead of paying a full binary and_exists each).
    std::vector<std::size_t> run_end_;
};

} // namespace leq
