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
///
/// The same rule applied to the operands: a quantified variable x that
/// occurs in one cluster c_k only is *private* to it, and when x occurs in
/// neither `from` nor `c` either,
///
///     exists x . (from & c & ... & c_k & ...) = from & c & ... & (exists x . c_k) & ...
///
/// so x can be quantified out of c_k once, ahead of every chain, instead of
/// inside every image.  A variable's id is its level, so the private
/// variables strictly below the deepest variable of `c` and above the top
/// variable of `from` (the *window*) are absent from both.  In the solver's
/// images (`c` TRUE, `from` a subset over current-state variables) the
/// window is the hidden and choice inputs; in the verification walks it
/// stops at the CSF label's deepest (u,v) variable.  The folded clusters
/// and their reduced retire cubes are built on first use and kept, one
/// entry per window.
#pragma once

#include "bdd/bdd.hpp"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace leq {

/// Per-relation statistics, accumulated across image calls.
struct relation_stats {
    std::size_t images = 0; ///< image() calls served
};

/// An executable quantification schedule (order + per-cluster retire cubes).
class quant_schedule {
public:
    quant_schedule() = default;

    /// \param fold_private quantify private variables out of their cluster
    ///        ahead of the chain (see the file comment); false keeps every
    ///        variable inside the chain, as the naive reference product does
    quant_schedule(bdd_manager& mgr, const std::vector<bdd>& clusters,
                   const std::vector<std::uint32_t>& quantify,
                   bool fold_private);

    /// exists quantify . (AND clusters) & from & constraint.  A FALSE
    /// operand returns FALSE at once.  Otherwise the private variables in
    /// the window — strictly below the deepest variable of the constraint's
    /// support (no bound when the constraint is TRUE; its support is never
    /// read) and above the top variable of `from` — are already quantified
    /// out of their clusters, by the identity in the file comment; an empty
    /// window runs the unfolded clusters.  The leading quantification
    /// conjoins the constraint into `from` (one binary and-exists over the
    /// leading cube; when every quantified variable occurs in a cluster
    /// that cube is TRUE and the step is the plain `from & constraint`);
    /// then each scheduled cluster is one binary and-exists over the
    /// variables dying there and not folded.
    [[nodiscard]] bdd apply(const bdd& from, const bdd& constraint) const;

    [[nodiscard]] std::size_t num_clusters() const {
        return chain_.clusters.size();
    }

private:
    /// Clusters in scheduled order, each with the cube it retires.
    struct cluster_chain {
        std::vector<bdd> clusters;
        std::vector<bdd> cubes;
    };

    /// The chain with private_[lo, hi) folded, built on first use.
    const cluster_chain& folded(std::size_t lo, std::size_t hi) const;

    bdd_manager* mgr_ = nullptr;
    cluster_chain chain_; ///< nothing folded: cubes[k] is cube(retired_[k])
    std::vector<std::vector<std::uint32_t>> retired_;
    bdd leading_cube_;
    std::vector<std::uint32_t> private_; ///< in exactly one cluster, ascending
    std::vector<std::size_t> owner_;     ///< scheduled cluster of private_[k]
    mutable std::map<std::pair<std::size_t, std::size_t>, cluster_chain>
        folds_; ///< keyed by the window's index pair in private_
};

} // namespace leq
