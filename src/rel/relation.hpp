/// \file relation.hpp
/// \brief The shared transition-relation subsystem.
///
/// The paper's central move is running every language-equation step over
/// *partitioned* relations with early quantification.  `transition_relation`
/// makes that representation a first-class object: it owns the partition
/// parts, their variable-support metadata, the merged clusters (greedy
/// adjacent merge, see rel/cluster.hpp) and a per-cluster quantification
/// schedule (rel/schedule.hpp), and serves `image(from)` with per-call
/// statistics.  Every relation consumer — both solver flows, verification
/// and diagnosis — routes its conjunction chains through this layer instead
/// of hand-rolling and_exists loops.
///
/// Ownership and thread-safety: a `transition_relation` borrows the
/// manager passed at construction and holds BDD handles into it — the
/// manager must outlive the relation.  Like the manager itself, a relation
/// is confined to one thread: `image()` mutates the manager's computed
/// cache and the relation's own statistics.  Every image runs one
/// sequential `quant_schedule::apply` chain on the caller's thread; the
/// only concurrency in the library is the `leq batch` campaign runner,
/// whose workers each own a whole solve — manager and relations — shared
/// nothing (see eq/solver.hpp and src/cli/batch.cpp).
#pragma once

#include "rel/cluster.hpp"
#include "rel/schedule.hpp"

#include <cstdint>
#include <vector>

namespace leq {

/// Options for the relation layer (`solve_options::img` plumbs this through
/// both solver flows).
struct image_options {
    /// Quantify variables at their last occurrence instead of at the end.
    bool early_quantification = true;
    /// Merged-cluster node bound (see rel/cluster.hpp); 0 disables merging.
    std::size_t cluster_limit = 2500;
    /// TEST-ONLY fault injection.  When set to a variable id, every
    /// image() result is wrongly constrained to that variable
    /// being 0 (successors with the variable at 1 are silently dropped) —
    /// a controlled stand-in for an image-engine bug.  The differential
    /// fuzz harness's self-tests (src/gen/, tests/test_gen.cpp) use it to
    /// prove the cross-flow oracle catches such bugs and that the shrinker
    /// reduces them to minimal reproducers.  Never set on real workloads.
    static constexpr std::uint32_t no_fault = 0xffffffffu;
    std::uint32_t fault_suppress_var = no_fault;
};

/// A conjunctively partitioned relation with a quantification schedule.
///
/// It represents  R(free) = exists Q . p_1 & ... & p_n  and serves
/// image(from) = exists Q . p_1 & ... & p_n & from.
class transition_relation {
public:
    /// \param parts relation conjuncts
    /// \param quantify variables to existentially quantify in image()
    transition_relation(bdd_manager& mgr, std::vector<bdd> parts,
                        std::vector<std::uint32_t> quantify,
                        const image_options& options = {});

    /// Image of `from` under the relation: exists Q . (AND parts) & from,
    /// renamed by `rename_result` when set.
    [[nodiscard]] bdd image(const bdd& from) const;

    /// Image of `from & constraint`, the constraint conjoined into `from`
    /// by the schedule's leading and-exists — the form the verification
    /// walkers use for per-transition labels.
    [[nodiscard]] bdd image(const bdd& from, const bdd& constraint) const;

    /// Install a variable renaming applied to every image() result (e.g. the
    /// ns->cs swap, so a walker loop needs no separate permute step).
    void rename_result(std::vector<std::uint32_t> perm) {
        result_perm_ = std::move(perm);
    }

    [[nodiscard]] std::size_t num_parts() const { return parts_.size(); }
    [[nodiscard]] std::size_t num_clusters() const {
        return image_schedule_.num_clusters();
    }
    /// Accumulated per-call statistics (see relation_stats).
    [[nodiscard]] const relation_stats& stats() const { return stats_; }

private:
    void build(const std::vector<std::uint32_t>& quantify);

    bdd_manager* mgr_;
    std::vector<bdd> parts_;
    std::vector<bdd> clusters_;
    image_options options_;
    quant_schedule image_schedule_;
    std::vector<std::uint32_t> result_perm_; ///< empty = identity
    mutable relation_stats stats_;
};

} // namespace leq
