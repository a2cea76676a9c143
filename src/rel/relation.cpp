/// \file relation.cpp
/// \brief transition_relation: clustering + schedule assembly, image
/// execution, statistics.

#include "rel/relation.hpp"

namespace leq {

transition_relation::transition_relation(bdd_manager& mgr,
                                         std::vector<bdd> parts,
                                         std::vector<std::uint32_t> quantify,
                                         const image_options& options)
    : mgr_(&mgr), parts_(std::move(parts)), options_(options) {
    build(quantify);
}

void transition_relation::build(const std::vector<std::uint32_t>& quantify) {
    if (!options_.early_quantification) {
        // naive/monolithic mode (ablation baseline): one big conjunction,
        // every variable quantified at the end
        bdd product = mgr_->one();
        for (const bdd& p : parts_) { product &= p; }
        clusters_ = {product};
    } else {
        clusters_ = cluster_parts(*mgr_, parts_, options_.cluster_limit);
    }
    // the naive product is the differential reference, so nothing is
    // folded out of it ahead of the chain
    image_schedule_ = quant_schedule(*mgr_, clusters_, quantify,
                                     options_.early_quantification);
}

bdd transition_relation::image(const bdd& from) const {
    // the constrained form with a TRUE conjunct runs exactly the
    // unconstrained chain: and-exists against TRUE is the plain exists
    return image(from, mgr_->one());
}

bdd transition_relation::image(const bdd& from, const bdd& constraint) const {
    ++stats_.images;
    bdd result = image_schedule_.apply(from, constraint);
    if (options_.fault_suppress_var != image_options::no_fault) {
        result &= mgr_->literal(options_.fault_suppress_var, false);
    }
    if (!result_perm_.empty()) {
        result = mgr_->permute(result, result_perm_);
    }
    return result;
}

} // namespace leq
