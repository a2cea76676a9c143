/// \file bdd_subst.cpp
/// \brief Variable renaming (permute).
///
/// Renaming commutes with complementation, so the recursion memoizes on the
/// *regular* reference only and XORs the caller's complement bit back into
/// the result — halving memo pressure and making f / !f renames share all
/// work.

#include "bdd/bdd.hpp"
#include "bdd/bdd_core.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace leq {

void bdd_manager::subst_memo_drop(const char* operation) {
    for (const std::uint32_t n : subst_touched_) { subst_memo_[n] = idx_nil; }
    subst_touched_.clear();
    checked_subst_memo_guard(operation);
}

std::uint32_t bdd_manager::subst_rebuild(std::uint32_t var, std::uint32_t r0,
                                         std::uint32_t r1) {
    // var lies strictly above both children's top variables (the
    // terminal's var_nil sorts below every id): the node is already in
    // canonical position, so the unique table builds it directly.
    // Otherwise var lands inside a child and a full ITE merges it in.
    if (var < var_of(r0) && var < var_of(r1)) { return mk(var, r0, r1); }
    return ite_rec(mk(var, 0, 1), r1, r0);
}

bdd bdd_manager::permute(const bdd& f, const std::vector<std::uint32_t>& perm) {
    checked_guard("permute", f);
    assert(f.manager() == this);
    for (const std::uint32_t v : perm) {
        if (v >= num_vars()) {
            throw std::invalid_argument("permute: entry " + std::to_string(v) +
                                        " is not a variable");
        }
    }
    maybe_gc_or_grow();
    // the memo's entries hold for the permutation they were computed under
    if (perm != subst_perm_) {
        subst_memo_drop("permute");
        subst_perm_ = perm;
    }
    subst_memo_fit();
    try {
        return make(permute_rec(f.index(), perm));
    } catch (...) {
        subst_memo_drop("permute");
        throw;
    }
}

std::uint32_t bdd_manager::permute_rec(std::uint32_t f,
                                       const std::vector<std::uint32_t>& perm) {
    if (is_terminal(f)) { return f; }
    const std::uint32_t out = comp_of(f);
    const std::uint32_t n = node_of(f);
    if (subst_memo_[n] != idx_nil) { return subst_memo_[n] ^ out; }
    const node nf = nodes_[n];
    if (nf.var >= perm.size()) {
        throw std::invalid_argument("permute: variable " +
                                    std::to_string(nf.var) +
                                    " in the support has no entry");
    }
    const std::uint32_t r0 = permute_rec(nf.lo, perm);
    const std::uint32_t r1 = permute_rec(nf.hi, perm);
    const std::uint32_t result = subst_rebuild(perm[nf.var], r0, r1);
    subst_memo_store(n, result);
    return result ^ out;
}

} // namespace leq
