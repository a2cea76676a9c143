/// \file bdd_split.cpp
/// \brief Cofactor classes of a function over the top block of the order.
///
/// The subset construction splits every image into its classes over the
/// (u,v) block.  The region above the boundary is numbered once, in one
/// depth-first walk keyed by tagged reference (a node reached in both
/// phases has different children in each).  Each class guard is then
/// rebuilt bottom-up over that numbering with `mk` alone: the region's
/// variables sit above every leaf in a fixed order, so (var, lo, hi) is
/// already canonical and no ITE is needed.  No collection runs between the
/// entry and the handles made at the end, so the raw references in between
/// stay valid.

#include "bdd/bdd.hpp"
#include "bdd/bdd_core.hpp"

#include <cassert>

namespace leq {

namespace {
/// Initial slot count of the numbering table (a power of two).
constexpr std::size_t split_initial_slots = 64;

std::size_t split_hash(std::uint32_t r, std::size_t mask) {
    std::uint64_t h = r * 0x9e3779b97f4a7c15ull;
    h ^= h >> 32;
    return static_cast<std::size_t>(h) & mask;
}
} // namespace

std::uint32_t bdd_manager::split_find(std::uint32_t r) const {
    const std::size_t mask = split_table_.size() - 1;
    for (std::size_t s = split_hash(r, mask);; s = (s + 1) & mask) {
        if (split_table_[s].ref == r) { return split_table_[s].code; }
        if (split_table_[s].ref == idx_nil) { return idx_nil; }
    }
}

void bdd_manager::split_insert(std::uint32_t r, std::uint32_t code) {
    // keep the table at most half full, so every probe ends soon
    if (2 * (split_used_.size() + 1) > split_table_.size()) {
        std::vector<split_slot> old(split_table_.size() * 2,
                                    split_slot{idx_nil, idx_nil});
        old.swap(split_table_);
        std::vector<std::uint32_t> used;
        used.swap(split_used_);
        for (const std::uint32_t s : used) {
            split_insert(old[s].ref, old[s].code);
        }
    }
    const std::size_t mask = split_table_.size() - 1;
    std::size_t s = split_hash(r, mask);
    while (split_table_[s].ref != idx_nil) { s = (s + 1) & mask; }
    split_table_[s] = {r, code};
    split_used_.push_back(static_cast<std::uint32_t>(s));
}

std::uint32_t bdd_manager::split_number(std::uint32_t r,
                                        std::uint32_t boundary) {
    if (r == 0) { return split_false; }
    std::uint32_t code = split_find(r);
    if (code != idx_nil) { return code; }
    if (r == 1 || var_of(r) >= boundary) {
        // a leaf is numbered on its first visit
        code = split_leaf | static_cast<std::uint32_t>(split_leaves_.size());
        split_leaves_.push_back(r);
    } else {
        const std::uint32_t lo = split_number(lo_of(r), boundary);
        const std::uint32_t hi = split_number(hi_of(r), boundary);
        // a DAG never reaches r again before r is finished, so numbering it
        // here, after its children, puts children before parents
        code = static_cast<std::uint32_t>(split_region_.size());
        split_region_.push_back({var_of(r), lo, hi});
    }
    split_insert(r, code);
    return code;
}

std::vector<bdd_cofactor_class>
bdd_manager::cofactor_classes(const bdd& f, std::uint32_t boundary) {
    checked_guard("cofactor_classes", f);
    assert(f.manager() == this);
    maybe_gc_or_grow();
    const std::uint32_t root = f.index();
    if (root == 0) { return {}; }
    if (root == 1 || var_of(root) >= boundary) {
        std::vector<bdd_cofactor_class> single;
        single.push_back({make(1), make(root)});
        return single;
    }

    // empty what the last split filled: the table through its used-slot
    // list, so a reset costs that split's entries, not the table
    if (split_table_.empty()) {
        split_table_.assign(split_initial_slots, split_slot{idx_nil, idx_nil});
    }
    for (const std::uint32_t s : split_used_) {
        split_table_[s] = {idx_nil, idx_nil};
    }
    split_used_.clear();
    split_region_.clear();
    split_leaves_.clear();
    split_number(root, boundary);

    // one bottom-up pass per leaf: that leaf reads TRUE, every other leaf
    // FALSE; the root, numbered last, ends as the class guard
    const std::size_t region = split_region_.size();
    split_value_.resize(region);
    std::vector<std::uint32_t> guards;
    guards.reserve(split_leaves_.size());
    for (std::uint32_t k = 0; k < split_leaves_.size(); ++k) {
        const std::uint32_t mine = split_leaf | k;
        const auto value = [&](std::uint32_t code) {
            if ((code & split_leaf) == 0) { return split_value_[code]; }
            return code == mine ? 1u : 0u;
        };
        for (std::size_t i = 0; i < region; ++i) {
            const split_node n = split_region_[i];
            split_value_[i] = mk(n.var, value(n.lo), value(n.hi));
        }
        guards.push_back(split_value_[region - 1]);
    }

    std::vector<bdd_cofactor_class> classes;
    classes.reserve(guards.size());
    for (std::size_t k = 0; k < guards.size(); ++k) {
        classes.push_back({make(guards[k]), make(split_leaves_[k])});
    }
    return classes;
}

} // namespace leq
