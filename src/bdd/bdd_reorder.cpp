/// \file bdd_reorder.cpp
/// \brief Dynamic variable reordering: adjacent-level swaps, Rudell sifting,
/// and exact-order reordering on a live graph.
///
/// The package addresses nodes by stable indices, so reordering rewrites
/// nodes *in place*: after a swap every node index still denotes the same
/// Boolean function (as a regular reference), which keeps all external
/// handles (and the computed cache) valid.  Complement edges add one
/// obligation — the rewritten node's then-edge must stay regular — and one
/// gift: it does so automatically.  The classic argument that the in-place
/// rewrite cannot collide with an existing unique-table entry is spelled
/// out at swap_levels below.
///
/// Bookkeeping during a reorder uses a dedicated internal reference count
/// (`rc_`, per node; the complement bit of an edge is irrelevant for
/// liveness): external roots contribute one reference, live parents one
/// each.  Nodes whose count drops to zero are left physically in the arena
/// and in the unique table — they may be resurrected by a later swap
/// requesting the same (var,lo,hi) triple — and are reclaimed by the
/// mark-and-sweep collection that ends the reorder.

#include "bdd/bdd.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

namespace leq {

// ---------------------------------------------------------------------------
// unique-table removal (bucket chains are singly linked)
// ---------------------------------------------------------------------------

void bdd_manager::unique_remove(std::uint32_t idx) {
    const node& n = nodes_[idx];
    const std::uint64_t hh = node_hash(n.var, n.lo, n.hi);
    std::uint32_t* link = &buckets_[hh & (buckets_.size() - 1)];
    while (*link != idx_nil) {
        if (*link == idx) {
            *link = chain_[idx];
            return;
        }
        link = &chain_[*link];
    }
    assert(false && "unique_remove: node not in table");
}

// ---------------------------------------------------------------------------
// reorder-scoped reference counting
// ---------------------------------------------------------------------------

void bdd_manager::rc_incref(std::uint32_t ref) {
    const std::uint32_t n = node_of(ref);
    if (n == 0) { return; }
    if (rc_[n]++ == 0) {
        // fresh or resurrected: its children regain one reference each
        ++alive_;
        rc_incref(nodes_[n].lo);
        rc_incref(nodes_[n].hi);
    }
}

void bdd_manager::rc_deref(std::uint32_t ref) {
    const std::uint32_t n = node_of(ref);
    if (n == 0) { return; }
    assert(rc_[n] > 0);
    if (--rc_[n] == 0) {
        --alive_;
        rc_deref(nodes_[n].lo);
        rc_deref(nodes_[n].hi);
    }
}

std::uint32_t bdd_manager::reorder_mk(std::uint32_t var, std::uint32_t lo,
                                      std::uint32_t hi) {
    const std::uint32_t ref = mk(var, lo, hi);
    const std::uint32_t n = node_of(ref);
    if (rc_.size() < nodes_.size()) { rc_.resize(nodes_.size(), 0); }
    // track fresh nodes for future swaps of this variable; duplicates in the
    // list are harmless (iteration re-checks var and rc)
    if (n != 0 && rc_[n] == 0 && nodes_[n].var == var) {
        var_nodes_[var].push_back(n);
    }
    return ref;
}

void bdd_manager::reorder_begin() {
    collect_garbage(); // start from live-only arena; ages/purges the cache
    rc_.assign(nodes_.size(), 0);
    var_nodes_.assign(num_vars(), {});
    alive_ = 0;
    for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
        if (ext_ref_[i] > 0) { rc_incref(i << 1); }
    }
    for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
        if (rc_[i] > 0) { var_nodes_[nodes_[i].var].push_back(i); }
    }
}

void bdd_manager::reorder_end() {
    rc_.clear();
    var_nodes_.clear();
    collect_garbage(); // reclaim reorder garbage; rebuilds table, purges the
                       // cache entries that referenced it
    ++stats_.reorderings;
}

std::size_t bdd_manager::var_node_count(std::uint32_t var) const {
    std::size_t count = 0;
    for (const std::uint32_t idx : var_nodes_[var]) {
        if (nodes_[idx].var == var && rc_[idx] > 0) { ++count; }
    }
    return count;
}

// ---------------------------------------------------------------------------
// adjacent-level swap
// ---------------------------------------------------------------------------

std::size_t bdd_manager::swap_levels(std::uint32_t level) {
    assert(level + 1 < num_vars());
    const std::uint32_t x = level2var_[level];
    const std::uint32_t y = level2var_[level + 1];

    // Swap the level maps first so mk() creates x-nodes below y.
    std::swap(level2var_[level], level2var_[level + 1]);
    std::swap(var2level_[x], var2level_[y]);

    // Only x-nodes with a y-child change representation; x-nodes without one
    // simply sink a level unchanged.  The in-place rewrite of such a node to
    // (y, A, B) can never collide with an existing table entry:
    //  * a pre-swap y-node cannot have an x-node child (x was above y), while
    //    the rewrite always produces at least one x-child: were both new
    //    children below x, the node's two original cofactors would have been
    //    equal — impossible for a canonical node;
    //  * two rewrites in the same sweep mapping to the same (y, A, B) would
    //    have to start from identical (x, F0, F1) keys — the table held at
    //    most one.
    // Complement-edge invariant: the node's stored then-edge F1 is regular
    // and (being canonical) F1's own then-edge F11 is regular, so the new
    // then-child B = mk(x, F01, F11) — whose then-operand is F11 — comes
    // back regular, and the rewritten (y, A, B) node is canonical as-is.
    const std::vector<std::uint32_t> snapshot = var_nodes_[x];
    for (const std::uint32_t idx : snapshot) {
        if (nodes_[idx].var != x || rc_[idx] == 0) { continue; }
        const std::uint32_t f0 = nodes_[idx].lo; // may carry a complement bit
        const std::uint32_t f1 = nodes_[idx].hi; // regular by the invariant
        const bool d0 = !is_terminal(f0) && nodes_[node_of(f0)].var == y;
        const bool d1 = !is_terminal(f1) && nodes_[node_of(f1)].var == y;
        if (!d0 && !d1) { continue; }
        const std::uint32_t f00 = d0 ? lo_of(f0) : f0;
        const std::uint32_t f01 = d0 ? hi_of(f0) : f0;
        const std::uint32_t f10 = d1 ? lo_of(f1) : f1;
        const std::uint32_t f11 = d1 ? hi_of(f1) : f1;
        const std::uint32_t a = reorder_mk(x, f00, f10); // y = 0 branch
        rc_incref(a); // protect while building the other branch
        const std::uint32_t b = reorder_mk(x, f01, f11); // y = 1 branch
        rc_incref(b);
        assert(!is_comp(b) && "swap must keep the then-edge regular");
        unique_remove(idx);
        rc_deref(f0);
        rc_deref(f1);
        nodes_[idx].var = y;
        nodes_[idx].lo = a;
        nodes_[idx].hi = b;
        unique_insert(idx);
        var_nodes_[y].push_back(idx);
    }
    return alive_;
}

// ---------------------------------------------------------------------------
// sifting
// ---------------------------------------------------------------------------

void bdd_manager::sift_core(std::uint32_t var, double max_growth) {
    const std::uint32_t levels = num_vars();
    if (levels < 2) { return; }
    std::size_t best_size = alive_;
    std::uint32_t best_level = var2level_[var];

    const auto track = [&] {
        if (alive_ < best_size) {
            best_size = alive_;
            best_level = var2level_[var];
        }
    };
    const auto go_down = [&] {
        while (var2level_[var] + 1 < levels) {
            swap_levels(var2level_[var]);
            track();
            if (static_cast<double>(alive_) >
                max_growth * static_cast<double>(best_size)) {
                break;
            }
        }
    };
    const auto go_up = [&] {
        while (var2level_[var] > 0) {
            swap_levels(var2level_[var] - 1);
            track();
            if (static_cast<double>(alive_) >
                max_growth * static_cast<double>(best_size)) {
                break;
            }
        }
    };

    // explore the nearer end first, then sweep to the other
    if (var2level_[var] * 2 > levels) {
        go_down();
        go_up();
    } else {
        go_up();
        go_down();
    }
    // settle at the best level seen
    while (var2level_[var] > best_level) { swap_levels(var2level_[var] - 1); }
    while (var2level_[var] < best_level) { swap_levels(var2level_[var]); }
}

std::size_t bdd_manager::reorder_sift(double max_growth) {
    checked_guard("reorder_sift");
    reorder_begin();
    // sift variables in decreasing order of node count (Rudell's heuristic)
    std::vector<std::uint32_t> vars(num_vars());
    std::iota(vars.begin(), vars.end(), 0u);
    std::vector<std::size_t> counts(num_vars());
    for (const std::uint32_t v : vars) { counts[v] = var_node_count(v); }
    std::sort(vars.begin(), vars.end(), [&](std::uint32_t a, std::uint32_t b) {
        return counts[a] > counts[b];
    });
    for (const std::uint32_t v : vars) {
        if (counts[v] == 0) { continue; } // variable absent from all supports
        sift_core(v, max_growth);
    }
    reorder_end();
    return stats_.live_nodes;
}

std::size_t bdd_manager::sift_one(std::uint32_t var, double max_growth) {
    checked_guard("sift_one");
    assert(var < num_vars());
    reorder_begin();
    sift_core(var, max_growth);
    reorder_end();
    return stats_.live_nodes;
}

void bdd_manager::reorder_to(const std::vector<std::uint32_t>& order) {
    checked_guard("reorder_to");
    if (order.size() != num_vars()) {
        throw std::invalid_argument("reorder_to: order size mismatch");
    }
    std::vector<char> seen(num_vars(), 0);
    for (const std::uint32_t v : order) {
        if (v >= num_vars() || seen[v]) {
            throw std::invalid_argument("reorder_to: not a permutation");
        }
        seen[v] = 1;
    }
    reorder_begin();
    // selection sort on levels: bubble each variable up to its target level;
    // levels above k are already final, so only upward swaps are needed
    for (std::uint32_t k = 0; k < order.size(); ++k) {
        const std::uint32_t v = order[k];
        assert(var2level_[v] >= k);
        while (var2level_[v] > k) { swap_levels(var2level_[v] - 1); }
    }
    reorder_end();
}

// ---------------------------------------------------------------------------
// group sifting
// ---------------------------------------------------------------------------

std::size_t bdd_manager::reorder_sift_groups(
    const std::vector<std::vector<std::uint32_t>>& groups, double max_growth) {
    checked_guard("reorder_sift_groups");
    // validate: a partition of all variables
    std::vector<char> seen(num_vars(), 0);
    std::size_t covered = 0;
    for (const auto& group : groups) {
        if (group.empty()) {
            throw std::invalid_argument("reorder_sift_groups: empty group");
        }
        for (const std::uint32_t v : group) {
            if (v >= num_vars() || seen[v]) {
                throw std::invalid_argument(
                    "reorder_sift_groups: groups must partition the "
                    "variables");
            }
            seen[v] = 1;
            ++covered;
        }
    }
    if (covered != num_vars()) {
        throw std::invalid_argument(
            "reorder_sift_groups: groups must cover every variable");
    }

    reorder_begin();

    // arrangement: group indices ordered by current topmost member; gather
    // each group into an adjacent block in that order (one reorder_to-style
    // bubbling pass)
    std::vector<std::size_t> arrangement(groups.size());
    std::iota(arrangement.begin(), arrangement.end(), std::size_t{0});
    std::sort(arrangement.begin(), arrangement.end(),
              [&](std::size_t a, std::size_t b) {
                  std::uint32_t la = num_vars(), lb = num_vars();
                  for (const std::uint32_t v : groups[a]) {
                      la = std::min(la, var2level_[v]);
                  }
                  for (const std::uint32_t v : groups[b]) {
                      lb = std::min(lb, var2level_[v]);
                  }
                  return la < lb;
              });
    {
        std::uint32_t level = 0;
        for (const std::size_t g : arrangement) {
            for (const std::uint32_t v : groups[g]) {
                assert(var2level_[v] >= level);
                while (var2level_[v] > level) {
                    swap_levels(var2level_[v] - 1);
                }
                ++level;
            }
        }
    }

    // block boundaries: position -> (group, top level); recomputed on the
    // fly from sizes since blocks stay contiguous from here on
    const auto block_size = [&](std::size_t pos) {
        return groups[arrangement[pos]].size();
    };
    const auto block_top = [&](std::size_t pos) {
        std::uint32_t level = 0;
        for (std::size_t k = 0; k < pos; ++k) {
            level += static_cast<std::uint32_t>(block_size(k));
        }
        return level;
    };
    // swap adjacent blocks at positions pos, pos+1 by bubbling each variable
    // of the lower block up past the upper block
    const auto block_swap = [&](std::size_t pos) {
        const std::uint32_t top = block_top(pos);
        const auto a = static_cast<std::uint32_t>(block_size(pos));
        const auto b = static_cast<std::uint32_t>(block_size(pos + 1));
        for (std::uint32_t k = 0; k < b; ++k) {
            // the k-th variable of the lower block sits at level top+a+k
            // and must rise to level top+k
            for (std::uint32_t step = 0; step < a; ++step) {
                swap_levels(top + a + k - step - 1);
            }
        }
        std::swap(arrangement[pos], arrangement[pos + 1]);
    };

    // sift blocks in decreasing node-count order
    std::vector<std::size_t> order(groups.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<std::size_t> weight(groups.size(), 0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (const std::uint32_t v : groups[g]) {
            weight[g] += var_node_count(v);
        }
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return weight[a] > weight[b];
    });

    for (const std::size_t g : order) {
        if (weight[g] == 0 || groups.size() < 2) { continue; }
        const auto position_of = [&] {
            for (std::size_t pos = 0; pos < arrangement.size(); ++pos) {
                if (arrangement[pos] == g) { return pos; }
            }
            assert(false);
            return std::size_t{0};
        };
        std::size_t best_size = alive_;
        std::size_t best_pos = position_of();
        const auto track = [&] {
            if (alive_ < best_size) {
                best_size = alive_;
                best_pos = position_of();
            }
        };
        const auto go_down = [&] {
            while (position_of() + 1 < arrangement.size()) {
                block_swap(position_of());
                track();
                if (static_cast<double>(alive_) >
                    max_growth * static_cast<double>(best_size)) {
                    break;
                }
            }
        };
        const auto go_up = [&] {
            while (position_of() > 0) {
                block_swap(position_of() - 1);
                track();
                if (static_cast<double>(alive_) >
                    max_growth * static_cast<double>(best_size)) {
                    break;
                }
            }
        };
        if (position_of() * 2 > arrangement.size()) {
            go_down();
            go_up();
        } else {
            go_up();
            go_down();
        }
        while (position_of() > best_pos) { block_swap(position_of() - 1); }
        while (position_of() < best_pos) { block_swap(position_of()); }
    }

    reorder_end();
    return stats_.live_nodes;
}

// ---------------------------------------------------------------------------
// structural consistency check (tests)
// ---------------------------------------------------------------------------

void bdd_manager::check_consistency() const {
    checked_guard("check_consistency");
    std::set<std::array<std::uint32_t, 3>> keys;
    std::vector<char> in_table(nodes_.size(), 0);
    // unique-table health: bucket-chain length histogram.  The table never
    // exceeds load factor 1 (the arena rehashes before outgrowing the
    // buckets), so with a healthy hash the longest chain stays logarithmic;
    // a pathological chain means the hash or the split chain_ array
    // regressed — catch it here before it shows up as bench noise.
    std::vector<std::size_t> chain_histogram;
    std::size_t max_chain = 0;
    for (const std::uint32_t head : buckets_) {
        std::size_t chain_len = 0;
        for (std::uint32_t i = head; i != idx_nil; i = chain_[i]) {
            ++chain_len;
            const node& n = nodes_[i];
            if (in_table[i]) {
                throw std::logic_error("bdd: node linked twice in table");
            }
            in_table[i] = 1;
            if (n.var == var_nil) {
                throw std::logic_error("bdd: terminal in unique table");
            }
            if (n.lo == n.hi) {
                throw std::logic_error("bdd: unreduced node (lo == hi)");
            }
            if (is_comp(n.hi)) {
                // this is also what forbids a node and its complement from
                // both sitting in the table: the complemented twin of a
                // canonical node necessarily has a complemented then-edge
                throw std::logic_error("bdd: complemented then-edge in table");
            }
            for (const std::uint32_t c : {n.lo, n.hi}) {
                if (node_of(c) >= nodes_.size()) {
                    throw std::logic_error("bdd: child out of range");
                }
                if (!is_terminal(c) &&
                    var2level_[nodes_[node_of(c)].var] <= var2level_[n.var]) {
                    throw std::logic_error("bdd: child level not below parent");
                }
            }
            if (!keys.insert({n.var, n.lo, n.hi}).second) {
                throw std::logic_error("bdd: duplicate (var,lo,hi) in table");
            }
        }
        if (chain_len >= chain_histogram.size()) {
            chain_histogram.resize(chain_len + 1, 0);
        }
        ++chain_histogram[chain_len];
        max_chain = std::max(max_chain, chain_len);
    }
    // at load factor <= 1 a uniform hash keeps the expected longest chain
    // around ln(n)/ln(ln(n)); 32 is far above that for any table this
    // manager can hold, so tripping it means node_hash degraded
    constexpr std::size_t max_healthy_chain = 32;
    if (max_chain > max_healthy_chain) {
        throw std::logic_error("bdd: unique-table chain exceeds health bound (" +
                               std::to_string(max_chain) + " > " +
                               std::to_string(max_healthy_chain) +
                               "), hash quality regressed");
    }
    // every node reachable from an externally referenced root must be
    // findable through the table — this is what catches bucket-chain
    // corruption (an orphaned node would let mk() mint a duplicate and
    // silently break reference canonicity)
    std::vector<char> reach(nodes_.size(), 0);
    std::vector<std::uint32_t> stack;
    for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
        if (ext_ref_[i] > 0 && !reach[i]) {
            reach[i] = 1;
            stack.push_back(i);
        }
    }
    while (!stack.empty()) {
        const std::uint32_t n = stack.back();
        stack.pop_back();
        for (const std::uint32_t edge : {nodes_[n].lo, nodes_[n].hi}) {
            const std::uint32_t c = node_of(edge);
            if (c != 0 && !reach[c]) {
                reach[c] = 1;
                stack.push_back(c);
            }
        }
    }
    for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
        if (reach[i] && !in_table[i]) {
            throw std::logic_error("bdd: live node missing from unique table");
        }
    }
    // computed cache: one aligned line per set, well-formed packed entries,
    // duplicate-free sets with their empties at the tail
    if (reinterpret_cast<std::uintptr_t>(cache_sets_) % cache_line != 0 ||
        cache_sets_ < cache_.data() ||
        cache_sets_ + cache_slots() > cache_.data() + cache_.size()) {
        throw std::logic_error("bdd: cache sets not line-aligned in storage");
    }
    for (const cache_entry* set = cache_sets_;
         set != cache_sets_ + cache_slots(); set += cache_ways) {
        for (std::uint32_t w = 0; w < cache_ways; ++w) {
            const cache_entry& e = set[w];
            if (e.fo == cache_empty) {
                for (std::uint32_t v = w + 1; v < cache_ways; ++v) {
                    if (set[v].fo != cache_empty) {
                        throw std::logic_error(
                            "bdd: cache entry behind an empty slot");
                    }
                }
                break;
            }
            if ((e.fo >> ref_bits) >= bdd_num_ops) {
                throw std::logic_error("bdd: cache entry with a bad op");
            }
            if ((e.ra >> ref_bits) > max_cache_age) {
                throw std::logic_error("bdd: cache entry age out of range");
            }
            for (const std::uint32_t r :
                 {e.fo & ref_mask, e.g, e.h, e.ra & ref_mask}) {
                if (node_of(r) >= nodes_.size()) {
                    throw std::logic_error("bdd: cache reference out of range");
                }
            }
            for (std::uint32_t v = 0; v < w; ++v) {
                if (set[v].fo == e.fo && set[v].g == e.g && set[v].h == e.h) {
                    throw std::logic_error("bdd: cache set holds a key twice");
                }
            }
        }
    }
}

} // namespace leq
