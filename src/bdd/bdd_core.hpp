/// \file bdd_core.hpp
/// \brief The manager's hot helpers, defined inline: the unique-table probe
/// `mk` and the computed-cache probe, insert and store.
///
/// Every recursive core calls these once or more per visited node.  The
/// library is built without link-time optimization, so a definition in
/// bdd.cpp would cost each probe an out-of-line call from the other
/// translation units.  Only the src/bdd/ sources include this header; to
/// everyone else the helpers are private declarations in bdd.hpp.
#pragma once

#include "bdd/bdd.hpp"

#include <cstdint>

namespace leq {

inline std::uint32_t bdd_manager::mk(std::uint32_t var, std::uint32_t lo,
                                     std::uint32_t hi) {
    if (lo == hi) { return lo; }
    // canonical form: hoist the then-edge's complement bit onto the result
    const std::uint32_t out = hi & 1u;
    lo ^= out;
    hi ^= out;
    const std::uint64_t h = node_hash(var, lo, hi) & (buckets_.size() - 1);
    for (std::uint32_t i = buckets_[h]; i != idx_nil; i = chain_[i]) {
        const node& n = nodes_[i];
        // overlap the next link's node fetch with this key comparison: chain
        // hops are the data-dependent loads this loop stalls on
        const std::uint32_t next = chain_[i];
        if (next != idx_nil) { prefetch(&nodes_[next]); }
        if (n.var == var && n.lo == lo && n.hi == hi) { return (i << 1) | out; }
    }
    const std::uint32_t idx = alloc_node();
    // alloc_node may have rehashed (grown) the table: recompute the bucket
    const std::uint64_t h2 = node_hash(var, lo, hi) & (buckets_.size() - 1);
    nodes_[idx] = {var, lo, hi};
    chain_[idx] = buckets_[h2];
    buckets_[h2] = idx;
    return (idx << 1) | out;
}

inline bdd_manager::cache_entry*
bdd_manager::cache_bucket(op o, std::uint32_t f, std::uint32_t g,
                          std::uint32_t h) {
    const std::uint64_t bucket =
        node_hash(cache_key(o, f), g, h) & cache_bucket_mask_;
    return cache_sets_ + bucket * cache_ways;
}

inline void bdd_manager::cache_insert(cache_entry* bucket,
                                      const cache_entry& entry) {
    // pick the slot: same key first (keeps a bucket duplicate-free), else
    // the first empty way, else evict by age.  Entries stored or hit since
    // the last collection all have age 0, and among equals the highest way
    // is the earliest stored.  All choices are functions of bucket state
    // only: fully deterministic.
    std::uint32_t target = cache_ways - 1;
    std::uint32_t oldest = 0;
    for (std::uint32_t w = 0; w < cache_ways; ++w) {
        const cache_entry& e = bucket[w];
        if ((e.fo == entry.fo && e.g == entry.g && e.h == entry.h) ||
            e.fo == cache_empty) {
            target = w;
            break;
        }
        const std::uint32_t age = e.ra >> ref_bits;
        if (age >= oldest) {
            oldest = age;
            target = w;
        }
    }
    // shift the prefix down one way and put the new entry in front
    for (std::uint32_t w = target; w > 0; --w) { bucket[w] = bucket[w - 1]; }
    bucket[0] = entry;
}

inline bool bdd_manager::cache_lookup(op o, std::uint32_t f, std::uint32_t g,
                                      std::uint32_t h, std::uint32_t& result) {
    // every recursive core probes the cache, so this is the one place a
    // cooperative deadline can interrupt a long-running operation from the
    // inside; the countdown keeps the clock read off the hot path
    if (op_deadline_armed_ && --op_deadline_countdown_ == 0) {
        op_deadline_check();
    }
    ++stats_.cache_lookups;
    ++stats_.op_lookups[static_cast<std::size_t>(o)];
    cache_entry* bucket = cache_bucket(o, f, g, h);
    const std::uint32_t fo = cache_key(o, f);
    for (std::uint32_t w = 0; w < cache_ways; ++w) {
        cache_entry& e = bucket[w];
        if (e.fo == fo && e.g == g && e.h == h) {
            // a hit entry is earning its slot: reset its age, which writes
            // the line at most once per entry per collection
            if (e.ra > ref_mask) { e.ra &= ref_mask; }
            result = e.ra;
            ++stats_.cache_hits;
            ++stats_.op_hits[static_cast<std::size_t>(o)];
            return true;
        }
    }
    return false;
}

inline void bdd_manager::cache_store(op o, std::uint32_t f, std::uint32_t g,
                                     std::uint32_t h, std::uint32_t result) {
    cache_insert(cache_bucket(o, f, g, h), {cache_key(o, f), g, h, result});
}

} // namespace leq
