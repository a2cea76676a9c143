/// \file bdd.cpp
/// \brief Manager core: node arena, unique table, handles, garbage collection,
/// computed cache and the structural consistency check.

#include "bdd/bdd.hpp"
#include "bdd/bdd_core.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <set>
#include <stdexcept>
#include <string>

#ifdef LEQ_CHECKED
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#endif

namespace leq {

const char* bdd_op_name(std::size_t k) {
    static const char* const names[bdd_num_ops] = {
        "and", "xor", "ite", "exists", "and_exists", "support"};
    return k < bdd_num_ops ? names[k] : "?";
}

// ---------------------------------------------------------------------------
// checked-build provenance (LEQ_CHECKED)
// ---------------------------------------------------------------------------

#ifdef LEQ_CHECKED

namespace {

// construction order across the whole process; the counter (not the
// managers) is the only shared state, so it is the one atomic here
std::atomic<std::uint64_t> checked_next_serial{0};

[[noreturn]] void checked_abort(const std::string& diagnostic) {
    std::fprintf(stderr, "%s\n", diagnostic.c_str());
    std::fflush(stderr);
    std::abort();
}

} // namespace

void bdd_manager::checked_thread_guard(const char* operation) const {
    if (std::this_thread::get_id() == checked_owner_) { return; }
    std::ostringstream os;
    os << "leq checked build: off-thread bdd_manager call: operation '"
       << operation << "' on manager #" << checked_serial_
       << " (owner thread " << checked_owner_ << ", calling thread "
       << std::this_thread::get_id()
       << "); a bdd_manager belongs to exactly one thread from construction "
          "to destruction (docs/ARCHITECTURE.md, Concurrency model)";
    checked_abort(os.str());
}

void bdd_manager::checked_handle_guard(const char* operation,
                                       const bdd& handle) const {
    if (handle.mgr_ == nullptr || handle.mgr_ == this) { return; }
    std::ostringstream os;
    os << "leq checked build: cross-manager bdd handle: operation '"
       << operation << "' on manager #" << checked_serial_
       << " received a handle owned by manager #"
       << handle.mgr_->checked_serial_
       << "; handles must never cross bdd_manager instances — a foreign "
          "reference indexes the wrong arena and corrupts the unique table";
    checked_abort(os.str());
}

void bdd_manager::checked_subst_memo_guard(const char* operation) const {
    const auto stale = std::find_if(
        subst_memo_.begin(), subst_memo_.end(),
        [](std::uint32_t r) { return r != idx_nil; });
    if (stale == subst_memo_.end()) { return; }
    std::ostringstream os;
    os << "leq checked build: stale substitution memo: operation '"
       << operation << "' on manager #" << checked_serial_
       << " found node " << (stale - subst_memo_.begin())
       << " still memoized after a drop; a drop must reset every entry set "
          "since the last one, or a later substitution returns a result "
          "computed for another permutation or for a freed node";
    checked_abort(os.str());
}

#endif // LEQ_CHECKED

// ---------------------------------------------------------------------------
// bdd handle
// ---------------------------------------------------------------------------

bdd::bdd(bdd_manager* mgr, std::uint32_t idx) : mgr_(mgr), idx_(idx) {
    mgr_->inc_ext_ref(idx_);
}

bdd::bdd(const bdd& other) : mgr_(other.mgr_), idx_(other.idx_) {
    if (mgr_ != nullptr) { mgr_->inc_ext_ref(idx_); }
}

bdd::bdd(bdd&& other) noexcept : mgr_(other.mgr_), idx_(other.idx_) {
    other.mgr_ = nullptr;
    other.idx_ = 0;
}

bdd& bdd::operator=(const bdd& other) {
    if (this == &other) { return *this; }
    if (other.mgr_ != nullptr) { other.mgr_->inc_ext_ref(other.idx_); }
    release();
    mgr_ = other.mgr_;
    idx_ = other.idx_;
    return *this;
}

bdd& bdd::operator=(bdd&& other) noexcept {
    if (this == &other) { return *this; }
    release();
    mgr_ = other.mgr_;
    idx_ = other.idx_;
    other.mgr_ = nullptr;
    other.idx_ = 0;
    return *this;
}

bdd::~bdd() { release(); }

void bdd::release() {
    if (mgr_ != nullptr) {
        mgr_->dec_ext_ref(idx_);
        mgr_ = nullptr;
        idx_ = 0;
    }
}

bool bdd::is_zero() const { return mgr_ != nullptr && idx_ == 0; }
bool bdd::is_one() const { return mgr_ != nullptr && idx_ == 1; }

bdd bdd::operator&(const bdd& other) const { return mgr_->apply_and(*this, other); }
bdd bdd::operator|(const bdd& other) const { return mgr_->apply_or(*this, other); }
bdd bdd::operator^(const bdd& other) const { return mgr_->apply_xor(*this, other); }
bdd bdd::operator!() const { return mgr_->apply_not(*this); }

bdd& bdd::operator&=(const bdd& other) { return *this = *this & other; }
bdd& bdd::operator|=(const bdd& other) { return *this = *this | other; }

bdd bdd::implies(const bdd& other) const { return (!*this) | other; }
bdd bdd::iff(const bdd& other) const { return !(*this ^ other); }

bool bdd::leq(const bdd& other) const {
    return (*this & !other).is_zero();
}

std::uint32_t bdd::top_var() const {
    assert(mgr_ != nullptr && idx_ > 1);
    return mgr_->var_of(idx_);
}

bdd bdd::high() const {
    assert(mgr_ != nullptr && idx_ > 1);
    return bdd(mgr_, mgr_->hi_of(idx_));
}

bdd bdd::low() const {
    assert(mgr_ != nullptr && idx_ > 1);
    return bdd(mgr_, mgr_->lo_of(idx_));
}

// ---------------------------------------------------------------------------
// manager construction
// ---------------------------------------------------------------------------

bdd_manager::bdd_manager(std::uint32_t num_vars, unsigned cache_bits) {
#ifdef LEQ_CHECKED
    checked_serial_ = ++checked_next_serial;
    checked_owner_ = std::this_thread::get_id();
#endif
    // the cache must stay an addressable power of two with at least
    // 2^8 / cache_ways buckets, and never start above the growth ceiling
    cache_bits = std::min(std::max(cache_bits, 8u), max_cache_bits);
    nodes_.reserve(1u << 12);
    // node 0: the single terminal, denoting FALSE as a regular reference
    // (reference 0 = FALSE, reference 1 = TRUE)
    nodes_.push_back({var_nil, 0, 0});
    chain_.assign(1, idx_nil);
    ext_ref_.assign(1, 1); // the terminal is permanently live
    buckets_.assign(std::size_t{1} << initial_bucket_bits, idx_nil);
    cache_allocate(std::size_t{1} << cache_bits);
    stats_.gc_threshold = gc_threshold_;
    for (std::uint32_t v = 0; v < num_vars; ++v) { new_var(); }
}

bdd_manager::~bdd_manager() = default;

std::uint32_t bdd_manager::new_var() {
    checked_guard("new_var");
    const std::uint32_t v = num_vars();
    ++stats_.num_vars;
    return v;
}

bdd bdd_manager::var(std::uint32_t v) {
    checked_guard("var");
    assert(v < num_vars());
    return make(mk(v, 0, 1));
}

bdd bdd_manager::nvar(std::uint32_t v) {
    checked_guard("nvar");
    assert(v < num_vars());
    return make(mk(v, 1, 0));
}

// ---------------------------------------------------------------------------
// unique table
// ---------------------------------------------------------------------------

std::uint32_t bdd_manager::alloc_node() {
    if (!free_list_.empty()) {
        const std::uint32_t idx = free_list_.back();
        free_list_.pop_back();
        return idx;
    }
    const auto idx = static_cast<std::uint32_t>(nodes_.size());
    if (idx >= max_nodes) {
        // a reference must fit the computed cache's 28 reference bits
        throw std::length_error("bdd_manager: node arena full (max_nodes = " +
                                std::to_string(max_nodes) + ")");
    }
    // grow the table before pushing the fresh node: rehash() reinserts every
    // arena node, and the caller has not filled this one in yet — inserting
    // it with garbage content would chain-corrupt a bucket once the caller
    // overwrites its `next` pointer
    if (nodes_.size() + 1 > buckets_.size()) { rehash(buckets_.size() * 2); }
    nodes_.push_back({});
    chain_.push_back(idx_nil);
    ext_ref_.push_back(0);
    return idx;
}

void bdd_manager::unique_insert(std::uint32_t idx) {
    const node& n = nodes_[idx];
    const std::uint64_t h = node_hash(n.var, n.lo, n.hi) & (buckets_.size() - 1);
    chain_[idx] = buckets_[h];
    buckets_[h] = idx;
}

void bdd_manager::rehash(std::size_t new_size) {
    // only called while growing the arena, i.e. with an empty free list, so
    // every node in the arena belongs in the table (dead ones are culled by
    // the next GC)
    assert(free_list_.empty());
    buckets_.assign(new_size, idx_nil);
    for (std::uint32_t i = 1; i < nodes_.size(); ++i) { unique_insert(i); }
    // the computed cache scales with the unique table: a direct-mapped
    // cache sized for unit tests thrashes once the arena holds millions of
    // nodes, so every table growth re-checks the cache budget
    maybe_grow_cache();
}

void bdd_manager::maybe_grow_cache() {
    const std::size_t limit = std::size_t{1} << max_cache_bits;
    const std::size_t current = cache_slots();
    std::size_t target = current;
    // keep at least two cache slots per table bucket, up to the ceiling
    while (target < 2 * buckets_.size() && target < limit) { target *= 2; }
    if (target == current) { return; }
    // rehash-migrate: a bucket index depends on the mask, so every surviving
    // entry is re-slotted under the new geometry.  Growth happens right when
    // the workload is deepest — discarding the memo there (the historical
    // clear-on-grow) forced exactly the recomputation the bigger cache was
    // bought to avoid.  Entries keep their ages; only same-bucket
    // collisions beyond the ways can drop entries, deterministically.
    std::vector<cache_entry> old;
    old.swap(cache_);
    const cache_entry* const old_sets = cache_sets_;
    cache_allocate(target);
    // walk each old bucket's ways in reverse so front insertion reconstructs
    // the same way order in the new geometry
    for (std::size_t b = 0; b < current; b += cache_ways) {
        for (std::uint32_t w = cache_ways; w > 0; --w) {
            const cache_entry& e = old_sets[b + w - 1];
            if (e.fo == cache_empty) { continue; }
            cache_insert(cache_bucket(static_cast<op>(e.fo >> ref_bits),
                                      e.fo & ref_mask, e.g, e.h),
                         e);
        }
    }
    ++stats_.cache_resizes;
}

// ---------------------------------------------------------------------------
// external references and garbage collection
// ---------------------------------------------------------------------------

void bdd_manager::inc_ext_ref(std::uint32_t ref) {
    // handle copies count as manager calls too: catching an off-thread
    // handle copy/destroy is the point of the owner-thread rule
    checked_thread_guard("bdd handle copy");
    ++ext_ref_[node_of(ref)];
}

void bdd_manager::dec_ext_ref(std::uint32_t ref) {
    checked_thread_guard("bdd handle release");
#ifdef LEQ_CHECKED
    if (ext_ref_[node_of(ref)] == 0) {
        std::ostringstream os;
        os << "leq checked build: bdd handle release underflow: node "
           << node_of(ref) << " of manager #" << checked_serial_
           << " has no outstanding external references; a handle was "
              "released twice (double destroy, or a bitwise handle copy "
              "that bypassed bdd's reference counting) — in a release "
              "build this wraps the count and the next garbage collection "
              "frees a live node";
        checked_abort(os.str());
    }
#endif
    assert(ext_ref_[node_of(ref)] > 0);
    --ext_ref_[node_of(ref)];
}

void bdd_manager::maybe_gc_or_grow() {
    if (nodes_.size() - free_list_.size() < gc_threshold_) { return; }
    collect_garbage();
    // scale-aware trigger: let the live set double before the next
    // collection, but never collect before the dead fraction is worth the
    // sweep — each GC walks the whole arena and ages the computed cache, so
    // firing every `floor` allocations on a 100k+ node arena churns the
    // memo for nothing.  An unproductive GC (everything survived) raises
    // the bar exactly as far as the survivors demand; a productive one
    // drops it back toward max(floor, arena/2)
    gc_threshold_ = std::max({gc_floor, stats_.live_nodes * 2,
                              nodes_.size() / 2});
    stats_.gc_threshold = gc_threshold_;
}

std::size_t bdd_manager::mark_live() {
    // one explicit worklist over all roots at once.  The ext-ref roots are
    // seeded in arena order in a single linear sweep before any marking, so
    // the root scan streams through ext_ref_ instead of alternating between
    // the root array and pointer-chasing DFS per root; the worklist (a
    // member, so its capacity is reused across calls) bounds the traversal
    // depth by the arena, never by the C++ stack.
    mark_.assign(nodes_.size(), 0);
    mark_[0] = 1;
    std::size_t live = 1;
    gc_worklist_.clear();
    for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
        if (ext_ref_[i] > 0) {
            mark_[i] = 1;
            ++live;
            gc_worklist_.push_back(i);
        }
    }
    while (!gc_worklist_.empty()) {
        const std::uint32_t n = gc_worklist_.back();
        gc_worklist_.pop_back();
        for (const std::uint32_t edge : {nodes_[n].lo, nodes_[n].hi}) {
            const std::uint32_t c = node_of(edge);
            if (!mark_[c]) {
                mark_[c] = 1;
                ++live;
                gc_worklist_.push_back(c);
            }
        }
    }
    stats_.live_nodes = live;
    stats_.allocated_nodes = nodes_.size();
    return live;
}

void bdd_manager::collect_garbage() {
    checked_guard("collect_garbage");
    ++stats_.gc_runs;
    // the sweep frees node indices the memo may name as keys or values
    subst_memo_drop("collect_garbage");
    mark_live();
    // sweep: rebuild unique table with only live nodes
    free_list_.clear();
    for (auto& b : buckets_) { b = idx_nil; }
    for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
        if (mark_[i]) {
            unique_insert(i);
        } else {
            free_list_.push_back(i);
        }
    }
    cache_age_and_purge();
}

std::size_t bdd_manager::live_node_count() {
    checked_guard("live_node_count");
    // mark only: without a sweep no index is freed, so the unique table,
    // the free list, the cache entries and the substitution memo all stay
    // valid as they are
    return mark_live();
}

// ---------------------------------------------------------------------------
// computed cache
// ---------------------------------------------------------------------------

void bdd_manager::cache_allocate(std::size_t slots) {
    // std::vector aligns its storage to 16 bytes only; an over-aligned
    // entry type would route it through the aligned operator new, which
    // measured at several times the peak RSS.  Instead the slack slots let
    // the sets start at the first line boundary inside the allocation.
    cache_.assign(slots + cache_ways - 1, cache_entry{});
    const auto addr = reinterpret_cast<std::uintptr_t>(cache_.data());
    cache_sets_ = cache_.data() +
                  ((cache_line - addr % cache_line) % cache_line) /
                      sizeof(cache_entry);
    cache_bucket_mask_ = static_cast<std::uint64_t>(slots / cache_ways) - 1;
    stats_.cache_entries = slots;
}

void bdd_manager::op_deadline_check() {
    if (std::chrono::steady_clock::now() > op_deadline_) {
        op_deadline_countdown_ = 1;
        throw bdd_deadline_exceeded{};
    }
    op_deadline_countdown_ = op_deadline_stride;
}

void bdd_manager::cache_age_and_purge() {
    // purge exactly the entries that reference a swept node: those indices
    // return through free_list_, and a surviving entry would alias whatever
    // unrelated node is allocated there next.  Everything keyed on live
    // nodes stays — results are canonical references, so the memo is still
    // correct after the sweep — and ages by one collection.
    for (cache_entry* set = cache_sets_; set != cache_sets_ + cache_slots();
         set += cache_ways) {
        // compact each bucket's survivors toward way 0 (preserving their
        // order) so way order stays store order, empties at the tail
        std::uint32_t keep = 0;
        for (std::uint32_t w = 0; w < cache_ways; ++w) {
            cache_entry e = set[w];
            if (e.fo == cache_empty) { continue; }
            const std::uint32_t result = e.ra & ref_mask;
            if (!mark_[node_of(e.fo & ref_mask)] || !mark_[node_of(e.g)] ||
                !mark_[node_of(e.h)] || !mark_[node_of(result)]) {
                continue;
            }
            const std::uint32_t age = e.ra >> ref_bits;
            e.ra = std::min(age + 1, max_cache_age) << ref_bits | result;
            set[keep] = e;
            ++keep;
        }
        for (; keep < cache_ways; ++keep) { set[keep] = cache_entry{}; }
    }
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
                if (!is_terminal(c) && nodes_[node_of(c)].var <= n.var) {
                    throw std::logic_error("bdd: child var not below parent");
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
