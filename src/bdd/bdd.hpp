/// \file bdd.hpp
/// \brief A self-contained ROBDD package with complement edges (substitute
/// for CUDD in this build).
///
/// The package implements reduced ordered binary decision diagrams with
/// complement edges, a unique table, a set-associative computed cache that
/// grows geometrically with the unique table (see bdd_manager::cache_ways),
/// mark-and-sweep garbage collection driven by externally held handles,
/// quantification, relational-product (and-exists) and variable
/// permutation.
///
/// Design notes:
///  * **Handles are tagged edges.**  A reference is a 32-bit word
///    `(node_index << 1) | complement`: the low bit is the complement
///    ("NOT") mark, and the node index above it is below
///    bdd_manager::max_nodes, so a reference fits 28 bits (the computed
///    cache packs its op and age nibbles into the top 4).  Node 0
///    is the single terminal and denotes FALSE as a regular (untagged)
///    reference, so reference 0 is the constant FALSE and reference 1
///    (terminal + complement bit) is TRUE — the same two handle values the
///    package exposed before complement edges.  `bdd::index()` returns the
///    tagged reference; it remains a canonical key: two handles denote the
///    same function iff their references are equal.
///  * **Canonical form: the then-edge is regular.**  `(var, lo, hi)` and
///    `(var, ~lo, ~hi)` denote complementary functions; to keep references
///    canonical exactly one of the pair may exist.  The unique table only
///    stores nodes whose then (hi) edge carries no complement bit; building
///    the other phase returns the stored node with the complement bit set
///    on the reference instead.  Consequently a function and its negation
///    always share every node, and negation (`bdd_not`) is a constant-time
///    bit flip — no cache lookup, no allocation.
///  * **ITE standard triples.**  `ite(f,g,h)` is normalized before the
///    computed-cache lookup: repeated/complementary operands are reduced,
///    constant-branch cases are delegated to AND/XOR (OR is `~(~f & ~g)`
///    and shares the AND cache line), the predicate is made regular via
///    `ite(f,g,h) = ite(~f,h,g)`, and a complement bit on the then-branch
///    is hoisted out via `ite(f,g,h) = ~ite(f,~g,~h)`.  Thus `f & g`,
///    `~(~f | ~g)`, `ite(g,f,0)` … all resolve to one cache entry.
///  * **GC.**  Handles (`leq::bdd`) are RAII wrappers maintaining an
///    external reference count per node (the complement bit does not matter
///    for liveness).  Mark-and-sweep runs between public operations only,
///    so raw references inside recursive cores never escape a GC.
///  * **The order is static: a variable's id is its level.**  new_var()
///    appends at the bottom, so the order is creation order and the
///    recursive cores compare ids directly.  A client picks its order by
///    the order it creates variables in; the language-equation solver
///    creates the (u,v) block first and each cs/ns pair adjacently.  There
///    is no reordering, so a node's contents never change between
///    collections: an index-keyed memo stays valid until the next garbage
///    collection frees (and may recycle) its indices.
///  * **Checked builds (-DLEQ_CHECKED=ON).**  The manager is single-threaded
///    by design, and handles must never cross managers — a foreign reference
///    indexes the wrong arena and silently corrupts the unique table.  In a
///    checked build every public operation verifies both preconditions:
///    each manager records a process-wide serial number and the id of the
///    thread that constructed it, and each `bdd` handle already carries its
///    manager; a cross-manager handle or an off-thread call aborts with a
///    diagnostic naming the operation and both parties.  The guards compile
///    to nothing in normal builds.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#ifdef LEQ_CHECKED
#include <thread>
#endif

namespace leq {

class bdd_manager;

/// RAII handle to a BDD node.  Copying/destroying maintains the external
/// reference count that protects the node from garbage collection.
class bdd {
public:
    bdd() = default;
    bdd(const bdd& other);
    bdd(bdd&& other) noexcept;
    bdd& operator=(const bdd& other);
    bdd& operator=(bdd&& other) noexcept;
    ~bdd();

    /// True if the handle points into a manager (even the constant nodes).
    [[nodiscard]] bool valid() const { return mgr_ != nullptr; }
    [[nodiscard]] bool is_zero() const;
    [[nodiscard]] bool is_one() const;
    [[nodiscard]] bool is_const() const { return is_zero() || is_one(); }

    /// Structural equality: canonical BDDs are equal iff the references
    /// (node index + complement bit) match.
    friend bool operator==(const bdd& a, const bdd& b) {
        return a.mgr_ == b.mgr_ && a.idx_ == b.idx_;
    }
    friend bool operator!=(const bdd& a, const bdd& b) { return !(a == b); }

    bdd operator&(const bdd& other) const;
    bdd operator|(const bdd& other) const;
    bdd operator^(const bdd& other) const;
    /// Negation: O(1) complement-bit flip (no cache lookup, no allocation).
    bdd operator!() const;
    bdd& operator&=(const bdd& other);
    bdd& operator|=(const bdd& other);

    /// Boolean implication (f -> g), i.e. !f | g.
    [[nodiscard]] bdd implies(const bdd& other) const;
    /// Boolean equivalence (f <-> g), i.e. !(f ^ g).
    [[nodiscard]] bdd iff(const bdd& other) const;

    /// True iff this function is contained in `other` (f & !g == 0).
    [[nodiscard]] bool leq(const bdd& other) const;

    /// Top variable id; only valid on non-constant nodes.
    [[nodiscard]] std::uint32_t top_var() const;
    /// Positive/negative cofactor with respect to the top variable (the
    /// complement bit of this reference is pushed into the result).
    [[nodiscard]] bdd high() const;
    [[nodiscard]] bdd low() const;

    [[nodiscard]] bdd_manager* manager() const { return mgr_; }
    /// Raw tagged reference: (node index << 1) | complement bit.  Stable
    /// across GC; canonical, so usable as a hash/map key.
    [[nodiscard]] std::uint32_t index() const { return idx_; }

private:
    friend class bdd_manager;
    bdd(bdd_manager* mgr, std::uint32_t idx);
    void release();

    bdd_manager* mgr_ = nullptr;
    std::uint32_t idx_ = 0;
};

/// Thrown from inside a recursive BDD operation when the manager's op
/// deadline (set_op_deadline) has passed.  The operation's partial results
/// become ordinary garbage — no manager state needs unwinding beyond the
/// exception itself — so callers may catch it and keep using the manager
/// once the deadline is cleared.  It is the library's one timeout
/// exception: a solve arms the deadline for its whole run and turns this
/// into `solve_status::timeout` (src/eq/subset_common.hpp).
struct bdd_deadline_exceeded : std::runtime_error {
    bdd_deadline_exceeded()
        : std::runtime_error("bdd operation deadline exceeded") {}
};

/// Number of distinct cached operation kinds; indexes the per-op counters
/// in bdd_stats (and_op, xor_op, ite_op, exists_op, and_exists_op,
/// support_op — in that order).
inline constexpr std::size_t bdd_num_ops = 6;

/// Stable short name of cached operation kind k ("and", "xor", "ite",
/// "exists", "and_exists", "support"); "?" for out-of-range k.
[[nodiscard]] const char* bdd_op_name(std::size_t k);

/// Statistics snapshot for diagnostics and benchmarking.
struct bdd_stats {
    std::size_t live_nodes = 0;     ///< nodes reachable from external roots
    std::size_t allocated_nodes = 0;///< nodes in the arena (live + garbage)
    std::size_t num_vars = 0;
    std::size_t gc_runs = 0;
    std::size_t cache_lookups = 0;
    std::size_t cache_hits = 0;
    std::size_t cache_entries = 0;  ///< current computed-cache slots
    std::size_t cache_resizes = 0;  ///< computed-cache growth events
    std::size_t gc_threshold = 0;   ///< current allocated-node GC trigger
    /// Nodes rebuilt by permute: substitution memo misses.  A node permute
    /// already rebuilt under the same permutation since the last collection
    /// is not counted again.
    std::size_t subst_nodes = 0;
    /// Per-operation split of cache_lookups/cache_hits (indexed by the
    /// bdd_op_name order): which recursion is thrashing the cache.
    std::array<std::size_t, bdd_num_ops> op_lookups{};
    std::array<std::size_t, bdd_num_ops> op_hits{};
};

/// One cofactor class of a function split at a variable-id boundary (see
/// bdd_manager::cofactor_classes): the function equals `leaf` exactly on
/// the assignments of the variables with ids below the boundary that
/// satisfy `guard`.
struct bdd_cofactor_class {
    bdd guard; ///< over the variables with ids below the boundary
    bdd leaf;  ///< over the variables with ids at or above it; never FALSE
};

/// The BDD manager: node arena, unique table, computed cache and the
/// recursive algorithms.  All `bdd` handles stay valid across garbage
/// collection (references are stable, and a live node's contents never
/// change).
class bdd_manager {
public:
    /// The memory geometry is fixed; these constants are all of it.
    ///
    /// Computed-cache associativity: slots per set-associative bucket.  Four
    /// 16-byte entries make a set exactly one 64-byte line, and the sets
    /// start on a line boundary, so a probe reads one line.  A hit does not
    /// reorder the set.  A store goes to way 0 and shifts the set down
    /// (same-key overwrite, else the first empty slot, else the entry with
    /// the largest age, highest way on ties), so way order is store order
    /// within a GC epoch.  The age counts collections since the entry was
    /// last stored or hit: a collection purges only the entries whose key or
    /// result references a swept node and ages everything else.
    static constexpr std::uint32_t cache_ways = 4;
    /// log2 ceiling for computed-cache growth.  The cache tracks the unique
    /// table geometrically — at least two slots per table bucket, doubling
    /// whenever the table outgrows it (surviving entries are rehash-migrated
    /// into the larger geometry, not discarded) — until it reaches
    /// 2^max_cache_bits.
    static constexpr unsigned max_cache_bits = 24;
    /// log2 of the unique table's bucket count at construction.  The table
    /// doubles with the arena, and the computed cache starts at the growth
    /// floor for this size: two slots per bucket.
    static constexpr unsigned initial_bucket_bits = 12;
    /// Allocated-node count that triggers the first garbage collection;
    /// also the floor the adaptive trigger never drops below.  After each
    /// collection the next trigger is max(gc_floor, 2 * live nodes,
    /// arena / 2): a collection that finds everything live raises the bar
    /// exactly as far as the survivors demand, and a productive one lowers
    /// it back toward the floor.
    static constexpr std::size_t gc_floor = std::size_t{1} << 14;
    /// Arena capacity in nodes.  Indices stay below 2^27 - 1, so every
    /// reference fits the 28 bits a computed-cache word leaves beside its
    /// op or age nibble; alloc_node throws std::length_error past it.
    static constexpr std::uint32_t max_nodes = (1u << 27) - 1;

    /// \param num_vars   initial number of variables (ids 0..num_vars-1)
    /// \param cache_bits log2 of the *initial* computed-cache size, clamped
    ///        to 8..max_cache_bits.  The default is the growth floor, two
    ///        slots per initial bucket (2^(initial_bucket_bits + 1)); the
    ///        cache grows with the unique table up to 2^max_cache_bits
    explicit bdd_manager(std::uint32_t num_vars = 0,
                         unsigned cache_bits = initial_bucket_bits + 1);
    ~bdd_manager();

    bdd_manager(const bdd_manager&) = delete;
    bdd_manager& operator=(const bdd_manager&) = delete;

    // ---- variables -------------------------------------------------------
    /// Append a fresh variable at the bottom of the order; returns its id.
    std::uint32_t new_var();
    [[nodiscard]] std::uint32_t num_vars() const {
        return static_cast<std::uint32_t>(stats_.num_vars);
    }

    // ---- constants and literals -----------------------------------------
    [[nodiscard]] bdd zero() { return make(0); }
    [[nodiscard]] bdd one() { return make(1); }
    [[nodiscard]] bdd var(std::uint32_t v);
    [[nodiscard]] bdd nvar(std::uint32_t v);
    /// Literal: var v if phase is true else its negation.
    [[nodiscard]] bdd literal(std::uint32_t v, bool phase) {
        return phase ? var(v) : nvar(v);
    }

    // ---- core operations -------------------------------------------------
    [[nodiscard]] bdd apply_and(const bdd& f, const bdd& g);
    [[nodiscard]] bdd apply_or(const bdd& f, const bdd& g);
    [[nodiscard]] bdd apply_xor(const bdd& f, const bdd& g);
    /// O(1): flips the complement bit of the reference.
    [[nodiscard]] bdd apply_not(const bdd& f);
    [[nodiscard]] bdd ite(const bdd& f, const bdd& g, const bdd& h);

    /// Existential quantification of all variables in `cube` (a positive
    /// product of the variables to eliminate).
    [[nodiscard]] bdd exists(const bdd& f, const bdd& cube);
    /// Relational product: exists(cube, f & g) computed in one pass.
    [[nodiscard]] bdd and_exists(const bdd& f, const bdd& g, const bdd& cube);

    /// Rename variables: result(x) = f(x with var v replaced by perm[v]).
    /// `perm` must be defined for every variable in the support of f.
    /// Throws std::invalid_argument if an entry of `perm` is not a variable
    /// or the support of f reaches past the end of `perm`.  Rebuilt nodes
    /// stay memoized until the next garbage collection or a call with a
    /// different permutation, so renaming a function that shares sub-DAGs
    /// with an earlier rename under the same permutation costs a lookup per
    /// shared node.
    [[nodiscard]] bdd permute(const bdd& f,
                              const std::vector<std::uint32_t>& perm);

    /// Split f into its cofactor classes over the variables with ids below
    /// `boundary`: one class per distinct non-FALSE sub-function hanging off
    /// that top block (a leaf: a constant or a node whose variable id is at
    /// least `boundary`), guarded by the top-block assignments that reach
    /// it.  The guards are pairwise disjoint and OR(guard & leaf) == f.
    /// Leaves come in the order a depth-first walk from f, else-edge first,
    /// first reaches them; a node reached in both phases gives two leaves.
    /// FALSE has no classes, and an f with no node above the boundary is
    /// one class under guard TRUE.
    [[nodiscard]] std::vector<bdd_cofactor_class>
    cofactor_classes(const bdd& f, std::uint32_t boundary);

    // ---- structural queries ----------------------------------------------
    /// Support of f as a positive cube.
    [[nodiscard]] bdd support_cube(const bdd& f);
    /// Support of f as a sorted list of variable ids: the support cube
    /// read top-down.
    [[nodiscard]] std::vector<std::uint32_t> support(const bdd& f);
    /// Number of DAG nodes (including the terminal) reachable from f.  With
    /// complement edges f and !f have identical size by construction.
    /// O(size) per call on manager-owned scratch (dag_mark_, dag_visited_),
    /// with no allocation once the scratch has grown to the arena and the
    /// largest DAG measured.
    [[nodiscard]] std::size_t dag_size(const bdd& f);
    /// Number of satisfying assignments over `nvars` variables.
    [[nodiscard]] double sat_count(const bdd& f, std::uint32_t nvars);
    /// Evaluate under a full assignment indexed by variable id.
    [[nodiscard]] bool eval(const bdd& f, const std::vector<bool>& assignment);
    /// One satisfying cube (literals over the support of f); f must be != 0.
    [[nodiscard]] bdd pick_cube(const bdd& f);
    /// Enumerate all satisfying cubes of f over the listed variables; the
    /// callback receives value 0/1/2 (2 = don't care) per listed variable.
    void foreach_cube(const bdd& f, const std::vector<std::uint32_t>& vars,
                      const std::function<void(const std::vector<int>&)>& fn);

    /// Build the positive cube of a set of variables.
    [[nodiscard]] bdd cube(const std::vector<std::uint32_t>& vars);

    // ---- diagnostics -----------------------------------------------------
    /// Exhaustive structural check of the unique table and the canonicity
    /// invariants (every child's variable id greater than its parent's, no
    /// lo==hi nodes, no duplicate (var,lo,hi) keys, every stored then-edge
    /// regular — which is what guarantees a node and its complement can
    /// never both sit in the table) and the computed cache's layout.
    /// Throws std::logic_error on violation; for tests.
    void check_consistency() const;

    // ---- cooperative op deadline ----------------------------------------
    /// Arm a deadline checked *inside* the recursive operation cores: the
    /// first computed-cache probe after arming reads the clock, then every
    /// ~1024th (to keep the hot path cheap), and the countdown runs across
    /// operations.  Once `when` has passed, that probe and every later one
    /// throws bdd_deadline_exceeded, so one long and_exists is bounded from
    /// the inside and nothing completes past the deadline.  The deadline
    /// stays armed until clear_op_deadline().
    void set_op_deadline(std::chrono::steady_clock::time_point when) {
        op_deadline_ = when;
        op_deadline_armed_ = true;
        op_deadline_countdown_ = 1;
    }
    void clear_op_deadline() { op_deadline_armed_ = false; }

    // ---- maintenance -----------------------------------------------------
    /// Run mark-and-sweep garbage collection now.
    void collect_garbage();
    [[nodiscard]] const bdd_stats& stats() const { return stats_; }
    /// Nodes reachable from external handles, the terminal included.  A pure
    /// read: it marks but never sweeps, so the unique table, the free list,
    /// the computed cache (no ageing, no purge), the substitution memo,
    /// gc_runs and the GC trigger are left as they were.  It refreshes
    /// stats().live_nodes and stats().allocated_nodes.
    [[nodiscard]] std::size_t live_node_count();

#ifdef LEQ_CHECKED
    /// Checked build only: process-wide serial of this manager (1-based,
    /// construction order) — names managers in violation diagnostics.
    [[nodiscard]] std::uint64_t checked_serial() const {
        return checked_serial_;
    }
#endif

    /// Render f as a sum-of-cubes string over the given variable names
    /// (diagnostics; exponential in the worst case).
    [[nodiscard]] std::string to_string(const bdd& f,
                                        const std::vector<std::string>& names);

private:
    friend class bdd;

    // ---- checked-build provenance guards (LEQ_CHECKED) -------------------
    // The one-manager-per-thread rule and the no-cross-manager-handles rule
    // are the two preconditions the batch runner's shared-nothing workers
    // lean on (docs/ARCHITECTURE.md "Concurrency model").  Checked builds
    // turn both from prose into executable aborts; normal builds compile
    // the guards to nothing.  Every public entry point calls
    // checked_guard() first.
#ifdef LEQ_CHECKED
    void checked_thread_guard(const char* operation) const;
    void checked_handle_guard(const char* operation, const bdd& handle) const;
    /// The substitution memo must be all idx_nil after every drop.
    void checked_subst_memo_guard(const char* operation) const;
#else
    void checked_thread_guard(const char*) const {}
    void checked_handle_guard(const char*, const bdd&) const {}
    void checked_subst_memo_guard(const char*) const {}
#endif
    template <typename... Handles>
    void checked_guard(const char* operation,
                       const Handles&... handles) const {
        checked_thread_guard(operation);
        (checked_handle_guard(operation, handles), ...);
    }

    /// Arena node.  `lo`/`hi` are tagged references; the canonical-form
    /// invariant keeps `hi` regular (complement bit clear) for every node
    /// stored in the unique table.  The unique-table chain link lives in the
    /// parallel `chain_` array so the traversal-hot triple stays 12 bytes —
    /// recursion cores touch `{var, lo, hi}` constantly and the chain link
    /// only on unique-table probes.
    struct node {
        std::uint32_t var;  ///< variable id; var_nil for the terminal
        std::uint32_t lo;   ///< else-edge reference (var = 0)
        std::uint32_t hi;   ///< then-edge reference (var = 1), always regular
    };
    /// The terminal's var: larger than every id, so it sorts below them.
    static constexpr std::uint32_t var_nil = 0xffffffffu;
    static constexpr std::uint32_t idx_nil = 0xffffffffu;

    enum class op : std::uint8_t {
        and_op, xor_op, ite_op, exists_op, and_exists_op, support_op
    };
    static_assert(static_cast<std::size_t>(op::support_op) + 1 == bdd_num_ops,
                  "bdd_num_ops must match the cached-op enum");

    /// One computed-cache slot: four words, 16 bytes, so a `cache_ways` set
    /// fills one 64-byte line.  References fit ref_bits (see max_nodes);
    /// the top nibble of `fo` holds the op and the top nibble of `ra` the
    /// entry's age in collections (saturating at max_cache_age).  An empty
    /// slot is all ones: op nibble 0xf is never a real op.
    struct alignas(16) cache_entry {
        std::uint32_t fo = cache_empty; ///< op << ref_bits | f
        std::uint32_t g = cache_empty;
        std::uint32_t h = cache_empty;
        std::uint32_t ra = cache_empty; ///< age << ref_bits | result
    };
    static constexpr std::uint32_t ref_bits = 28;
    static constexpr std::uint32_t ref_mask = (1u << ref_bits) - 1;
    static constexpr std::uint32_t cache_empty = 0xffffffffu;
    static constexpr std::uint32_t max_cache_age = 15;
    static constexpr std::size_t cache_line = 64;
    static_assert(sizeof(cache_entry) * cache_ways == cache_line,
                  "a computed-cache set must fill exactly one line");
    static_assert((max_nodes << 1 | 1) <= ref_mask,
                  "every reference must fit a cache word's reference bits");
    static_assert(bdd_num_ops < 15,
                  "op nibble 0xf is reserved for the empty slot");
    /// The `fo` word of an (o, f) key.
    [[nodiscard]] static constexpr std::uint32_t cache_key(op o,
                                                           std::uint32_t f) {
        return static_cast<std::uint32_t>(o) << ref_bits | f;
    }

    /// Hint the hardware prefetcher at a probe target (no-op off GCC/Clang).
    static inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(p);
#else
        (void)p;
#endif
    }

    // ---- tagged-reference helpers ---------------------------------------
    /// Node index addressed by a reference.
    [[nodiscard]] static constexpr std::uint32_t node_of(std::uint32_t r) {
        return r >> 1;
    }
    /// Complement bit of a reference (0 or 1).
    [[nodiscard]] static constexpr std::uint32_t comp_of(std::uint32_t r) {
        return r & 1u;
    }
    [[nodiscard]] static constexpr bool is_comp(std::uint32_t r) {
        return (r & 1u) != 0;
    }
    /// Regular (untagged) version of a reference.
    [[nodiscard]] static constexpr std::uint32_t regular(std::uint32_t r) {
        return r & ~1u;
    }
    /// Terminal test: references 0 (FALSE) and 1 (TRUE) address node 0.
    [[nodiscard]] static constexpr bool is_terminal(std::uint32_t r) {
        return r <= 1;
    }
    /// Else-cofactor of a reference: the stored edge with the reference's
    /// complement bit pushed through.
    [[nodiscard]] std::uint32_t lo_of(std::uint32_t r) const {
        return nodes_[r >> 1].lo ^ (r & 1u);
    }
    /// Then-cofactor of a reference.
    [[nodiscard]] std::uint32_t hi_of(std::uint32_t r) const {
        return nodes_[r >> 1].hi ^ (r & 1u);
    }
    [[nodiscard]] std::uint32_t var_of(std::uint32_t r) const {
        return nodes_[r >> 1].var;
    }

    /// Shared hash for the unique table and the computed cache.
    static std::uint64_t node_hash(std::uint64_t a, std::uint64_t b,
                                   std::uint64_t c) {
        std::uint64_t h = a * 0x9e3779b97f4a7c15ull;
        h ^= b + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h ^= c + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        return h;
    }

    /// Find-or-create the node (var, lo, hi) and return its reference.  The
    /// complement bit of `hi` is hoisted onto the returned reference so the
    /// stored then-edge stays regular.  Defined in bdd_core.hpp, like the
    /// cache probes below: inline for the recursive cores.
    inline std::uint32_t mk(std::uint32_t var, std::uint32_t lo,
                            std::uint32_t hi);
    std::uint32_t alloc_node();
    void unique_insert(std::uint32_t idx);
    void rehash(std::size_t new_size);
    void maybe_gc_or_grow();
    void maybe_grow_cache();
    /// The mark phase of collect_garbage, shared with live_node_count: set
    /// mark_ on every node reachable from an external handle (the terminal
    /// included), refresh stats_.live_nodes and stats_.allocated_nodes, and
    /// return the live count.
    std::size_t mark_live();

    // external reference counting used as GC roots (per node; the complement
    // bit of the held reference is irrelevant for liveness)
    void inc_ext_ref(std::uint32_t ref);
    void dec_ext_ref(std::uint32_t ref);

    /// Countdown slow path for the op deadline: reads the clock and throws
    /// bdd_deadline_exceeded when past, leaving the countdown at its last
    /// step so the next probe throws too.  Called from cache_lookup every
    /// `op_deadline_stride` probes while a deadline is armed.
    void op_deadline_check();

    // computed cache (set-associative, one line per set, aged per GC)
    inline bool cache_lookup(op o, std::uint32_t f, std::uint32_t g,
                             std::uint32_t h, std::uint32_t& result);
    inline void cache_store(op o, std::uint32_t f, std::uint32_t g,
                            std::uint32_t h, std::uint32_t result);
    /// Allocate an empty cache of `slots` entries (a power of two) with its
    /// sets on line boundaries.
    void cache_allocate(std::size_t slots);
    /// Current cache size in slots, excluding the alignment slack.
    [[nodiscard]] std::size_t cache_slots() const {
        return static_cast<std::size_t>(cache_bucket_mask_ + 1) * cache_ways;
    }
    /// First slot of the bucket the (o,f,g,h) key hashes to.
    [[nodiscard]] inline cache_entry* cache_bucket(op o, std::uint32_t f,
                                                   std::uint32_t g,
                                                   std::uint32_t h);
    /// Deterministic replacement: overwrite a same-key slot, else fill the
    /// first empty slot, else evict the entry with the largest age (highest
    /// way on ties — way order is store order within an epoch), then shift
    /// the set down and write the entry to way 0.
    inline void cache_insert(cache_entry* bucket, const cache_entry& entry);
    /// GC epilogue: purge only the entries that reference swept nodes (their
    /// indices are about to be recycled via free_list_, so a stale entry
    /// would alias a future unrelated node) and age the rest.  Entries over
    /// live nodes survive — that is what buys cross-GC hits.
    void cache_age_and_purge();

    // recursive cores (tagged references; protected from GC because GC only
    // runs between public operations)
    std::uint32_t and_rec(std::uint32_t f, std::uint32_t g);
    /// De Morgan wrapper: shares the AND cache.
    std::uint32_t or_rec(std::uint32_t f, std::uint32_t g) {
        return and_rec(f ^ 1u, g ^ 1u) ^ 1u;
    }
    std::uint32_t xor_rec(std::uint32_t f, std::uint32_t g);
    std::uint32_t ite_rec(std::uint32_t f, std::uint32_t g, std::uint32_t h);
    std::uint32_t exists_rec(std::uint32_t f, std::uint32_t cube);
    std::uint32_t and_exists_rec(std::uint32_t f, std::uint32_t g,
                                 std::uint32_t cube);
    std::uint32_t support_rec(std::uint32_t f);
    // the substitution core (bdd_subst.cpp); it memoizes in subst_memo_ and
    // keeps its entries across calls (see subst_memo_)
    std::uint32_t permute_rec(std::uint32_t f,
                              const std::vector<std::uint32_t>& perm);
    /// Record the rebuilt result of regular node n.
    void subst_memo_store(std::uint32_t n, std::uint32_t result) {
        subst_memo_[n] = result;
        subst_touched_.push_back(n);
        ++stats_.subst_nodes;
    }
    /// Size the memo to the arena before a walk; it only ever grows.
    void subst_memo_fit() {
        if (subst_memo_.size() < nodes_.size()) {
            subst_memo_.resize(nodes_.size(), idx_nil);
        }
    }
    /// Reset every entry set since the last drop, leaving the memo all
    /// idx_nil.
    void subst_memo_drop(const char* operation);
    /// The node (var ? r1 : r0) for a rebuilt node whose variable is var.
    std::uint32_t subst_rebuild(std::uint32_t var, std::uint32_t r0,
                                std::uint32_t r1);

    // cofactor_classes (bdd_split.cpp).  The walk numbers the region above
    // the boundary once, keyed by tagged reference: a region node gets its
    // slot in split_region_ (children before parents), a leaf its position
    // in split_leaves_ with split_leaf set, FALSE the code split_false.
    static constexpr std::uint32_t split_leaf = 1u << 31;
    static constexpr std::uint32_t split_false = idx_nil;
    /// A region node with its children's codes.
    struct split_node {
        std::uint32_t var;
        std::uint32_t lo;
        std::uint32_t hi;
    };
    /// One slot of the numbering's open-addressing table; ref idx_nil is
    /// empty.
    struct split_slot {
        std::uint32_t ref;
        std::uint32_t code;
    };
    std::uint32_t split_number(std::uint32_t r, std::uint32_t boundary);
    /// The code recorded for r, idx_nil if none.
    [[nodiscard]] std::uint32_t split_find(std::uint32_t r) const;
    void split_insert(std::uint32_t r, std::uint32_t code);

    [[nodiscard]] bdd make(std::uint32_t idx) { return bdd(this, idx); }

    // data
    std::vector<node> nodes_;              ///< arena; node 0 is the terminal
    std::vector<std::uint32_t> chain_;     ///< unique-table chain per node
    std::vector<std::uint32_t> ext_ref_;   ///< external refs per node
    std::vector<std::uint32_t> free_list_;
    std::vector<std::uint32_t> buckets_;   ///< unique table (power of two)
    /// Cache storage: the sets plus cache_ways - 1 slack slots, so the
    /// first line-aligned slot leaves room for every set wherever the
    /// vector's 16-byte-aligned allocation lands.
    std::vector<cache_entry> cache_;
    cache_entry* cache_sets_ = nullptr;    ///< first set, 64-byte aligned
    std::uint64_t cache_bucket_mask_ = 0;  ///< bucket count - 1
    std::size_t gc_threshold_ = gc_floor;
    /// Cache probes between op-deadline clock reads: rare enough that the
    /// hot path only pays a decrement, frequent enough that one and_exists
    /// cannot overshoot its budget by more than a few thousand probes.
    static constexpr std::size_t op_deadline_stride = 1024;
    bool op_deadline_armed_ = false;
    std::chrono::steady_clock::time_point op_deadline_{};
    std::size_t op_deadline_countdown_ = 0;
    bdd_stats stats_;
    std::vector<char> mark_; ///< scratch for GC / traversals
    std::vector<std::uint32_t> gc_worklist_; ///< reused GC mark worklist
    /// Substitution memo, indexed by node: the rebuilt result of each node
    /// visited since the last drop, idx_nil elsewhere.  permute's entries
    /// outlive the call while the permutation stays subst_perm_: nodes are
    /// freed only by collect_garbage, which drops the memo, so between
    /// collections every key and value names the same node.  A permutation
    /// change and an unwinding permute drop it too.  A drop resets only the
    /// touched entries, so it costs the visits since the last drop, never an
    /// arena-sized fill.
    std::vector<std::uint32_t> subst_memo_;
    std::vector<std::uint32_t> subst_touched_; ///< entries set since the last drop
    std::vector<std::uint32_t> subst_perm_;    ///< permutation of the memo's entries
    /// cofactor_classes scratch, kept for its capacity.  The numbering
    /// table is sized to the largest region split so far, not to the
    /// arena; split_used_ lists its occupied slots, and the next split
    /// empties exactly those.
    std::vector<split_slot> split_table_;
    std::vector<std::uint32_t> split_used_;
    std::vector<split_node> split_region_;
    std::vector<std::uint32_t> split_leaves_; ///< leaf references, in order
    std::vector<std::uint32_t> split_value_;  ///< per region node: its guard for one leaf
    /// dag_size scratch, kept for its capacity: a mark per node, grown to
    /// the arena, and the nodes the last walk marked, in the order it
    /// reached them.  The next walk unmarks exactly those first, so the
    /// marks never cost an arena-sized fill and a collection (which reuses
    /// node indices but never shrinks the arena) needs no reset.
    std::vector<char> dag_mark_;
    std::vector<std::uint32_t> dag_visited_;

#ifdef LEQ_CHECKED
    std::uint64_t checked_serial_ = 0;  ///< process-wide construction serial
    std::thread::id checked_owner_;     ///< the one thread allowed to call in
#endif
};

} // namespace leq
