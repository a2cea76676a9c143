/// \file bdd_ops.cpp
/// \brief Boolean connectives: AND (OR rides it via De Morgan), XOR with
/// complement-bit hoisting, O(1) NOT, and the general ITE with standard
/// triples.
///
/// Each operation is a standard Shannon-expansion recursion memoized in the
/// manager's computed cache.  Complement edges collapse the op set: OR is
/// `~(~f & ~g)` on the same AND cache line, NOT never recurses at all, and
/// ITE normalizes its triple (regular predicate, regular then-branch) before
/// every cache access so all De Morgan variants of a query share one entry.
/// Public entry points run GC housekeeping first; recursive cores never
/// trigger GC, so intermediate results (reachable only from the C++ call
/// stack) are safe.

#include "bdd/bdd.hpp"
#include "bdd/bdd_core.hpp"

#include <algorithm>
#include <cassert>

namespace leq {

namespace {
/// Order commutative operands canonically to double the cache hit rate.
inline void canonize(std::uint32_t& f, std::uint32_t& g) {
    if (f > g) { std::swap(f, g); }
}
} // namespace

// ---------------------------------------------------------------------------
// public entry points
// ---------------------------------------------------------------------------

bdd bdd_manager::apply_and(const bdd& f, const bdd& g) {
    checked_guard("apply_and", f, g);
    assert(f.manager() == this && g.manager() == this);
    maybe_gc_or_grow();
    return make(and_rec(f.index(), g.index()));
}

bdd bdd_manager::apply_or(const bdd& f, const bdd& g) {
    checked_guard("apply_or", f, g);
    assert(f.manager() == this && g.manager() == this);
    maybe_gc_or_grow();
    return make(or_rec(f.index(), g.index()));
}

bdd bdd_manager::apply_xor(const bdd& f, const bdd& g) {
    checked_guard("apply_xor", f, g);
    assert(f.manager() == this && g.manager() == this);
    maybe_gc_or_grow();
    return make(xor_rec(f.index(), g.index()));
}

bdd bdd_manager::apply_not(const bdd& f) {
    checked_guard("apply_not", f);
    assert(f.manager() == this);
    // complement edges: negation is a bit flip — no GC, no cache, no nodes
    return make(f.index() ^ 1u);
}

bdd bdd_manager::ite(const bdd& f, const bdd& g, const bdd& h) {
    checked_guard("ite", f, g, h);
    assert(f.manager() == this && g.manager() == this && h.manager() == this);
    maybe_gc_or_grow();
    return make(ite_rec(f.index(), g.index(), h.index()));
}

// ---------------------------------------------------------------------------
// recursive cores
// ---------------------------------------------------------------------------

std::uint32_t bdd_manager::and_rec(std::uint32_t f, std::uint32_t g) {
    if (f == g) { return f; }
    if (f == (g ^ 1u)) { return 0; } // f & ~f
    if (f == 0 || g == 0) { return 0; }
    if (f == 1) { return g; }
    if (g == 1) { return f; }
    canonize(f, g);
    std::uint32_t result = 0;
    if (cache_lookup(op::and_op, f, g, 0, result)) { return result; }
    const node nf = nodes_[node_of(f)];
    const node ng = nodes_[node_of(g)];
    const std::uint32_t cf = comp_of(f);
    const std::uint32_t cg = comp_of(g);
    std::uint32_t top_var = 0, f0 = f, f1 = f, g0 = g, g1 = g;
    if (nf.var <= ng.var) { top_var = nf.var; f0 = nf.lo ^ cf; f1 = nf.hi ^ cf; }
    if (ng.var <= nf.var) { top_var = ng.var; g0 = ng.lo ^ cg; g1 = ng.hi ^ cg; }
    const std::uint32_t r0 = and_rec(f0, g0);
    const std::uint32_t r1 = and_rec(f1, g1);
    result = mk(top_var, r0, r1);
    cache_store(op::and_op, f, g, 0, result);
    return result;
}

std::uint32_t bdd_manager::xor_rec(std::uint32_t f, std::uint32_t g) {
    // hoist both complement bits: f ^ g == regular(f) ^ regular(g) ^ c
    const std::uint32_t c = (f ^ g) & 1u;
    f &= ~1u;
    g &= ~1u;
    if (f == g) { return c; }
    if (f == 0) { return g ^ c; } // regular(FALSE/TRUE) is reference 0
    if (g == 0) { return f ^ c; }
    canonize(f, g);
    std::uint32_t result = 0;
    if (cache_lookup(op::xor_op, f, g, 0, result)) { return result ^ c; }
    const node nf = nodes_[node_of(f)];
    const node ng = nodes_[node_of(g)];
    std::uint32_t top_var = 0, f0 = f, f1 = f, g0 = g, g1 = g;
    if (nf.var <= ng.var) { top_var = nf.var; f0 = nf.lo; f1 = nf.hi; }
    if (ng.var <= nf.var) { top_var = ng.var; g0 = ng.lo; g1 = ng.hi; }
    const std::uint32_t r0 = xor_rec(f0, g0);
    const std::uint32_t r1 = xor_rec(f1, g1);
    result = mk(top_var, r0, r1);
    cache_store(op::xor_op, f, g, 0, result);
    return result ^ c;
}

std::uint32_t bdd_manager::ite_rec(std::uint32_t f, std::uint32_t g,
                                   std::uint32_t h) {
    // terminal predicate
    if (f == 1) { return g; }
    if (f == 0) { return h; }
    // reduce repeated / complementary operands (standard triples)
    if (g == f) { g = 1; } else if (g == (f ^ 1u)) { g = 0; }
    if (h == f) { h = 0; } else if (h == (f ^ 1u)) { h = 1; }
    if (g == h) { return g; }
    if (g == 1 && h == 0) { return f; }
    if (g == 0 && h == 1) { return f ^ 1u; }
    // delegate constant-branch and complementary-branch cases to the
    // two-operand ops so they share those cache lines
    if (h == 0) { return and_rec(f, g); }
    if (g == 0) { return and_rec(f ^ 1u, h); }
    if (g == 1) { return or_rec(f, h); }
    if (h == 1) { return or_rec(f ^ 1u, g); } // ite(f,g,1) = f -> g
    if (g == (h ^ 1u)) { return xor_rec(f, h); } // ite(f,~h,h) = f ^ h
    // normalize: regular predicate, then regular then-branch
    if (is_comp(f)) {
        f ^= 1u;
        std::swap(g, h);
    }
    std::uint32_t out = 0;
    if (is_comp(g)) {
        g ^= 1u;
        h ^= 1u;
        out = 1u;
    }
    std::uint32_t result = 0;
    if (cache_lookup(op::ite_op, f, g, h, result)) { return result ^ out; }
    const std::uint32_t top_var = std::min({var_of(f), var_of(g), var_of(h)});
    const auto cof = [&](std::uint32_t x, bool hi_side) {
        if (is_terminal(x) || var_of(x) != top_var) { return x; }
        return (hi_side ? nodes_[node_of(x)].hi : nodes_[node_of(x)].lo) ^
               comp_of(x);
    };
    const std::uint32_t r0 = ite_rec(cof(f, false), cof(g, false), cof(h, false));
    const std::uint32_t r1 = ite_rec(cof(f, true), cof(g, true), cof(h, true));
    result = mk(top_var, r0, r1);
    cache_store(op::ite_op, f, g, h, result);
    return result ^ out;
}

} // namespace leq
