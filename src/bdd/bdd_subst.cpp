/// \file bdd_subst.cpp
/// \brief Variable renaming (permute), functional composition and cofactors.
///
/// All of these commute with complementation, so the recursions memoize on
/// the *regular* reference only and XOR the caller's complement bit back
/// into the result — halving memo pressure and making f / !f renames share
/// all work.

#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace leq {

void bdd_manager::subst_memo_drop(const char* operation) {
    for (const std::uint32_t n : subst_touched_) { subst_memo_[n] = idx_nil; }
    subst_touched_.clear();
    checked_subst_memo_guard(operation);
}

/// One compose/compose_vector call's use of the shared memo: drops
/// whatever an earlier permute left there and sizes the memo to the arena
/// on entry, and drops the call's own entries on exit — also when a
/// deadline or a bad argument unwinds the call.
class bdd_manager::subst_scope {
public:
    subst_scope(bdd_manager& mgr, const char* operation)
        : mgr_(mgr), operation_(operation) {
        mgr_.subst_memo_drop(operation_);
        mgr_.subst_memo_fit();
    }
    ~subst_scope() { mgr_.subst_memo_drop(operation_); }
    subst_scope(const subst_scope&) = delete;
    subst_scope& operator=(const subst_scope&) = delete;

private:
    bdd_manager& mgr_;
    const char* operation_;
};

std::uint32_t bdd_manager::subst_rebuild(std::uint32_t var, std::uint32_t r0,
                                         std::uint32_t r1) {
    // var lies strictly above both children's top levels (terminals sit
    // below every level): the node is already in canonical position, so
    // the unique table builds it directly.  Otherwise var lands inside a
    // child and a full ITE merges it in.
    const std::uint32_t lv = var2level_[var];
    if (lv < level(r0) && lv < level(r1)) { return mk(var, r0, r1); }
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

bdd bdd_manager::compose(const bdd& f, std::uint32_t v, const bdd& g) {
    checked_guard("compose", f, g);
    assert(f.manager() == this && g.manager() == this);
    if (v >= num_vars()) {
        throw std::invalid_argument("compose: " + std::to_string(v) +
                                    " is not a variable");
    }
    maybe_gc_or_grow();
    const subst_scope scope(*this, "compose");
    return make(compose_rec(f.index(), v, g.index()));
}

std::uint32_t bdd_manager::compose_rec(std::uint32_t f, std::uint32_t v,
                                       std::uint32_t g) {
    if (is_terminal(f)) { return f; }
    const node nf = nodes_[node_of(f)];
    // below the level of v the variable cannot occur
    if (var2level_[nf.var] > var2level_[v]) { return f; }
    const std::uint32_t out = comp_of(f);
    const std::uint32_t n = node_of(f);
    if (subst_memo_[n] != idx_nil) { return subst_memo_[n] ^ out; }
    std::uint32_t result = 0;
    if (nf.var == v) {
        result = ite_rec(g, nf.hi, nf.lo);
    } else {
        const std::uint32_t r0 = compose_rec(nf.lo, v, g);
        const std::uint32_t r1 = compose_rec(nf.hi, v, g);
        result = subst_rebuild(nf.var, r0, r1);
    }
    subst_memo_store(n, result);
    return result ^ out;
}

bdd bdd_manager::compose_vector(
    const bdd& f,
    const std::vector<std::pair<std::uint32_t, bdd>>& substitutions) {
    checked_guard("compose_vector", f);
    assert(f.manager() == this);
    std::vector<std::uint32_t> sub(num_vars(), idx_nil);
    std::uint32_t deepest = 0;
    for (const auto& [v, g] : substitutions) {
        checked_handle_guard("compose_vector", g);
        assert(g.manager() == this);
        if (v >= num_vars()) {
            throw std::invalid_argument("compose_vector: " +
                                        std::to_string(v) +
                                        " is not a variable");
        }
        sub[v] = g.index();
        deepest = std::max(deepest, var2level_[v]);
    }
    maybe_gc_or_grow();
    const subst_scope scope(*this, "compose_vector");
    return make(compose_vec_rec(f.index(), sub, deepest));
}

std::uint32_t bdd_manager::compose_vec_rec(
    std::uint32_t f, const std::vector<std::uint32_t>& sub,
    std::uint32_t deepest_level) {
    if (is_terminal(f)) { return f; }
    const node nf = nodes_[node_of(f)];
    // no substituted variable can occur below the deepest one
    if (var2level_[nf.var] > deepest_level) { return f; }
    const std::uint32_t out = comp_of(f);
    const std::uint32_t n = node_of(f);
    if (subst_memo_[n] != idx_nil) { return subst_memo_[n] ^ out; }
    const std::uint32_t r0 = compose_vec_rec(nf.lo, sub, deepest_level);
    const std::uint32_t r1 = compose_vec_rec(nf.hi, sub, deepest_level);
    const std::uint32_t result =
        sub[nf.var] != idx_nil ? ite_rec(sub[nf.var], r1, r0)
                               : subst_rebuild(nf.var, r0, r1);
    subst_memo_store(n, result);
    return result ^ out;
}

bdd bdd_manager::cofactor(const bdd& f, const bdd& cube) {
    checked_guard("cofactor", f, cube);
    assert(f.manager() == this && cube.manager() == this);
    maybe_gc_or_grow();
    const std::uint32_t c = cube.index();
    assert(c != 0 && "cofactor by the empty cube is undefined");
    // generalized cofactor by a cube: walk f, branching as the cube dictates
    struct restrictor {
        bdd_manager* m;
        std::uint32_t run(std::uint32_t f, std::uint32_t c) {
            if (is_terminal(f) || c == 1) { return f; }
            // cofactoring commutes with complement (the cube steers by c
            // alone): hoist f's bit so f / !f share the cache line
            const std::uint32_t out = comp_of(f);
            f ^= out;
            std::uint32_t result = 0;
            if (m->cache_lookup(op::cofactor_op, f, c, 0, result)) {
                return result ^ out;
            }
            const std::uint32_t lf = m->var2level_[m->var_of(f)];
            const std::uint32_t lc = m->var2level_[m->var_of(c)];
            if (lc < lf) {
                // cube literal above f: skip it
                result = run(f, m->lo_of(c) == 0 ? m->hi_of(c) : m->lo_of(c));
            } else if (lc == lf) {
                // take the branch selected by the literal's phase
                result = m->lo_of(c) == 0 ? run(m->hi_of(f), m->hi_of(c))
                                          : run(m->lo_of(f), m->lo_of(c));
            } else {
                const std::uint32_t r0 = run(m->lo_of(f), c);
                const std::uint32_t r1 = run(m->hi_of(f), c);
                result = m->mk(m->var_of(f), r0, r1);
            }
            m->cache_store(op::cofactor_op, f, c, 0, result);
            return result ^ out;
        }
    };
    return make(restrictor{this}.run(f.index(), c));
}

} // namespace leq


namespace leq {

bdd bdd_manager::constrain(const bdd& f, const bdd& c) {
    checked_guard("constrain", f, c);
    assert(f.manager() == this && c.manager() == this);
    assert(!c.is_zero() && "constrain: empty care set");
    maybe_gc_or_grow();
    return make(constrain_rec(f.index(), c.index()));
}

std::uint32_t bdd_manager::constrain_rec(std::uint32_t f, std::uint32_t c) {
    if (c == 1 || is_terminal(f)) { return f; }
    if (c == f) { return 1; }
    if (c == (f ^ 1u)) { return 0; }
    // constrain commutes with complement (the care-set steering ignores f's
    // phase): hoist f's bit so f / !f share the cache line
    const std::uint32_t out = comp_of(f);
    f ^= out;
    std::uint32_t result = 0;
    if (cache_lookup(op::constrain_op, f, c, 0, result)) { return result ^ out; }
    const std::uint32_t lc = var2level_[var_of(c)];
    const std::uint32_t lf = var2level_[var_of(f)];
    if (lc < lf) {
        // f independent of c's top variable
        const std::uint32_t c0 = lo_of(c);
        const std::uint32_t c1 = hi_of(c);
        if (c0 == 0) {
            result = constrain_rec(f, c1);
        } else if (c1 == 0) {
            result = constrain_rec(f, c0);
        } else {
            result = mk(var_of(c), constrain_rec(f, c0), constrain_rec(f, c1));
        }
    } else {
        const std::uint32_t f0 = lf <= lc ? lo_of(f) : f;
        const std::uint32_t f1 = lf <= lc ? hi_of(f) : f;
        const std::uint32_t c0 = lc <= lf ? lo_of(c) : c;
        const std::uint32_t c1 = lc <= lf ? hi_of(c) : c;
        if (c0 == 0) {
            result = constrain_rec(f1, c1);
        } else if (c1 == 0) {
            result = constrain_rec(f0, c0);
        } else {
            const std::uint32_t top = lf <= lc ? var_of(f) : var_of(c);
            const std::uint32_t r0 = constrain_rec(f0, c0);
            const std::uint32_t r1 = constrain_rec(f1, c1);
            result = mk(top, r0, r1);
        }
    }
    cache_store(op::constrain_op, f, c, 0, result);
    return result ^ out;
}

bdd bdd_manager::restrict_dc(const bdd& f, const bdd& c) {
    checked_guard("restrict_dc", f, c);
    assert(f.manager() == this && c.manager() == this);
    assert(!c.is_zero() && "restrict: empty care set");
    maybe_gc_or_grow();
    return make(restrict_rec(f.index(), c.index()));
}

std::uint32_t bdd_manager::restrict_rec(std::uint32_t f, std::uint32_t c) {
    if (c == 1 || is_terminal(f)) { return f; }
    if (c == f) { return 1; }
    if (c == (f ^ 1u)) { return 0; }
    const std::uint32_t out = comp_of(f);
    f ^= out;
    std::uint32_t result = 0;
    if (cache_lookup(op::restrict_op, f, c, 0, result)) { return result ^ out; }
    const std::uint32_t lc = var2level_[var_of(c)];
    const std::uint32_t lf = var2level_[var_of(f)];
    if (lc < lf) {
        // f does not depend on c's top variable: drop it from the care set
        // (this is the difference from constrain)
        result = restrict_rec(f, or_rec(lo_of(c), hi_of(c)));
    } else {
        const std::uint32_t f0 = lo_of(f);
        const std::uint32_t f1 = hi_of(f);
        const std::uint32_t c0 = lc == lf ? lo_of(c) : c;
        const std::uint32_t c1 = lc == lf ? hi_of(c) : c;
        if (c0 == 0) {
            result = restrict_rec(f1, c1);
        } else if (c1 == 0) {
            result = restrict_rec(f0, c0);
        } else {
            const std::uint32_t r0 = restrict_rec(f0, c0);
            const std::uint32_t r1 = restrict_rec(f1, c1);
            result = mk(var_of(f), r0, r1);
        }
    }
    cache_store(op::restrict_op, f, c, 0, result);
    return result ^ out;
}

} // namespace leq
