/// \file bdd_quant.cpp
/// \brief Quantification: exists and the fused and-exists (relational
/// product), the workhorse of partitioned image computation.
///
/// Quantifier cubes are positive products of the variables to eliminate;
/// traversal follows the hi-edges of the cube.

#include "bdd/bdd.hpp"
#include "bdd/bdd_core.hpp"

#include <algorithm>
#include <cassert>

namespace leq {

bdd bdd_manager::exists(const bdd& f, const bdd& cube) {
    checked_guard("exists", f, cube);
    assert(f.manager() == this && cube.manager() == this);
    maybe_gc_or_grow();
    return make(exists_rec(f.index(), cube.index()));
}

bdd bdd_manager::and_exists(const bdd& f, const bdd& g, const bdd& cube) {
    checked_guard("and_exists", f, g, cube);
    assert(f.manager() == this && g.manager() == this &&
           cube.manager() == this);
    maybe_gc_or_grow();
    return make(and_exists_rec(f.index(), g.index(), cube.index()));
}

std::uint32_t bdd_manager::exists_rec(std::uint32_t f, std::uint32_t cube) {
    if (is_terminal(f)) { return f; }
    // skip quantified variables above f's top: they do not occur in f
    const std::uint32_t f_var = var_of(f);
    while (cube != 1 && var_of(cube) < f_var) {
        cube = hi_of(cube);
    }
    if (cube == 1) { return f; }
    std::uint32_t result = 0;
    if (cache_lookup(op::exists_op, f, cube, 0, result)) { return result; }
    const std::uint32_t f0 = lo_of(f);
    const std::uint32_t f1 = hi_of(f);
    if (var_of(cube) == var_of(f)) {
        const std::uint32_t rest = hi_of(cube);
        const std::uint32_t r0 = exists_rec(f0, rest);
        if (r0 == 1) {
            result = 1;
        } else {
            result = or_rec(r0, exists_rec(f1, rest));
        }
    } else {
        const std::uint32_t r0 = exists_rec(f0, cube);
        const std::uint32_t r1 = exists_rec(f1, cube);
        result = mk(var_of(f), r0, r1);
    }
    cache_store(op::exists_op, f, cube, 0, result);
    return result;
}

std::uint32_t bdd_manager::and_exists_rec(std::uint32_t f, std::uint32_t g,
                                          std::uint32_t cube) {
    if (f == 0 || g == 0 || f == (g ^ 1u)) { return 0; }
    if (f == 1 && g == 1) { return 1; }
    if (f == 1 || f == g) { return exists_rec(g, cube); }
    if (g == 1) { return exists_rec(f, cube); }
    if (f > g) { std::swap(f, g); }
    // top variable among the two operands (both non-terminal here)
    const std::uint32_t top_var = std::min(var_of(f), var_of(g));
    // skip quantified variables above the top: absent from both operands
    while (cube != 1 && var_of(cube) < top_var) {
        cube = hi_of(cube);
    }
    if (cube == 1) { return and_rec(f, g); }
    std::uint32_t result = 0;
    if (cache_lookup(op::and_exists_op, f, g, cube, result)) { return result; }
    std::uint32_t f0 = f, f1 = f, g0 = g, g1 = g;
    if (var_of(f) == top_var) { f0 = lo_of(f); f1 = hi_of(f); }
    if (var_of(g) == top_var) { g0 = lo_of(g); g1 = hi_of(g); }
    if (var_of(cube) == top_var) {
        const std::uint32_t rest = hi_of(cube);
        const std::uint32_t r0 = and_exists_rec(f0, g0, rest);
        if (r0 == 1) {
            result = 1;
        } else {
            result = or_rec(r0, and_exists_rec(f1, g1, rest));
        }
    } else {
        const std::uint32_t r0 = and_exists_rec(f0, g0, cube);
        const std::uint32_t r1 = and_exists_rec(f1, g1, cube);
        result = mk(top_var, r0, r1);
    }
    cache_store(op::and_exists_op, f, g, cube, result);
    return result;
}

} // namespace leq
