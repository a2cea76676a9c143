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

bdd bdd_manager::and_exists(const std::vector<bdd>& operands,
                            const bdd& cube) {
    checked_guard("and_exists", operands);
    checked_guard("and_exists", cube);
    assert(cube.manager() == this);
    maybe_gc_or_grow();
    std::vector<std::uint32_t> ops;
    ops.reserve(operands.size());
    for (const bdd& f : operands) {
        assert(f.manager() == this);
        ops.push_back(f.index());
    }
    nary_memo memo;
    return make(and_exists_nary_rec(std::move(ops), cube.index(), memo));
}

std::uint32_t bdd_manager::and_exists_nary_rec(std::vector<std::uint32_t> ops,
                                               std::uint32_t cube,
                                               nary_memo& memo) {
    // normalize the span: sort + dedupe, drop TRUE, detect FALSE and
    // complementary pairs (a reference and its complement differ only in the
    // low bit, so after sorting they sit adjacent)
    std::sort(ops.begin(), ops.end());
    ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
    if (!ops.empty() && ops.front() == 0) { return 0; }
    ops.erase(std::remove(ops.begin(), ops.end(), 1u), ops.end());
    for (std::size_t k = 0; k + 1 < ops.size(); ++k) {
        if (ops[k + 1] == (ops[k] ^ 1u)) { return 0; } // f & !f
    }
    if (ops.empty()) { return 1; }
    if (ops.size() == 1) { return exists_rec(ops[0], cube); }
    if (ops.size() == 2) { return and_exists_rec(ops[0], ops[1], cube); }

    // top level across the span (all operands non-terminal here)
    std::uint32_t top_level = var2level_[var_of(ops[0])];
    for (std::size_t k = 1; k < ops.size(); ++k) {
        top_level = std::min(top_level, var2level_[var_of(ops[k])]);
    }
    // skip quantified variables above the top: absent from every operand
    while (cube != 1 && var2level_[var_of(cube)] < top_level) {
        cube = hi_of(cube);
    }
    if (cube == 1) {
        // nothing left to quantify: plain conjunction (pairwise, so the
        // global AND cache amortizes shared sub-conjunctions)
        std::uint32_t acc = ops[0];
        for (std::size_t k = 1; k < ops.size() && acc != 0; ++k) {
            acc = and_rec(acc, ops[k]);
        }
        return acc;
    }

    std::vector<std::uint32_t> key = ops;
    key.push_back(cube);
    const auto it = memo.find(key);
    if (it != memo.end()) { return it->second; }

    const std::uint32_t top_var = level2var_[top_level];
    std::vector<std::uint32_t> lo_ops, hi_ops;
    lo_ops.reserve(ops.size());
    hi_ops.reserve(ops.size());
    for (const std::uint32_t f : ops) {
        lo_ops.push_back(var_of(f) == top_var ? lo_of(f) : f);
        hi_ops.push_back(var_of(f) == top_var ? hi_of(f) : f);
    }
    std::uint32_t result = 0;
    if (var_of(cube) == top_var) {
        const std::uint32_t rest = hi_of(cube);
        const std::uint32_t r0 =
            and_exists_nary_rec(std::move(lo_ops), rest, memo);
        if (r0 == 1) {
            result = 1;
        } else {
            result =
                or_rec(r0, and_exists_nary_rec(std::move(hi_ops), rest, memo));
        }
    } else {
        const std::uint32_t r0 =
            and_exists_nary_rec(std::move(lo_ops), cube, memo);
        const std::uint32_t r1 =
            and_exists_nary_rec(std::move(hi_ops), cube, memo);
        result = mk(top_var, r0, r1);
    }
    memo.emplace(std::move(key), result);
    return result;
}

std::uint32_t bdd_manager::exists_rec(std::uint32_t f, std::uint32_t cube) {
    if (is_terminal(f)) { return f; }
    // skip quantified variables above f's top: they do not occur in f
    const std::uint32_t f_level = var2level_[var_of(f)];
    while (cube != 1 && var2level_[var_of(cube)] < f_level) {
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
    // top level among the two operands (both non-terminal here)
    const std::uint32_t top_level =
        std::min(var2level_[var_of(f)], var2level_[var_of(g)]);
    // skip quantified variables above the top: absent from both operands
    while (cube != 1 && var2level_[var_of(cube)] < top_level) {
        cube = hi_of(cube);
    }
    if (cube == 1) { return and_rec(f, g); }
    std::uint32_t result = 0;
    if (cache_lookup(op::and_exists_op, f, g, cube, result)) { return result; }
    const std::uint32_t top_var = level2var_[top_level];
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
