/// \file reduce.cpp
/// \brief Compatibility fixpoint and greedy closed-cover construction.

#include "eq/reduce.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace leq {

namespace {

/// Explicit successor tables: dest[state][u][v] = successor id, or -1.
struct tables {
    std::size_t nu = 0, nv = 0; ///< letter counts: 2^|u_vars|, 2^|v_vars|
    std::vector<std::int32_t> dest;

    [[nodiscard]] std::int32_t& at(std::size_t s, std::size_t u,
                                   std::size_t v) {
        return dest[(s * nu + u) * nv + v];
    }
    [[nodiscard]] std::int32_t at(std::size_t s, std::size_t u,
                                  std::size_t v) const {
        return dest[(s * nu + u) * nv + v];
    }
};

tables build_tables(const automaton& csf,
                    const std::vector<std::uint32_t>& u_vars,
                    const std::vector<std::uint32_t>& v_vars) {
    bdd_manager& mgr = csf.manager();
    tables t;
    t.nu = std::size_t{1} << u_vars.size();
    t.nv = std::size_t{1} << v_vars.size();
    t.dest.assign(csf.num_states() * t.nu * t.nv, -1);
    std::vector<bool> letter(mgr.num_vars(), false);
    for (std::uint32_t s = 0; s < csf.num_states(); ++s) {
        for (const transition& tr : csf.transitions(s)) {
            for (std::size_t u = 0; u < t.nu; ++u) {
                for (std::size_t b = 0; b < u_vars.size(); ++b) {
                    letter[u_vars[b]] = ((u >> b) & 1) != 0;
                }
                for (std::size_t v = 0; v < t.nv; ++v) {
                    for (std::size_t b = 0; b < v_vars.size(); ++b) {
                        letter[v_vars[b]] = ((v >> b) & 1) != 0;
                    }
                    if (mgr.eval(tr.label, letter)) {
                        t.at(s, u, v) = static_cast<std::int32_t>(tr.dest);
                    }
                }
            }
        }
    }
    return t;
}

/// Pairwise compatibility, greatest fixpoint.
std::vector<bool> compatibility(const tables& t, std::size_t n) {
    std::vector<bool> compat(n * n, true);
    const auto idx = [n](std::size_t p, std::size_t q) { return p * n + q; };
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                if (!compat[idx(p, q)]) { continue; }
                bool ok = true;
                for (std::size_t u = 0; u < t.nu && ok; ++u) {
                    bool some_v = false;
                    for (std::size_t v = 0; v < t.nv && !some_v; ++v) {
                        const std::int32_t dp = t.at(p, u, v);
                        const std::int32_t dq = t.at(q, u, v);
                        if (dp < 0 || dq < 0) { continue; }
                        const auto a = static_cast<std::size_t>(
                            std::min(dp, dq));
                        const auto b = static_cast<std::size_t>(
                            std::max(dp, dq));
                        some_v = a == b || compat[idx(a, b)];
                    }
                    ok = some_v;
                }
                if (!ok) {
                    compat[idx(p, q)] = false;
                    compat[idx(q, p)] = false;
                    changed = true;
                }
            }
        }
    }
    return compat;
}

using clique = std::vector<std::uint32_t>; // sorted member states

} // namespace

std::optional<automaton>
reduce_subsolution(const automaton& csf,
                   const std::vector<std::uint32_t>& u_vars,
                   const std::vector<std::uint32_t>& v_vars) {
    if (!csf.accepting(csf.initial())) {
        throw std::invalid_argument("reduce_subsolution: empty CSF");
    }
    const std::size_t n = csf.num_states();
    if (n > reduce_max_states ||
        u_vars.size() + v_vars.size() > reduce_max_label_bits) {
        return std::nullopt;
    }
    const tables t = build_tables(csf, u_vars, v_vars);
    const std::vector<bool> compat = compatibility(t, n);
    const auto compatible = [&](std::uint32_t p, std::uint32_t q) {
        return p == q || compat[std::size_t{p} * n + q];
    };

    // the cover: cliques of pairwise-compatible states; transitions are
    // resolved while the worklist drains
    std::vector<clique> cliques;
    std::map<clique, std::size_t> clique_ids;
    std::vector<std::size_t> work;
    const auto intern = [&](clique c) -> std::size_t {
        std::sort(c.begin(), c.end());
        c.erase(std::unique(c.begin(), c.end()), c.end());
        const auto it = clique_ids.find(c);
        if (it != clique_ids.end()) { return it->second; }
        const std::size_t id = cliques.size();
        cliques.push_back(c);
        clique_ids.emplace(std::move(c), id);
        work.push_back(id);
        return id;
    };
    /// the smallest existing clique containing all of `members`, if any
    const auto find_superset = [&](const clique& members)
        -> std::optional<std::size_t> {
        std::optional<std::size_t> best;
        for (std::size_t k = 0; k < cliques.size(); ++k) {
            if (std::includes(cliques[k].begin(), cliques[k].end(),
                              members.begin(), members.end()) &&
                (!best.has_value() ||
                 cliques[k].size() < cliques[*best].size())) {
                best = k;
            }
        }
        return best;
    };

    // reduced machine skeleton: per clique, per u letter: (v letter, succ)
    struct move {
        std::size_t v = 0;
        std::size_t succ = 0;
    };
    std::vector<std::vector<move>> moves;

    (void)intern({csf.initial()});
    while (!work.empty()) {
        const std::size_t id = work.back();
        work.pop_back();
        if (cliques.size() > reduce_max_cliques) { return std::nullopt; }
        if (moves.size() <= id) { moves.resize(cliques.size()); }
        const clique members = cliques[id]; // copy: intern() reallocates
        std::vector<move> row(t.nu);
        for (std::size_t u = 0; u < t.nu; ++u) {
            // candidate v letters whose successor set exists for every
            // member; prefer one whose implied set sits inside an existing
            // clique, otherwise the smallest implied set
            std::optional<move> chosen;
            std::size_t chosen_size = SIZE_MAX;
            bool chosen_existing = false;
            for (std::size_t v = 0; v < t.nv; ++v) {
                clique implied;
                bool all = true;
                for (const std::uint32_t p : members) {
                    const std::int32_t d = t.at(p, u, v);
                    if (d < 0) {
                        all = false;
                        break;
                    }
                    implied.push_back(static_cast<std::uint32_t>(d));
                }
                if (!all) { continue; }
                std::sort(implied.begin(), implied.end());
                implied.erase(std::unique(implied.begin(), implied.end()),
                              implied.end());
                // the implied set must be pairwise compatible to be a
                // clique; with compatible members it always is, but guard
                // against the |C|>2 gap anyway
                bool pairwise = true;
                for (std::size_t a = 0; a < implied.size() && pairwise; ++a) {
                    for (std::size_t b = a + 1; b < implied.size(); ++b) {
                        if (!compatible(implied[a], implied[b])) {
                            pairwise = false;
                            break;
                        }
                    }
                }
                if (!pairwise) { continue; }
                const auto existing = find_superset(implied);
                if (existing.has_value()) {
                    if (!chosen_existing ||
                        cliques[*existing].size() < chosen_size) {
                        chosen = move{v, *existing};
                        chosen_size = cliques[*existing].size();
                        chosen_existing = true;
                    }
                } else if (!chosen_existing && implied.size() < chosen_size) {
                    // defer interning until this v actually wins
                    chosen = move{v, SIZE_MAX};
                    chosen_size = implied.size();
                }
            }
            if (!chosen.has_value()) {
                // pairwise compatibility did not extend to the whole clique
                // for this input: the greedy cover fails on this instance
                return std::nullopt;
            }
            if (chosen->succ == SIZE_MAX) {
                clique implied;
                for (const std::uint32_t p : members) {
                    implied.push_back(static_cast<std::uint32_t>(
                        t.at(p, u, chosen->v)));
                }
                chosen->succ = intern(std::move(implied));
            }
            row[u] = *chosen;
        }
        moves[id] = std::move(row);
    }

    // materialize the reduced FSM
    bdd_manager& mgr = csf.manager();
    automaton fsm(mgr, csf.label_vars());
    for (std::size_t k = 0; k < cliques.size(); ++k) { fsm.add_state(true); }
    fsm.set_initial(0);
    for (std::size_t id = 0; id < cliques.size(); ++id) {
        for (std::size_t u = 0; u < t.nu; ++u) {
            const move& m = moves[id][u];
            bdd label = mgr.one();
            for (std::size_t b = 0; b < u_vars.size(); ++b) {
                label &= mgr.literal(u_vars[b], ((u >> b) & 1) != 0);
            }
            for (std::size_t b = 0; b < v_vars.size(); ++b) {
                label &= mgr.literal(v_vars[b], ((m.v >> b) & 1) != 0);
            }
            fsm.add_transition(static_cast<std::uint32_t>(id),
                               static_cast<std::uint32_t>(m.succ), label);
        }
    }
    return fsm;
}

} // namespace leq
