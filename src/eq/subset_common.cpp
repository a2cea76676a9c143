/// \file subset_common.cpp
/// \brief Shared subset-construction driver and cofactor-class extraction.

#include "eq/subset_common.hpp"

#include <deque>
#include <queue>
#include <utility>

namespace leq::detail {

solve_options with_deadline(const solve_options& options) {
    using clock = std::chrono::steady_clock;
    solve_options armed = options;
    if (armed.time_limit_seconds > 0 && !armed.deadline) {
        const clock::time_point now = clock::now();
        const std::chrono::duration<double> limit(armed.time_limit_seconds);
        // saturate: a limit near or past the clock's range (about 146
        // years here) is no deadline at all — duration_cast would overflow
        // into a deadline in the past.  Halving the room keeps the double
        // rounding of the cast clear of the edge.
        if (limit < std::chrono::duration<double>(
                        clock::time_point::max() - now) / 2) {
            armed.deadline =
                now + std::chrono::duration_cast<clock::duration>(limit);
        }
    }
    return armed;
}

deadline_scope::deadline_scope(bdd_manager& mgr, const solve_options& options)
    : mgr_(mgr), armed_(options.deadline.has_value()) {
    if (armed_) { mgr_.set_op_deadline(*options.deadline); }
}

deadline_scope::~deadline_scope() {
    if (armed_) { mgr_.clear_op_deadline(); }
}

solve_result timeout_result(std::chrono::steady_clock::time_point start) {
    solve_result result;
    result.status = solve_status::timeout;
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
}

void accumulate_stats(solve_stats& stats, const transition_relation& rel) {
    stats.relations += 1;
    stats.relation_parts += rel.num_parts();
    stats.clusters += rel.num_clusters();
    stats.images += rel.stats().images;
}

void read_manager_stats(solve_stats& stats, bdd_manager& mgr) {
    stats.live_nodes_after = mgr.live_node_count();
    const bdd_stats& b = mgr.stats();
    stats.gc_runs = b.gc_runs;
    stats.cache_lookups = b.cache_lookups;
    stats.cache_hits = b.cache_hits;
    stats.op_lookups = b.op_lookups;
    stats.op_hits = b.op_hits;
}

std::vector<cofactor_class> split_by_top_block(bdd_manager& mgr, const bdd& p,
                                               std::uint32_t boundary) {
    return mgr.cofactor_classes(p, boundary);
}

solve_result
subset_driver::run(const bdd& initial_state,
                   const std::function<expansion(const bdd&)>& expand) const {
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
            .count();
    };

    solve_result result;

    // subset states interned by BDD index (canonical)
    std::unordered_map<std::uint32_t, std::uint32_t> ids;
    std::vector<bdd> subsets;
    // The subset construction is itself a reachability exploration over
    // subset states, expanded in layer (FIFO) order.
    std::deque<std::uint32_t> work;
    const auto intern = [&](const bdd& state) {
        const auto it = ids.find(state.index());
        if (it != ids.end()) { return it->second; }
        const auto id = static_cast<std::uint32_t>(subsets.size());
        ids.emplace(state.index(), id);
        subsets.push_back(state);
        work.push_back(id);
        return id;
    };

    struct edge {
        std::uint32_t dest;
        bdd guard;
    };
    std::vector<std::vector<edge>> edges;

    try {
        intern(initial_state);
        while (!work.empty()) {
            if (options.max_subset_states > 0 &&
                subsets.size() > options.max_subset_states) {
                result.status = solve_status::state_limit;
                result.subset_states_explored = subsets.size();
                result.seconds = elapsed();
                return result;
            }
            const std::uint32_t id = work.front();
            work.pop_front();
            const expansion exp = expand(subsets[id]);
            if (edges.size() <= id) { edges.resize(id + 1); }
            for (const cofactor_class& c : exp.successors) {
                const bdd successor = mgr.permute(c.leaf, ns_to_cs);
                edges[id].push_back({intern(successor), c.guard});
            }
            if (!exp.to_dca.is_zero()) {
                // DCA is state number `subsets.size()` once exploration ends;
                // mark with a sentinel and fix up below
                edges[id].push_back({0xffffffffu, exp.to_dca});
            }
        }
        result.subset_states_explored = subsets.size();

        const auto num_subsets = static_cast<std::uint32_t>(subsets.size());
        const std::uint32_t dca = num_subsets; // appended completion state
        edges.resize(num_subsets + 1);
        for (auto& state_edges : edges) {
            for (edge& e : state_edges) {
                if (e.dest == 0xffffffffu) { e.dest = dca; }
            }
        }
        edges[dca].push_back({dca, mgr.one()});

        // progressive trimming over u: a state survives while every u
        // assignment admits some v with a transition to a surviving state
        const bdd v_cube = mgr.cube(std::vector<std::uint32_t>(
            uv_vars.begin() + static_cast<std::ptrdiff_t>(u_vars.size()),
            uv_vars.end()));
        std::vector<bool> alive(num_subsets + 1, true);
        // worklist fixpoint: when a state dies only its predecessors need
        // rechecking (a full-sweep loop is quadratic at 10^5 states)
        std::vector<std::vector<std::uint32_t>> preds(num_subsets + 1);
        for (std::uint32_t s = 0; s <= num_subsets; ++s) {
            for (const edge& e : edges[s]) { preds[e.dest].push_back(s); }
        }
        const auto progressive_ok = [&](std::uint32_t s) {
            bdd dom = mgr.zero();
            for (const edge& e : edges[s]) {
                if (alive[e.dest]) { dom |= e.guard; }
            }
            return mgr.exists(dom, v_cube).is_one();
        };
        std::queue<std::uint32_t> dead;
        for (std::uint32_t s = 0; s <= num_subsets; ++s) {
            if (!progressive_ok(s)) {
                alive[s] = false;
                dead.push(s);
            }
        }
        while (!dead.empty()) {
            const std::uint32_t d = dead.front();
            dead.pop();
            for (const std::uint32_t p : preds[d]) {
                if (alive[p] && !progressive_ok(p)) {
                    alive[p] = false;
                    dead.push(p);
                }
            }
        }

        if (!alive[0]) {
            result.empty_solution = true;
            automaton empty(mgr, uv_vars);
            empty.set_initial(empty.add_state(false));
            result.csf = std::move(empty);
            result.csf_states = 0;
            result.seconds = elapsed();
            return result;
        }

        // assemble the CSF automaton (all states accepting; prefix-closed by
        // construction: DCN-bound moves were never added as edges)
        automaton csf(mgr, uv_vars);
        std::vector<std::uint32_t> remap(num_subsets + 1, 0);
        for (std::uint32_t s = 0; s <= num_subsets; ++s) {
            if (alive[s]) { remap[s] = csf.add_state(true); }
        }
        csf.set_initial(remap[0]);
        for (std::uint32_t s = 0; s <= num_subsets; ++s) {
            if (!alive[s]) { continue; }
            for (const edge& e : edges[s]) {
                if (alive[e.dest]) {
                    csf.add_transition(remap[s], remap[e.dest], e.guard);
                }
            }
        }
        automaton trimmed = trim_unreachable(csf);
        result.csf_states = trimmed.num_states();
        result.csf = std::move(trimmed);
        result.seconds = elapsed();
        return result;
    } catch (const bdd_deadline_exceeded&) {
        // the solve's deadline passed in an expansion, the trimming or the
        // assembly
        result = timeout_result(start);
        result.subset_states_explored = subsets.size();
        return result;
    }
}

} // namespace leq::detail
