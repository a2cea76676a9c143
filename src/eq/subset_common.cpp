/// \file subset_common.cpp
/// \brief Shared subset-construction driver and cofactor-class extraction.

#include "eq/subset_common.hpp"

#include <chrono>
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

solve_result run_solve(const equation_problem& problem,
                       const solve_options& options,
                       const std::function<solve_result()>& body) {
    const auto start = std::chrono::steady_clock::now();
    bdd_manager& mgr = problem.mgr();
    const solve_options armed = with_deadline(options);
    // disarms on every exit, an exception other than the deadline's too
    struct disarm {
        bdd_manager& mgr;
        ~disarm() { mgr.clear_op_deadline(); }
    };
    solve_result result;
    {
        const disarm on_exit{mgr};
        if (armed.deadline) { mgr.set_op_deadline(*armed.deadline); }
        try {
            result = body();
        } catch (const bdd_deadline_exceeded&) {
            // the deadline passed outside the subset driver (which returns
            // its own timeout): the relation counters died with the unwound
            // relations
            result.status = solve_status::timeout;
        }
    }
    read_manager_stats(result.stats, mgr);
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
    read_manager_counters(stats, mgr);
}

std::vector<cofactor_class> split_by_top_block(bdd_manager& mgr, const bdd& p,
                                               std::uint32_t boundary) {
    return mgr.cofactor_classes(p, boundary);
}

solve_result
subset_driver::run(const bdd& initial_state,
                   const std::function<expansion(const bdd&)>& expand) const {
    constexpr std::uint32_t none = 0xffffffffu;

    solve_result result;

    // Subset states in discovery order: a subset's id is its index here.
    // They are interned by tagged reference (canonical) in an open-addressed
    // table, linear probing, at most half full, doubled on growth.  A key
    // stays valid because `subsets` holds its handle and a collection never
    // moves or frees a held node.
    std::vector<bdd> subsets;
    struct slot {
        std::uint32_t key;
        std::uint32_t id; ///< `none` marks an empty slot
    };
    std::vector<slot> table(64, slot{0, none});
    unsigned table_bits = 6;
    const auto probe = [&](std::uint32_t key) {
        const std::size_t mask = table.size() - 1;
        std::size_t i = (key * 0x9e3779b1u) >> (32 - table_bits);
        while (table[i].id != none && table[i].key != key) {
            i = (i + 1) & mask;
        }
        return i;
    };
    const auto intern = [&](bdd state) {
        const std::uint32_t key = state.index();
        const std::size_t i = probe(key);
        if (table[i].id != none) { return table[i].id; }
        const auto id = static_cast<std::uint32_t>(subsets.size());
        table[i] = {key, id};
        subsets.push_back(std::move(state));
        if (2 * subsets.size() > table.size()) {
            std::vector<slot> old(2 * table.size(), slot{0, none});
            old.swap(table);
            ++table_bits;
            for (const slot& s : old) {
                if (s.id != none) { table[probe(s.key)] = s; }
            }
        }
        return id;
    };

    // Edges in one array: state s owns edges[first[s] .. first[s + 1]).
    // Expansion runs in id order, so each state's edges are contiguous.
    struct edge {
        std::uint32_t dest;
        bdd guard;
    };
    std::vector<edge> edges;
    std::vector<std::uint32_t> first;

    try {
        intern(initial_state);
        // The subset construction is itself a reachability exploration over
        // subset states, expanded in layer (FIFO) order: ids are handed out
        // in discovery order, so the worklist is the ids not yet expanded.
        for (std::uint32_t id = 0; id < subsets.size(); ++id) {
            if (options.max_subset_states > 0 &&
                subsets.size() > options.max_subset_states) {
                result.status = solve_status::state_limit;
                result.subset_states_explored = subsets.size();
                return result;
            }
            expansion exp = expand(subsets[id]);
            first.push_back(static_cast<std::uint32_t>(edges.size()));
            for (cofactor_class& c : exp.successors) {
                const std::uint32_t dest =
                    intern(mgr.permute(c.leaf, ns_to_cs));
                edges.push_back({dest, std::move(c.guard)});
            }
            if (!exp.to_dca.is_zero()) {
                // DCA is state number `subsets.size()` once exploration ends;
                // mark with a sentinel and fix up below
                edges.push_back({none, std::move(exp.to_dca)});
            }
        }
        result.subset_states_explored = subsets.size();

        const auto num_subsets = static_cast<std::uint32_t>(subsets.size());
        const std::uint32_t dca = num_subsets; // appended completion state
        const std::uint32_t num_states = num_subsets + 1;
        for (edge& e : edges) {
            if (e.dest == none) { e.dest = dca; }
        }
        first.push_back(static_cast<std::uint32_t>(edges.size()));
        edges.push_back({dca, mgr.one()});
        first.push_back(static_cast<std::uint32_t>(edges.size()));

        // progressive trimming over u: a state survives while every u
        // assignment admits some v with a transition to a surviving state
        const bdd v_cube = mgr.cube(std::vector<std::uint32_t>(
            uv_vars.begin() + static_cast<std::ptrdiff_t>(u_vars.size()),
            uv_vars.end()));
        std::vector<bool> alive(num_states, true);
        // worklist fixpoint: when a state dies only its predecessors need
        // rechecking (a full-sweep loop is quadratic at 10^5 states).
        // Predecessors are indexed like edges, each list in source order.
        std::vector<std::uint32_t> pred_first(num_states + 1, 0);
        for (const edge& e : edges) { ++pred_first[e.dest + 1]; }
        for (std::uint32_t s = 0; s < num_states; ++s) {
            pred_first[s + 1] += pred_first[s];
        }
        std::vector<std::uint32_t> preds(edges.size());
        {
            std::vector<std::uint32_t> fill(pred_first.begin(),
                                            pred_first.end() - 1);
            for (std::uint32_t s = 0; s < num_states; ++s) {
                for (std::uint32_t k = first[s]; k < first[s + 1]; ++k) {
                    preds[fill[edges[k].dest]++] = s;
                }
            }
        }
        const auto progressive_ok = [&](std::uint32_t s) {
            bdd dom = mgr.zero();
            for (std::uint32_t k = first[s]; k < first[s + 1]; ++k) {
                if (alive[edges[k].dest]) { dom |= edges[k].guard; }
            }
            return mgr.exists(dom, v_cube).is_one();
        };
        // dead states in the order they died; `next` is the queue's head
        std::vector<std::uint32_t> dead;
        for (std::uint32_t s = 0; s < num_states; ++s) {
            if (!progressive_ok(s)) {
                alive[s] = false;
                dead.push_back(s);
            }
        }
        for (std::size_t next = 0; next < dead.size(); ++next) {
            const std::uint32_t d = dead[next];
            for (std::uint32_t k = pred_first[d]; k < pred_first[d + 1]; ++k) {
                const std::uint32_t p = preds[k];
                if (alive[p] && !progressive_ok(p)) {
                    alive[p] = false;
                    dead.push_back(p);
                }
            }
        }

        if (!alive[0]) {
            result.empty_solution = true;
            automaton empty(mgr, uv_vars);
            empty.set_initial(empty.add_state(false));
            result.csf = std::move(empty);
            result.csf_states = 0;
            return result;
        }

        // assemble the CSF automaton from the surviving states that state 0
        // reaches, numbered in index order (all states accepting;
        // prefix-closed by construction: DCN-bound moves were never added
        // as edges)
        std::vector<std::uint32_t> number(num_states, none);
        std::vector<std::uint32_t> reach{0};
        number[0] = 0;
        while (!reach.empty()) {
            const std::uint32_t s = reach.back();
            reach.pop_back();
            for (std::uint32_t k = first[s]; k < first[s + 1]; ++k) {
                const std::uint32_t d = edges[k].dest;
                if (alive[d] && number[d] == none) {
                    number[d] = 0;
                    reach.push_back(d);
                }
            }
        }
        automaton csf(mgr, uv_vars);
        for (std::uint32_t s = 0; s < num_states; ++s) {
            if (number[s] != none) { number[s] = csf.add_state(true); }
        }
        csf.set_initial(number[0]);
        for (std::uint32_t s = 0; s < num_states; ++s) {
            if (number[s] == none) { continue; }
            for (std::uint32_t k = first[s]; k < first[s + 1]; ++k) {
                if (alive[edges[k].dest]) {
                    csf.add_transition(number[s], number[edges[k].dest],
                                       edges[k].guard);
                }
            }
        }
        result.csf_states = csf.num_states();
        result.csf = std::move(csf);
        return result;
    } catch (const bdd_deadline_exceeded&) {
        // the solve's deadline passed in an expansion, the trimming or the
        // assembly
        result = solve_result{};
        result.status = solve_status::timeout;
        result.subset_states_explored = subsets.size();
        return result;
    }
}

} // namespace leq::detail

namespace leq {

void read_manager_counters(solve_stats& stats, const bdd_manager& mgr) {
    const bdd_stats& b = mgr.stats();
    stats.gc_runs = b.gc_runs;
    stats.cache_lookups = b.cache_lookups;
    stats.cache_hits = b.cache_hits;
    stats.op_lookups = b.op_lookups;
    stats.op_hits = b.op_hits;
    stats.allocated_nodes = b.allocated_nodes;
    stats.subst_nodes = b.subst_nodes;
}

} // namespace leq
