/// \file test_solver_edges.cpp
/// \brief Edge cases of the solver entry points: resource limits, option
/// combinations, and degenerate interfaces (combinational F or S, empty
/// variable groups), and the subset driver itself against the explicit
/// automata operations.

#include "eq/solver.hpp"
#include "eq/subset_common.hpp"
#include "eq/verify.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <map>
#include <random>

namespace {

using namespace leq;

// ---------------------------------------------------------------------------
// resource limits
// ---------------------------------------------------------------------------

TEST(solver_edges, subset_state_limit_reports_state_limit) {
    const network original = make_counter(4);
    const split_result split = split_latches(original, {3});
    const equation_problem problem(split.fixed, original);
    solve_options options;
    options.max_subset_states = 1;
    const solve_result r = solve_partitioned(problem, options);
    EXPECT_EQ(r.status, solve_status::state_limit);
    EXPECT_FALSE(r.csf.has_value());
}

TEST(solver_edges, tiny_time_limit_reports_timeout) {
    structured_spec spec;
    spec.num_inputs = 3;
    spec.num_outputs = 6;
    spec.num_latches = 14;
    spec.seed = 14;
    const network original = make_structured_mix(spec);
    const split_result split = split_last_latches(original, 7);
    const equation_problem problem(split.fixed, original);
    solve_options options;
    options.time_limit_seconds = 1e-9;
    EXPECT_EQ(solve_partitioned(problem, options).status,
              solve_status::timeout);
    EXPECT_EQ(solve_monolithic(problem, options).status,
              solve_status::timeout);
}

TEST(solver_edges, huge_time_limit_is_no_deadline) {
    // a limit past the steady clock's range used to overflow the deadline
    // into the past and time out instantly; it must saturate instead
    const network original = make_counter(4);
    const split_result split = split_latches(original, {3});
    const equation_problem problem(split.fixed, original);
    solve_options options;
    options.time_limit_seconds = 1e300;
    const solve_result part = solve_partitioned(problem, options);
    EXPECT_EQ(part.status, solve_status::ok);
    EXPECT_EQ(solve_monolithic(problem, options).status, solve_status::ok);
    EXPECT_EQ(part.csf_states, solve_partitioned(problem).csf_states);
}

// ---------------------------------------------------------------------------
// option combinations must not change the answer
// ---------------------------------------------------------------------------

TEST(solver_edges, naive_image_mode_matches_scheduled) {
    const network original = make_traffic_controller();
    const split_result split = split_latches(original, {1});
    const equation_problem problem(split.fixed, original);
    const solve_result scheduled = solve_partitioned(problem);
    solve_options naive;
    naive.img.early_quantification = false;
    const solve_result plain = solve_partitioned(problem, naive);
    ASSERT_EQ(scheduled.status, solve_status::ok);
    ASSERT_EQ(plain.status, solve_status::ok);
    EXPECT_TRUE(language_equivalent(*scheduled.csf, *plain.csf));
}

TEST(solver_edges, clustering_disabled_matches) {
    const network original = make_counter(4);
    const split_result split = split_latches(original, {3});
    const equation_problem problem(split.fixed, original);
    const solve_result base = solve_partitioned(problem);
    solve_options no_cluster;
    no_cluster.img.cluster_limit = 0;
    const solve_result flat = solve_partitioned(problem, no_cluster);
    ASSERT_EQ(base.status, solve_status::ok);
    ASSERT_EQ(flat.status, solve_status::ok);
    EXPECT_TRUE(language_equivalent(*base.csf, *flat.csf));
}

// ---------------------------------------------------------------------------
// degenerate interfaces
// ---------------------------------------------------------------------------

TEST(solver_edges, combinational_fixed_component) {
    // F has no latches at all: o = v, u = i (a pure wire box)
    network f("wires");
    f.add_input("a");
    f.add_input("xv");
    f.add_node("z", {"xv"}, {"1"});
    f.add_node("xu", {"a"}, {"1"});
    f.add_output("z");
    f.add_output("xu");
    f.validate();
    // spec: z must equal a delayed once
    network s("delay");
    s.add_input("a");
    s.add_latch("a", "d", false);
    s.add_node("z", {"d"}, {"1"});
    s.add_output("z");
    s.validate();

    const equation_problem problem(f, s);
    EXPECT_TRUE(problem.cs_f.empty());
    const solve_result part = solve_partitioned(problem);
    const solve_result mono = solve_monolithic(problem);
    const solve_result oracle = solve_explicit(problem, f, s);
    ASSERT_EQ(part.status, solve_status::ok);
    ASSERT_EQ(mono.status, solve_status::ok);
    ASSERT_EQ(oracle.status, solve_status::ok);
    EXPECT_FALSE(part.empty_solution); // X = one-bit delay works
    EXPECT_TRUE(language_equivalent(*part.csf, *mono.csf));
    EXPECT_TRUE(language_equivalent(*part.csf, *oracle.csf));
}

TEST(solver_edges, combinational_specification) {
    // S has no latches: z == a combinationally; F wires v to z and a to u
    network f("wires");
    f.add_input("a");
    f.add_input("xv");
    f.add_node("z", {"xv"}, {"1"});
    f.add_node("xu", {"a"}, {"1"});
    f.add_output("z");
    f.add_output("xu");
    f.validate();
    network s("identity");
    s.add_input("a");
    s.add_node("z", {"a"}, {"1"});
    s.add_output("z");
    s.validate();

    const equation_problem problem(f, s);
    EXPECT_TRUE(problem.cs_s.empty());
    const solve_result part = solve_partitioned(problem);
    const solve_result oracle = solve_explicit(problem, f, s);
    ASSERT_EQ(part.status, solve_status::ok);
    ASSERT_EQ(oracle.status, solve_status::ok);
    EXPECT_FALSE(part.empty_solution); // X = identity (v = u) works
    EXPECT_TRUE(language_equivalent(*part.csf, *oracle.csf));

    // the identity machine is allowed, the inverter is not
    bdd_manager& mgr = problem.mgr();
    automaton ident(mgr, part.csf->label_vars());
    ident.add_state(true);
    ident.set_initial(0);
    ident.add_transition(
        0, 0, mgr.var(problem.u_vars[0]).iff(mgr.var(problem.v_vars[0])));
    EXPECT_TRUE(language_contained(ident, *part.csf));
    automaton inv(mgr, part.csf->label_vars());
    inv.add_state(true);
    inv.set_initial(0);
    inv.add_transition(
        0, 0, mgr.var(problem.u_vars[0]) ^ mgr.var(problem.v_vars[0]));
    EXPECT_FALSE(language_contained(inv, *part.csf));
}

TEST(solver_edges, unknown_with_no_outputs) {
    // |v| = 0: X only observes u; F alone must already implement S for a
    // solution to exist (X cannot influence anything)
    network f("observer");
    f.add_input("a");
    f.add_latch("a", "d", false);
    f.add_node("z", {"d"}, {"1"});
    f.add_node("xu", {"a"}, {"1"});
    f.add_output("z");
    f.add_output("xu");
    f.validate();
    network s("delay");
    s.add_input("a");
    s.add_latch("a", "e", false);
    s.add_node("z", {"e"}, {"1"});
    s.add_output("z");
    s.validate();

    const equation_problem problem(f, s);
    EXPECT_TRUE(problem.v_vars.empty());
    const solve_result part = solve_partitioned(problem);
    const solve_result oracle = solve_explicit(problem, f, s);
    ASSERT_EQ(part.status, solve_status::ok);
    ASSERT_EQ(oracle.status, solve_status::ok);
    EXPECT_FALSE(part.empty_solution); // F == S here, so X may be anything
    EXPECT_TRUE(language_equivalent(*part.csf, *oracle.csf));
}

TEST(solver_edges, unknown_with_no_outputs_unsatisfiable) {
    // same shape but F violates S on its own: no X can help
    network f("wrong");
    f.add_input("a");
    f.add_latch("a", "d", false);
    f.add_node("z", {"d"}, {"0"}); // inverted delay
    f.add_node("xu", {"a"}, {"1"});
    f.add_output("z");
    f.add_output("xu");
    f.validate();
    network s("delay");
    s.add_input("a");
    s.add_latch("a", "e", false);
    s.add_node("z", {"e"}, {"1"});
    s.add_output("z");
    s.validate();

    const equation_problem problem(f, s);
    const solve_result part = solve_partitioned(problem);
    ASSERT_EQ(part.status, solve_status::ok);
    EXPECT_TRUE(part.empty_solution);
}

// ---------------------------------------------------------------------------
// the subset driver, driven directly
// ---------------------------------------------------------------------------

/// A synthetic subset construction laid out like a problem's variables: u
/// (two bits) and v (one bit) on top, then cs/ns pairs.  Subset `k` is the
/// cs minterm of k, and its successors come back as ns minterms.
/// `moves[k][m]` is where state k goes on the (u,v) minterm m (u is m's
/// low two bits, v its third): a subset code, `to_dca`, or `no_move`.
class synthetic_subsets {
public:
    static constexpr int no_move = -2;
    static constexpr int to_dca = -1;
    static constexpr std::uint32_t uv_minterms = 8;
    static constexpr std::uint32_t code_bits = 7; // codes 0..127

    explicit synthetic_subsets(std::vector<std::vector<int>> moves)
        : moves_(std::move(moves)) {
        for (std::uint32_t i = 0; i < 3 + 2 * code_bits; ++i) {
            (void)mgr_.new_var();
        }
        ns_to_cs_.resize(mgr_.num_vars());
        for (std::uint32_t v = 0; v < mgr_.num_vars(); ++v) {
            ns_to_cs_[v] = v;
        }
        for (std::uint32_t j = 0; j < code_bits; ++j) {
            ns_to_cs_[ns_var(j)] = cs_var(j);
            ns_to_cs_[cs_var(j)] = ns_var(j);
        }
        for (std::uint32_t m = 0; m < uv_minterms; ++m) {
            bdd cube = mgr_.one();
            for (std::uint32_t b = 0; b < 3; ++b) {
                cube &= ((m >> b) & 1U) != 0 ? mgr_.var(b) : !mgr_.var(b);
            }
            uv_.push_back(cube);
        }
        for (std::size_t k = 0; k < moves_.size(); ++k) {
            cs_.push_back(minterm(static_cast<std::uint32_t>(k), false));
            ns_.push_back(minterm(static_cast<std::uint32_t>(k), true));
            code_of_.emplace(cs_.back().index(), static_cast<int>(k));
            code_of_.emplace(ns_.back().index(), static_cast<int>(k));
        }
    }

    /// The callback the driver runs: one class per distinct successor, in
    /// order of its first minterm, and the DCA guard.
    [[nodiscard]] detail::expansion expand(const bdd& subset) {
        const std::vector<int>& row = moves_.at(code_of_.at(subset.index()));
        detail::expansion exp;
        exp.to_dca = mgr_.zero();
        std::map<int, std::size_t> class_of;
        for (std::uint32_t m = 0; m < uv_minterms; ++m) {
            if (row[m] == to_dca) {
                exp.to_dca |= uv_[m];
            } else if (row[m] != no_move) {
                const auto [it, fresh] =
                    class_of.emplace(row[m], exp.successors.size());
                if (fresh) {
                    exp.successors.push_back({mgr_.zero(), ns_[row[m]]});
                }
                exp.successors[it->second].guard |= uv_[m];
            }
        }
        return exp;
    }

    [[nodiscard]] solve_result run(std::size_t max_subset_states = 0) {
        solve_options options;
        options.max_subset_states = max_subset_states;
        const detail::subset_driver driver{mgr_, uv_vars_, u_vars_, ns_to_cs_,
                                           options};
        return driver.run(cs_.at(0),
                          [&](const bdd& psi) { return expand(psi); });
    }

    /// The reference: explore breadth-first from code 0 with a plain
    /// map and queue, build the whole automaton (every subset accepting,
    /// DCA last with a universal self-loop), then apply progressive().
    /// With a subset limit, `limited` reports whether the explorer stopped
    /// before an expansion with more subsets than the limit, and
    /// `explored` how many it had.
    [[nodiscard]] automaton reference(std::size_t max_subset_states,
                                      bool& limited, std::size_t& explored) {
        std::map<int, std::uint32_t> id_of;
        std::vector<int> code_at;
        std::deque<std::uint32_t> work;
        const auto intern = [&](int code) {
            const auto [it, fresh] = id_of.emplace(
                code, static_cast<std::uint32_t>(code_at.size()));
            if (fresh) {
                code_at.push_back(code);
                work.push_back(it->second);
            }
            return it->second;
        };
        struct arc {
            std::uint32_t src;
            int dest; ///< subset code, or to_dca
            bdd guard;
        };
        std::vector<arc> arcs;
        limited = false;
        intern(0);
        while (!work.empty()) {
            if (max_subset_states > 0 && code_at.size() > max_subset_states) {
                limited = true;
                break;
            }
            const std::uint32_t id = work.front();
            work.pop_front();
            const detail::expansion exp = expand(cs_[code_at[id]]);
            for (const detail::cofactor_class& c : exp.successors) {
                const int code = code_of_.at(c.leaf.index());
                intern(code);
                arcs.push_back({id, code, c.guard});
            }
            if (!exp.to_dca.is_zero()) {
                arcs.push_back({id, to_dca, exp.to_dca});
            }
        }
        explored = code_at.size();
        const auto dca = static_cast<std::uint32_t>(code_at.size());
        automaton full(mgr_, uv_vars_);
        for (std::uint32_t s = 0; s <= dca; ++s) { (void)full.add_state(true); }
        full.set_initial(0);
        for (const arc& a : arcs) {
            full.add_transition(a.src, a.dest == to_dca ? dca : id_of[a.dest],
                                a.guard);
        }
        full.add_transition(dca, dca, mgr_.one());
        return progressive(full, u_vars_);
    }

private:
    [[nodiscard]] static std::uint32_t cs_var(std::uint32_t j) {
        return 3 + 2 * j;
    }
    [[nodiscard]] static std::uint32_t ns_var(std::uint32_t j) {
        return 4 + 2 * j;
    }
    [[nodiscard]] bdd minterm(std::uint32_t code, bool next) {
        bdd cube = mgr_.one();
        for (std::uint32_t j = 0; j < code_bits; ++j) {
            const bdd x = mgr_.var(next ? ns_var(j) : cs_var(j));
            cube &= ((code >> j) & 1U) != 0 ? x : !x;
        }
        return cube;
    }

    bdd_manager mgr_;
    std::vector<std::vector<int>> moves_;
    std::vector<std::uint32_t> u_vars_{0, 1};
    std::vector<std::uint32_t> uv_vars_{0, 1, 2};
    std::vector<std::uint32_t> ns_to_cs_;
    std::vector<bdd> uv_, cs_, ns_;
    std::map<std::uint32_t, int> code_of_; ///< cs and ns minterm -> code
};

/// Same states, initial state, acceptance and, per state, the same
/// (dest, label) list in the same order.
void expect_same_structure(const automaton& got, const automaton& want) {
    ASSERT_EQ(got.num_states(), want.num_states());
    EXPECT_EQ(got.initial(), want.initial());
    EXPECT_EQ(got.label_vars(), want.label_vars());
    for (std::uint32_t s = 0; s < want.num_states(); ++s) {
        EXPECT_EQ(got.accepting(s), want.accepting(s)) << "state " << s;
        const std::vector<transition>& g = got.transitions(s);
        const std::vector<transition>& w = want.transitions(s);
        ASSERT_EQ(g.size(), w.size()) << "state " << s;
        for (std::size_t k = 0; k < w.size(); ++k) {
            EXPECT_EQ(g[k].dest, w[k].dest) << "state " << s << " edge " << k;
            EXPECT_TRUE(g[k].label == w[k].label)
                << "state " << s << " edge " << k;
        }
    }
}

/// Run the driver without a limit and check it against the reference;
/// returns the driver's result.
solve_result expect_driver_matches_reference(synthetic_subsets& g) {
    const solve_result got = g.run();
    bool limited = false;
    std::size_t explored = 0;
    const automaton want = g.reference(0, limited, explored);
    EXPECT_EQ(got.status, solve_status::ok);
    EXPECT_EQ(got.subset_states_explored, explored);
    const bool empty = want.num_states() == 1 && !want.accepting(0);
    EXPECT_EQ(got.empty_solution, empty);
    EXPECT_EQ(got.csf_states, empty ? 0 : want.num_states());
    if (got.csf.has_value()) { expect_same_structure(*got.csf, want); }
    else { ADD_FAILURE() << "no CSF"; }
    return got;
}

/// On each (u,v) minterm a state has no move with probability
/// `no_move_percent`, moves to DCA with probability 10%, and otherwise
/// moves to one of three codes drawn for that state.
std::vector<std::vector<int>> random_moves(std::uint32_t seed,
                                           std::uint32_t no_move_percent) {
    std::mt19937 rng(seed);
    std::vector<std::vector<int>> moves(1U << synthetic_subsets::code_bits);
    for (std::vector<int>& row : moves) {
        std::array<int, 3> picks{};
        for (int& p : picks) {
            p = static_cast<int>(rng() % moves.size());
        }
        for (std::uint32_t m = 0; m < synthetic_subsets::uv_minterms; ++m) {
            const std::uint32_t r = rng() % 100;
            if (r < no_move_percent) {
                row.push_back(synthetic_subsets::no_move);
            } else if (r < no_move_percent + 10) {
                row.push_back(synthetic_subsets::to_dca);
            } else {
                row.push_back(picks[rng() % picks.size()]);
            }
        }
    }
    return moves;
}

/// A row moving on minterm m to by_u[m & 3] (the same for both v values).
std::vector<int> by_u(int u0, int u1, int u2, int u3) {
    const std::array<int, 4> to{u0, u1, u2, u3};
    std::vector<int> row;
    for (std::uint32_t m = 0; m < synthetic_subsets::uv_minterms; ++m) {
        row.push_back(to[m & 3U]);
    }
    return row;
}

/// A row moving to `on_v0` when v = 0 and to `on_v1` when v = 1.
std::vector<int> by_v(int on_v0, int on_v1) {
    std::vector<int> row;
    for (std::uint32_t m = 0; m < synthetic_subsets::uv_minterms; ++m) {
        row.push_back(m < 4 ? on_v0 : on_v1);
    }
    return row;
}

std::vector<int> all_to(int dest) { return by_u(dest, dest, dest, dest); }

constexpr int none = synthetic_subsets::no_move;
constexpr int dca = synthetic_subsets::to_dca;

TEST(subset_driver, random_constructions_match_progressive) {
    // 128 possible subsets: the intern table (64 slots, at most half full)
    // grows at least twice, successors are reached many times, and the
    // no-move rate sweeps from few deaths to an empty solution
    std::size_t empty = 0;
    std::size_t trimmed = 0;
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
        synthetic_subsets g(random_moves(seed, 5 * (seed % 4)));
        const solve_result r = expect_driver_matches_reference(g);
        EXPECT_GT(r.subset_states_explored, 64U) << "seed " << seed;
        empty += r.empty_solution ? 1 : 0;
        trimmed += !r.empty_solution &&
                           r.csf_states < r.subset_states_explored + 1
                       ? 1
                       : 0;
    }
    EXPECT_GT(empty, 0U);
    EXPECT_GT(trimmed, 0U);
}

TEST(subset_driver, successor_reached_twice_and_dca_edges) {
    // 0 -> {1, 2}; 1 -> 3 or DCA; 2 -> 3; 3 -> 0: 3 is interned once, and
    // state 1's DCA edge comes after its subset edge
    synthetic_subsets g({by_v(1, 2), by_u(3, 3, dca, dca), all_to(3),
                         all_to(0)});
    const solve_result r = expect_driver_matches_reference(g);
    EXPECT_EQ(r.subset_states_explored, 4U);
    EXPECT_EQ(r.csf_states, 5U); // four subsets and DCA
}

TEST(subset_driver, deaths_propagate_through_predecessors) {
    // 0 -> {1, 5}; 1 -> 2 -> 3 -> 4, and 4 covers only u = 0, so 4, 3, 2
    // and 1 die in turn; 0 survives through 5.  DCA is alive but
    // unreachable and is dropped.
    synthetic_subsets g({by_v(1, 5), all_to(2), all_to(3), all_to(4),
                         by_u(4, none, none, none), all_to(5)});
    const solve_result r = expect_driver_matches_reference(g);
    EXPECT_EQ(r.subset_states_explored, 6U);
    EXPECT_EQ(r.csf_states, 2U);
}

TEST(subset_driver, survivor_reached_only_through_dead_states) {
    // 0 -> {1, 2}; 1 covers only u = 0 and dies; its successor 3 survives
    // (a universal self-loop) but is reached only through 1, so it is
    // dropped from the CSF
    synthetic_subsets g({by_v(1, 2), by_u(3, none, none, none), all_to(2),
                         all_to(3)});
    const solve_result r = expect_driver_matches_reference(g);
    EXPECT_EQ(r.subset_states_explored, 4U);
    EXPECT_EQ(r.csf_states, 2U);
}

TEST(subset_driver, dead_initial_state_is_the_empty_solution) {
    synthetic_subsets g({by_u(1, 1, 1, none), all_to(1)});
    const solve_result r = expect_driver_matches_reference(g);
    EXPECT_TRUE(r.empty_solution);
    EXPECT_EQ(r.csf_states, 0U);
}

TEST(subset_driver, subset_limit_stops_before_an_expansion) {
    synthetic_subsets g(random_moves(7, 0));
    const solve_result full = expect_driver_matches_reference(g);
    const std::size_t total = full.subset_states_explored;
    ASSERT_GT(total, 64U);
    for (const std::size_t limit :
         {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{40},
          total - 1, total, total + 1}) {
        const solve_result r = g.run(limit);
        bool limited = false;
        std::size_t explored = 0;
        const automaton want = g.reference(limit, limited, explored);
        EXPECT_EQ(r.subset_states_explored, explored) << "limit " << limit;
        if (limited) {
            EXPECT_EQ(r.status, solve_status::state_limit) << "limit " << limit;
            EXPECT_FALSE(r.csf.has_value()) << "limit " << limit;
        } else {
            ASSERT_EQ(r.status, solve_status::ok) << "limit " << limit;
            ASSERT_TRUE(r.csf.has_value());
            expect_same_structure(*r.csf, want);
        }
        EXPECT_EQ(limited, limit < total) << "limit " << limit;
    }
}

} // namespace
