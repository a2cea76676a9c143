/// \file test_subsolution.cpp
/// \brief Sub-solution selection (the paper's "optimum sub-solution" future
/// work): policy extraction against a per-minterm reference, minimization,
/// containment and the candidate search.

#include "eq/reduce.hpp"
#include "eq/solver.hpp"
#include "eq/subsolution.hpp"
#include "eq/verify.hpp"
#include "gen/scenario.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

namespace {

using namespace leq;

struct solved {
    network original;
    split_result split;
    equation_problem problem;
    solve_result result;

    solved(network net, const std::vector<std::size_t>& cut)
        : original(std::move(net)), split(split_latches(original, cut)),
          problem(split.fixed, original),
          result(solve_partitioned(problem)) {}
};

bool input_progressive_over_u(const equation_problem& p, const automaton& a) {
    const bdd v_cube = p.mgr().cube(p.v_vars);
    for (std::uint32_t q = 0; q < a.num_states(); ++q) {
        if (!p.mgr().exists(a.domain(q), v_cube).is_one()) { return false; }
    }
    return true;
}

const char* policy_name(extraction_policy policy) {
    return policy == extraction_policy::first_edge ? "first_edge"
                                                   : "prefer_visited";
}

constexpr extraction_policy both_policies[] = {
    extraction_policy::first_edge,
    extraction_policy::prefer_visited,
};

/// The reference extractor: decides every (state, u minterm) on its own,
/// u in ascending order (u_vars[0] least significant).  The chosen edge is
/// the first admitting one (prefer_visited: the first admitting one whose
/// destination is already extracted, if any); the v is pick_cube's with
/// the v bits it leaves free pinned to 0.
automaton reference_extract_fsm(const automaton& csf,
                                const std::vector<std::uint32_t>& u_vars,
                                const std::vector<std::uint32_t>& v_vars,
                                extraction_policy policy) {
    bdd_manager& mgr = csf.manager();
    automaton fsm(mgr, csf.label_vars());
    std::map<std::uint32_t, std::uint32_t> ids; // csf state -> fsm state
    std::queue<std::uint32_t> work;
    const auto intern = [&](std::uint32_t q) {
        const auto it = ids.find(q);
        if (it != ids.end()) { return it->second; }
        const std::uint32_t id = fsm.add_state(true);
        ids.emplace(q, id);
        work.push(q);
        return id;
    };
    fsm.set_initial(intern(csf.initial()));
    while (!work.empty()) {
        const std::uint32_t q = work.front();
        work.pop();
        const std::uint32_t src = ids.at(q);
        for (std::size_t m = 0; m < (std::size_t{1} << u_vars.size()); ++m) {
            bdd u_cube = mgr.one();
            for (std::size_t b = 0; b < u_vars.size(); ++b) {
                u_cube &= mgr.literal(u_vars[b], ((m >> b) & 1) != 0);
            }
            const transition* chosen = nullptr;
            bdd chosen_enabled;
            for (const transition& t : csf.transitions(q)) {
                const bdd enabled = t.label & u_cube;
                if (enabled.is_zero()) { continue; }
                const bool better =
                    chosen == nullptr ||
                    (policy == extraction_policy::prefer_visited &&
                     ids.count(t.dest) != 0 && ids.count(chosen->dest) == 0);
                if (better) {
                    chosen = &t;
                    chosen_enabled = enabled;
                }
            }
            if (chosen == nullptr) {
                throw std::logic_error("reference: not input-progressive");
            }
            bdd choice = mgr.pick_cube(chosen_enabled);
            for (const std::uint32_t v : v_vars) {
                const bdd pinned = choice & mgr.nvar(v);
                if (!pinned.is_zero()) { choice = pinned; }
            }
            fsm.add_transition(src, intern(chosen->dest), choice);
        }
    }
    return fsm;
}

/// extract_fsm commits per transition; the reference per minterm.  Both
/// must reach the same states and accept the same language.
void expect_matches_reference(const automaton& csf,
                              const std::vector<std::uint32_t>& u_vars,
                              const std::vector<std::uint32_t>& v_vars,
                              const std::string& what) {
    for (const extraction_policy policy : both_policies) {
        const automaton fsm = extract_fsm(csf, u_vars, v_vars, policy);
        const automaton ref =
            reference_extract_fsm(csf, u_vars, v_vars, policy);
        EXPECT_EQ(fsm.num_states(), ref.num_states())
            << what << " " << policy_name(policy);
        EXPECT_TRUE(is_deterministic(fsm))
            << what << " " << policy_name(policy);
        EXPECT_TRUE(language_equivalent(fsm, ref))
            << what << " " << policy_name(policy);
    }
}

// ---------------------------------------------------------------------------
// policy extraction
// ---------------------------------------------------------------------------

TEST(subsolution, every_policy_yields_contained_progressive_fsm) {
    solved s(make_traffic_controller(), {1});
    ASSERT_EQ(s.result.status, solve_status::ok);
    ASSERT_FALSE(s.result.empty_solution);
    const automaton& csf = *s.result.csf;
    for (const extraction_policy policy : both_policies) {
        const automaton fsm =
            extract_fsm(csf, s.problem.u_vars, s.problem.v_vars, policy);
        const char* id = policy_name(policy);
        EXPECT_TRUE(is_deterministic(fsm)) << id;
        EXPECT_TRUE(language_contained(fsm, csf)) << id;
        EXPECT_TRUE(input_progressive_over_u(s.problem, fsm)) << id;
        // a contained FSM also satisfies the paper's check (2)
        EXPECT_TRUE(verify_composition_contained(s.problem, fsm)) << id;
    }
}

TEST(subsolution, rejects_empty_csf) {
    solved s(make_paper_example(), {1});
    ASSERT_EQ(s.result.status, solve_status::ok);
    automaton empty(s.problem.mgr(), s.result.csf->label_vars());
    empty.add_state(false);
    empty.set_initial(0);
    EXPECT_THROW((void)extract_fsm(empty, s.problem.u_vars, s.problem.v_vars,
                                   extraction_policy::first_edge),
                 std::invalid_argument);
    EXPECT_THROW((void)select_small_subsolution(empty, s.problem.u_vars,
                                                s.problem.v_vars),
                 std::invalid_argument);
}

TEST(subsolution, rejects_a_csf_that_is_not_input_progressive) {
    bdd_manager mgr(2);
    automaton csf(mgr, {0, 1});
    csf.set_initial(csf.add_state(true));
    csf.add_transition(0, 0, mgr.var(0)); // u = 0 has no move
    for (const extraction_policy policy : both_policies) {
        EXPECT_THROW((void)extract_fsm(csf, {0}, {1}, policy),
                     std::logic_error)
            << policy_name(policy);
    }
}

/// One CSF state where already-extracted and new destinations compete for
/// u values on both sides of each u that only a new destination admits.
/// u = u0 + 2 u1 + 4 u2; v_vars lists v_a before v_b, but v_b has the lower
/// level, so the level order of the v choice differs from v_vars' order.
TEST(subsolution, per_transition_commit_keeps_per_minterm_decisions) {
    bdd_manager mgr(5);
    const std::vector<std::uint32_t> u_vars{0, 1, 2};
    const std::uint32_t v_b = 3;
    const std::uint32_t v_a = 4;
    const std::vector<std::uint32_t> v_vars{v_a, v_b};
    const auto u_set = [&](std::initializer_list<unsigned> values) {
        bdd set = mgr.zero();
        for (const unsigned m : values) {
            bdd cube = mgr.one();
            for (std::size_t b = 0; b < u_vars.size(); ++b) {
                cube &= mgr.literal(u_vars[b], ((m >> b) & 1) != 0);
            }
            set |= cube;
        }
        return set;
    };
    automaton csf(mgr, {0, 1, 2, 3, 4});
    const std::uint32_t s0 = csf.add_state(true);
    const std::uint32_t s1 = csf.add_state(true);
    const std::uint32_t s2 = csf.add_state(true);
    csf.set_initial(s0);
    // in s0, in this order: two new destinations, then the self-loop
    csf.add_transition(s0, s1, u_set({2, 5, 6}) & mgr.var(v_a));
    csf.add_transition(s0, s2, u_set({1, 2, 4, 7}) & mgr.nvar(v_a));
    csf.add_transition(s0, s0, u_set({0, 3, 4, 7}) & mgr.var(v_a));
    csf.add_transition(s1, s0, mgr.one());
    csf.add_transition(s2, s2, mgr.var(v_a) | mgr.var(v_b));

    expect_matches_reference(csf, u_vars, v_vars, "hand-made");
    // prefer_visited sends u = 2 and u = 4 to s2 (extracted at u = 1) and
    // first_edge sends u = 2 to s1, so the two policies disagree here
    const automaton first =
        extract_fsm(csf, u_vars, v_vars, extraction_policy::first_edge);
    const automaton visited =
        extract_fsm(csf, u_vars, v_vars, extraction_policy::prefer_visited);
    EXPECT_FALSE(language_equivalent(first, visited));
    for (const automaton* fsm : {&first, &visited}) {
        EXPECT_EQ(fsm->num_states(), 3u);
        EXPECT_TRUE(language_contained(*fsm, csf));
    }
}

class subsolution_reference
    : public ::testing::TestWithParam<std::tuple<scenario_family,
                                                 std::uint32_t>> {};

TEST_P(subsolution_reference, extraction_matches_the_per_minterm_reference) {
    const auto [family, scale] = GetParam();
    std::size_t compared = 0;
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
        const scenario sc = make_scenario(family, seed, scale);
        const equation_problem problem(sc.fixed, sc.spec,
                                       sc.num_choice_inputs);
        const solve_result result = solve_partitioned(problem);
        ASSERT_EQ(result.status, solve_status::ok) << sc.name;
        if (result.empty_solution) { continue; }
        expect_matches_reference(*result.csf, problem.u_vars, problem.v_vars,
                                 sc.name);
        ++compared;
    }
    if (compared == 0) { GTEST_SKIP() << "no seed has a non-empty CSF"; }
}

INSTANTIATE_TEST_SUITE_P(
    families, subsolution_reference,
    ::testing::Combine(::testing::ValuesIn(all_scenario_families),
                       ::testing::Values(1u, 2u)));

// ---------------------------------------------------------------------------
// the search
// ---------------------------------------------------------------------------

/// The search's candidates rebuilt outside it, in its order: each method
/// with its minimized state count (the cover only inside its limits).
std::vector<std::pair<std::string, std::size_t>>
candidate_sizes(const automaton& csf, const std::vector<std::uint32_t>& u_vars,
                const std::vector<std::uint32_t>& v_vars) {
    std::vector<std::pair<std::string, std::size_t>> sizes;
    if (const auto cover = reduce_subsolution(csf, u_vars, v_vars)) {
        sizes.emplace_back("compatibility", minimize(*cover).num_states());
    }
    for (const extraction_policy policy : both_policies) {
        sizes.emplace_back(
            policy_name(policy),
            minimize(extract_fsm(csf, u_vars, v_vars, policy)).num_states());
    }
    return sizes;
}

/// The search returns the smallest candidate, the earliest on a tie.
void expect_smallest_candidate(const automaton& csf,
                               const std::vector<std::uint32_t>& u_vars,
                               const std::vector<std::uint32_t>& v_vars,
                               const subsolution_result& r) {
    std::pair<std::string, std::size_t> smallest{"", SIZE_MAX};
    for (const auto& c : candidate_sizes(csf, u_vars, v_vars)) {
        if (c.second < smallest.second) { smallest = c; }
    }
    EXPECT_EQ(r.fsm.num_states(), smallest.second);
    EXPECT_EQ(r.method, smallest.first);
}

TEST(subsolution, search_returns_smallest_candidate) {
    solved s(make_counter(3), {2});
    ASSERT_EQ(s.result.status, solve_status::ok);
    ASSERT_FALSE(s.result.empty_solution);
    const auto r = select_small_subsolution(*s.result.csf, s.problem.u_vars,
                                            s.problem.v_vars);
    // a small CSF: the compatibility cover is a candidate too
    ASSERT_EQ(candidate_sizes(*s.result.csf, s.problem.u_vars,
                              s.problem.v_vars)
                  .size(),
              3u);
    expect_smallest_candidate(*s.result.csf, s.problem.u_vars,
                              s.problem.v_vars, r);
    EXPECT_TRUE(language_contained(r.fsm, *s.result.csf));
    EXPECT_TRUE(verify_composition_contained(s.problem, r.fsm));
}

TEST(subsolution, search_tries_the_policies_when_the_cover_succeeds) {
    // gen:random:6:1: the compatibility cover minimizes to 36 states, a
    // policy extraction to at most 9
    const scenario sc = make_scenario(scenario_family::random, 6, 1);
    const equation_problem problem(sc.fixed, sc.spec, sc.num_choice_inputs);
    const solve_result result = solve_partitioned(problem);
    ASSERT_EQ(result.status, solve_status::ok);
    ASSERT_FALSE(result.empty_solution);
    const auto r = select_small_subsolution(*result.csf, problem.u_vars,
                                            problem.v_vars);
    const auto sizes =
        candidate_sizes(*result.csf, problem.u_vars, problem.v_vars);
    ASSERT_EQ(sizes.size(), 3u);
    EXPECT_EQ(sizes[0].first, "compatibility");
    EXPECT_LT(r.fsm.num_states(), sizes[0].second);
    EXPECT_LE(r.fsm.num_states(), 9u);
    EXPECT_NE(r.method, "compatibility");
}

TEST(subsolution, large_csf_skips_the_cover) {
    // 640 CSF states: past the compatibility cover's 512-state limit
    const scenario sc = make_scenario(scenario_family::counter, 1, 16);
    const equation_problem problem(sc.fixed, sc.spec, sc.num_choice_inputs);
    const solve_result result = solve_partitioned(problem);
    ASSERT_EQ(result.status, solve_status::ok);
    const auto r = select_small_subsolution(*result.csf, problem.u_vars,
                                            problem.v_vars);
    EXPECT_EQ(
        candidate_sizes(*result.csf, problem.u_vars, problem.v_vars).size(),
        2u);
    EXPECT_NE(r.method, "compatibility");
    EXPECT_EQ(r.fsm.num_states(), 3u);
}

TEST(subsolution, minimized_fsm_never_larger_than_csf) {
    solved s(make_lfsr(4, {1}), {3});
    ASSERT_EQ(s.result.status, solve_status::ok);
    if (s.result.empty_solution) { GTEST_SKIP(); }
    const auto r = select_small_subsolution(*s.result.csf, s.problem.u_vars,
                                            s.problem.v_vars);
    EXPECT_LE(r.fsm.num_states(), s.result.csf->num_states());
}

TEST(subsolution, search_beats_or_matches_naive_extraction) {
    // the whole point: the searched sub-solution is never worse than the
    // baseline greedy extraction
    solved s(make_shift_xor(4), {3});
    ASSERT_EQ(s.result.status, solve_status::ok);
    if (s.result.empty_solution) { GTEST_SKIP(); }
    const automaton naive =
        extract_fsm(*s.result.csf, s.problem.u_vars, s.problem.v_vars,
                    extraction_policy::first_edge);
    const auto r = select_small_subsolution(*s.result.csf, s.problem.u_vars,
                                            s.problem.v_vars);
    EXPECT_LE(r.fsm.num_states(), naive.num_states());
}

class subsolution_families : public ::testing::TestWithParam<int> {};

TEST_P(subsolution_families, search_is_sound_across_circuits) {
    const int id = GetParam();
    const network net = id == 0   ? make_counter(3)
                        : id == 1 ? make_lfsr(4, {1})
                        : id == 2 ? make_traffic_controller()
                        : id == 3 ? make_shift_xor(3)
                        : id == 4 ? make_paper_example()
                                  : make_counter(4);
    solved s(net, {net.num_latches() - 1});
    ASSERT_EQ(s.result.status, solve_status::ok);
    if (s.result.empty_solution) { GTEST_SKIP(); }
    const auto r = select_small_subsolution(*s.result.csf, s.problem.u_vars,
                                            s.problem.v_vars);
    EXPECT_TRUE(is_deterministic(r.fsm));
    EXPECT_TRUE(language_contained(r.fsm, *s.result.csf));
    EXPECT_TRUE(input_progressive_over_u(s.problem, r.fsm));
    EXPECT_TRUE(verify_composition_contained(s.problem, r.fsm));
    expect_smallest_candidate(*s.result.csf, s.problem.u_vars,
                              s.problem.v_vars, r);
}

INSTANTIATE_TEST_SUITE_P(families, subsolution_families,
                         ::testing::Range(0, 6));

} // namespace
