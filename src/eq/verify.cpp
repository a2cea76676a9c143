/// \file verify.cpp
/// \brief Symbolic verification of a computed CSF.
///
/// Both checks run their successor steps through the shared
/// transition-relation layer (src/rel/): the X_P walk is a relation with no
/// parts (image = exists v . r & label, renamed u -> v), the composition
/// walk is the full u-match + next-state partition, and the "X enabled"
/// substitution is the u-match relation quantifying u.

#include "eq/verify.hpp"

#include "rel/relation.hpp"

#include <queue>
#include <stdexcept>

namespace leq {

bool verify_particular_contained(const equation_problem& problem,
                                 const automaton& csf,
                                 const std::vector<bool>& x_init) {
    bdd_manager& mgr = problem.mgr();
    if (problem.u_vars.size() != problem.v_vars.size() ||
        x_init.size() != problem.v_vars.size()) {
        throw std::invalid_argument(
            "verify_particular_contained: X_P must pair every u with a v");
    }
    // X_P's state is its v vector; a step reads any u, asserts v = state,
    // and moves to state' = u.  Containment in the (deterministic,
    // prefix-closed) CSF fails exactly when some reachable pair
    // (X_P state, CSF state) admits a (u, v=state) move the CSF lacks.
    // The step relation has no parts of its own: successor X_P states are
    // exists v . r & label, with the enabled u values renamed to v.
    transition_relation xp_step(mgr, {}, problem.v_vars);
    xp_step.rename_result(problem.uv_swap_permutation());

    std::vector<bdd> reached(csf.num_states(), mgr.zero());
    bdd init = mgr.one();
    for (std::size_t m = 0; m < problem.v_vars.size(); ++m) {
        init &= mgr.literal(problem.v_vars[m], x_init[m]);
    }
    reached[csf.initial()] = init;

    std::queue<std::uint32_t> work;
    work.push(csf.initial());
    std::vector<bool> queued(csf.num_states(), false);
    queued[csf.initial()] = true;
    while (!work.empty()) {
        const std::uint32_t q = work.front();
        work.pop();
        queued[q] = false;
        const bdd r = reached[q];
        // miss: a (v in r, any u) step with no CSF transition
        if (!(r & !csf.domain(q)).is_zero()) { return false; }
        for (const transition& t : csf.transitions(q)) {
            const bdd next = xp_step.image(r, t.label);
            const bdd grown = reached[t.dest] | next;
            if (grown != reached[t.dest]) {
                reached[t.dest] = grown;
                if (!queued[t.dest]) {
                    queued[t.dest] = true;
                    work.push(t.dest);
                }
            }
        }
    }
    return true;
}

bool verify_composition_contained(const equation_problem& problem,
                                  const automaton& csf) {
    bdd_manager& mgr = problem.mgr();
    // u_m == U_m(i, v, cs_F) parts, used both to substitute u in the CSF
    // guards and to drive the successor image
    std::vector<bdd> u_match;
    for (std::size_t m = 0; m < problem.u_vars.size(); ++m) {
        u_match.push_back(mgr.var(problem.u_vars[m]).iff(problem.f_u[m]));
    }
    std::vector<bdd> parts = u_match;
    for (std::size_t k = 0; k < problem.ns_f.size(); ++k) {
        parts.push_back(mgr.var(problem.ns_f[k]).iff(problem.f_next[k]));
    }
    for (std::size_t k = 0; k < problem.ns_s.size(); ++k) {
        parts.push_back(mgr.var(problem.ns_s[k]).iff(problem.s_next[k]));
    }
    std::vector<std::uint32_t> quantify = problem.hidden_input_vars();
    quantify.insert(quantify.end(), problem.u_vars.begin(),
                    problem.u_vars.end());
    quantify.insert(quantify.end(), problem.v_vars.begin(),
                    problem.v_vars.end());
    quantify.insert(quantify.end(), problem.cs_f.begin(), problem.cs_f.end());
    quantify.insert(quantify.end(), problem.cs_s.begin(), problem.cs_s.end());
    transition_relation step(mgr, std::move(parts), std::move(quantify));
    step.rename_result(problem.ns_to_cs_permutation());

    // per CSF state: "X enabled" condition E_q(i, v, cs_F): exists u with a
    // CSF move where u matches F's u outputs
    const transition_relation u_subst(mgr, u_match, problem.u_vars);
    std::vector<bdd> enabled(csf.num_states(), mgr.zero());
    for (std::uint32_t q = 0; q < csf.num_states(); ++q) {
        enabled[q] = u_subst.image(csf.domain(q));
    }

    // !C_j per output, built once for the whole walk
    std::vector<bdd> nonconforming;
    nonconforming.reserve(problem.s_o.size());
    for (std::size_t j = 0; j < problem.s_o.size(); ++j) {
        nonconforming.push_back(!problem.conformance(j));
    }

    std::vector<bdd> reached(csf.num_states(), mgr.zero());
    reached[csf.initial()] = problem.initial_product_state();
    std::queue<std::uint32_t> work;
    work.push(csf.initial());
    std::vector<bool> queued(csf.num_states(), false);
    queued[csf.initial()] = true;
    while (!work.empty()) {
        const std::uint32_t q = work.front();
        work.pop();
        queued[q] = false;
        const bdd r = reached[q];
        // violation: an enabled composed step whose o output disagrees with
        // S on some output j (checked one output at a time; the monolithic
        // conformance relation is never built)
        const bdd r_enabled = r & enabled[q];
        for (const bdd& not_c : nonconforming) {
            if (!(r_enabled & not_c).is_zero()) { return false; }
        }
        for (const transition& t : csf.transitions(q)) {
            const bdd next = step.image(r, t.label);
            const bdd grown = reached[t.dest] | next;
            if (grown != reached[t.dest]) {
                reached[t.dest] = grown;
                if (!queued[t.dest]) {
                    queued[t.dest] = true;
                    work.push(t.dest);
                }
            }
        }
    }
    return true;
}

} // namespace leq
