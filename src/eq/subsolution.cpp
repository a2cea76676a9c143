/// \file subsolution.cpp
/// \brief Policy-driven FSM extraction and the smallest-candidate search.

#include "eq/subsolution.hpp"

#include <map>
#include <optional>
#include <queue>
#include <stdexcept>

namespace leq {

const std::vector<extraction_policy>& all_extraction_policies() {
    static const std::vector<extraction_policy> policies = {
        extraction_policy::first_edge,
        extraction_policy::prefer_visited,
        extraction_policy::prefer_low_dest,
    };
    return policies;
}

automaton extract_fsm(const automaton& csf,
                      const std::vector<std::uint32_t>& u_vars,
                      const std::vector<std::uint32_t>& v_vars,
                      extraction_policy policy) {
    bdd_manager& mgr = csf.manager();
    if (u_vars.size() > 20) {
        throw std::invalid_argument("extract_fsm: too many inputs");
    }
    if (!csf.accepting(csf.initial())) {
        throw std::invalid_argument("extract_fsm: empty CSF");
    }
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
            // collect the admitting edges, then commit per the policy
            const transition* chosen = nullptr;
            bdd chosen_enabled;
            for (const transition& t : csf.transitions(q)) {
                const bdd enabled = t.label & u_cube;
                if (enabled.is_zero()) { continue; }
                bool better = chosen == nullptr;
                if (!better) {
                    switch (policy) {
                        case extraction_policy::first_edge:
                            break; // keep the first
                        case extraction_policy::prefer_visited:
                            better = ids.count(t.dest) != 0 &&
                                     ids.count(chosen->dest) == 0;
                            break;
                        case extraction_policy::prefer_low_dest:
                            better = t.dest < chosen->dest;
                            break;
                    }
                }
                if (better) {
                    chosen = &t;
                    chosen_enabled = enabled;
                }
                if (policy == extraction_policy::first_edge &&
                    chosen != nullptr) {
                    break;
                }
            }
            if (chosen == nullptr) {
                throw std::logic_error(
                    "extract_fsm: CSF is not input-progressive");
            }
            // pick one (u,v) minterm's v part; pin leftover v bits to 0
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

subsolution_result select_small_subsolution(
    const automaton& csf, const std::vector<std::uint32_t>& u_vars,
    const std::vector<std::uint32_t>& v_vars) {
    std::optional<automaton> best;
    extraction_policy best_policy = extraction_policy::first_edge;
    std::vector<subsolution_candidate> candidates;
    for (const extraction_policy policy : all_extraction_policies()) {
        const automaton raw = extract_fsm(csf, u_vars, v_vars, policy);
        automaton small = minimize(raw);
        if (!language_contained(small, csf)) {
            throw std::logic_error(
                "select_small_subsolution: candidate escaped the CSF");
        }
        candidates.push_back({policy, raw.num_states(), small.num_states()});
        if (!best.has_value() || small.num_states() < best->num_states()) {
            best = std::move(small);
            best_policy = policy;
        }
    }
    return {std::move(*best), best_policy, std::move(candidates)};
}

} // namespace leq
