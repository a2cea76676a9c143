/// \file subsolution.cpp
/// \brief Policy-driven FSM extraction and the smallest-candidate search.

#include "eq/subsolution.hpp"

#include "eq/reduce.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <queue>
#include <stdexcept>

namespace leq {

automaton extract_fsm(const automaton& csf,
                      const std::vector<std::uint32_t>& u_vars,
                      const std::vector<std::uint32_t>& v_vars,
                      extraction_policy policy) {
    bdd_manager& mgr = csf.manager();
    if (!csf.accepting(csf.initial())) {
        throw std::invalid_argument("extract_fsm: empty CSF");
    }
    const bdd v_cube = mgr.cube(v_vars);
    std::vector<std::uint32_t> v_levels = v_vars; // a var's id is its level
    std::sort(v_levels.begin(), v_levels.end());
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
        const std::vector<transition>& out = csf.transitions(q);
        std::vector<bdd> admits; // per transition: the u values it admits
        for (const transition& t : out) {
            admits.push_back(mgr.exists(t.label, v_cube));
        }
        bdd uncovered = mgr.one();
        // transition k takes the u values `claimed`; in each, every v bit
        // in level order is 0 wherever some completion allows it
        const auto commit = [&](std::size_t k, const bdd& claimed) {
            bdd e = out[k].label & claimed;
            for (const std::uint32_t v : v_levels) {
                const bdd low = e & mgr.nvar(v);
                e = mgr.ite(mgr.exists(low, v_cube), low, e);
            }
            fsm.add_transition(src, intern(out[k].dest), e);
            uncovered &= !claimed;
        };
        // A transition is preferred when its destination is extracted
        // (first_edge: always).  Each round, m, the lowest uncovered u that
        // no preferred transition admits (u_vars[0] least significant),
        // goes to the first transition admitting it, and every uncovered u
        // below m to the first preferred one admitting it.  The last round
        // has no m and hands out every u left the same way.
        while (true) {
            std::vector<std::size_t> preferred;
            bdd rest = uncovered; // what no preferred transition admits
            for (std::size_t k = 0; k < out.size(); ++k) {
                if (policy == extraction_policy::first_edge ||
                    ids.count(out[k].dest) != 0) {
                    preferred.push_back(k);
                    rest &= !admits[k];
                }
            }
            // narrow m to the lowest u of `rest`, most significant bit first,
            // collecting every u below it; with no m, every u is below
            bdd m = mgr.one();
            bdd below = rest.is_zero() ? mgr.one() : mgr.zero();
            for (std::size_t b = u_vars.size(); b-- > 0 && !rest.is_zero();) {
                const bdd low = m & mgr.nvar(u_vars[b]);
                if ((rest & low).is_zero()) {
                    below |= low;
                    m &= mgr.var(u_vars[b]);
                } else {
                    m = low;
                }
            }
            bdd region = uncovered & below;
            for (const std::size_t k : preferred) {
                const bdd claimed = region & admits[k];
                if (claimed.is_zero()) { continue; }
                commit(k, claimed);
                region &= !claimed;
            }
            if (rest.is_zero()) { break; }
            std::size_t k = 0;
            while (k < out.size() && (admits[k] & m).is_zero()) { ++k; }
            if (k == out.size()) {
                throw std::logic_error(
                    "extract_fsm: CSF is not input-progressive");
            }
            commit(k, m);
        }
    }
    return fsm;
}

subsolution_result select_small_subsolution(
    const automaton& csf, const std::vector<std::uint32_t>& u_vars,
    const std::vector<std::uint32_t>& v_vars) {
    std::optional<subsolution_result> best;
    const auto consider = [&](const char* method, const automaton& raw) {
        automaton small = minimize(raw);
        if (!language_contained(small, csf)) {
            throw std::logic_error(std::string("select_small_subsolution: ") +
                                   method + " candidate escaped the CSF");
        }
        if (!best || small.num_states() < best->fsm.num_states()) {
            best = subsolution_result{std::move(small), method};
        }
    };
    if (const auto cover = reduce_subsolution(csf, u_vars, v_vars)) {
        consider("compatibility", *cover);
    }
    consider("first_edge",
             extract_fsm(csf, u_vars, v_vars, extraction_policy::first_edge));
    consider("prefer_visited", extract_fsm(csf, u_vars, v_vars,
                                           extraction_policy::prefer_visited));
    return std::move(*best);
}

} // namespace leq
