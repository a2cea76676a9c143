/// \file verify.cpp
/// \brief Symbolic verification of a computed CSF: both of the paper's
/// Section-4 checks, and check (2)'s counterexample extraction.
///
/// Every successor step runs through the shared transition-relation layer
/// (src/rel/): the X_P walk is a relation with no parts (image = exists v .
/// r & label, renamed u -> v), the composition walk is the full u-match +
/// next-state partition, and the "X enabled" substitution is the u-match
/// relation quantifying u.  Both checks run one breadth-first search,
/// `first_violation`; check (2) is its diagnosis with the trace dropped, and
/// the trace is rebuilt only when the search finds a violation.

#include "eq/verify.hpp"

#include "rel/relation.hpp"

#include <cassert>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace leq {

namespace {

/// Everything check (2) needs, built once per CSF: the composed step of F
/// and S (renamed back to current-state variables), the substitution of u
/// through the U_m parts, each CSF state's "X enabled" condition E_q(i, v,
/// cs_F) — some u with a CSF move where u matches F's u outputs — and the
/// per-output non-conformance !C_j (the monolithic conformance relation is
/// never built).
struct composition_step {
    transition_relation step;
    transition_relation u_subst;
    std::vector<bdd> enabled;
    std::vector<bdd> nonconforming;
};

composition_step make_composition_step(const equation_problem& problem,
                                       const automaton& csf) {
    bdd_manager& mgr = problem.mgr();
    std::vector<bdd> u_match = problem.u_match_parts();
    std::vector<bdd> parts = u_match;
    for (bdd& part : problem.next_state_parts()) {
        parts.push_back(std::move(part));
    }
    std::vector<std::uint32_t> quantify = problem.hidden_input_vars();
    quantify.insert(quantify.end(), problem.u_vars.begin(),
                    problem.u_vars.end());
    quantify.insert(quantify.end(), problem.v_vars.begin(),
                    problem.v_vars.end());
    quantify.insert(quantify.end(), problem.cs_f.begin(), problem.cs_f.end());
    quantify.insert(quantify.end(), problem.cs_s.begin(), problem.cs_s.end());
    composition_step c{
        transition_relation(mgr, std::move(parts), std::move(quantify)),
        transition_relation(mgr, std::move(u_match), problem.u_vars),
        {},
        {}};
    c.step.rename_result(problem.ns_to_cs_permutation());
    c.enabled.reserve(csf.num_states());
    for (std::uint32_t q = 0; q < csf.num_states(); ++q) {
        c.enabled.push_back(c.u_subst.image(csf.domain(q)));
    }
    c.nonconforming.reserve(problem.s_o.size());
    for (std::size_t j = 0; j < problem.s_o.size(); ++j) {
        c.nonconforming.push_back(!problem.conformance(j));
    }
    return c;
}

using frame = std::map<std::uint32_t, bdd>; // CSF state -> fresh set

/// Where the search stopped: `bad` is the first violating set (zero when
/// no reachable state violates), `bad_q` its CSF state, and the last frame
/// is its layer.
struct search_result {
    bdd bad;
    std::uint32_t bad_q = 0;
    std::vector<frame> frames;
};

/// The one containment search, breadth-first.  The other side's states
/// (X_P's v vector, or the product (cs_F, cs_S)) run in step with the CSF
/// from `init` in its initial state; frames[t] lists, in CSF-state order,
/// the states *first* reached at depth t in each CSF state that gained any,
/// so a violation found at depth t is shortest and memory follows the
/// states actually reached.  Each layer is tested with `violation(q, r)`,
/// which returns the violating part of r (zero when none), then carried
/// along every CSF transition by `step`.
template <class Violation>
search_result first_violation(const automaton& csf,
                              const transition_relation& step,
                              const bdd& init, const Violation& violation) {
    bdd_manager& mgr = csf.manager();
    search_result s{mgr.zero(), 0, {frame{{csf.initial(), init}}}};
    std::vector<bdd> total(csf.num_states(), mgr.zero());
    total[csf.initial()] = init;
    while (true) {
        for (const auto& [q, r] : s.frames.back()) {
            s.bad = violation(q, r);
            if (!s.bad.is_zero()) {
                s.bad_q = q;
                return s;
            }
        }
        frame next;
        for (const auto& [q, r] : s.frames.back()) {
            for (const transition& tr : csf.transitions(q)) {
                const bdd fresh = step.image(r, tr.label) & !total[tr.dest];
                if (!fresh.is_zero()) {
                    next.try_emplace(tr.dest, mgr.zero()).first->second |=
                        fresh;
                    total[tr.dest] |= fresh;
                }
            }
        }
        if (next.empty()) { return s; }
        s.frames.push_back(std::move(next));
    }
}

/// One full satisfying assignment of f, indexed by variable id; don't-care
/// variables default to false.  f must be satisfiable.
std::vector<bool> pick_assignment(bdd_manager& mgr, const bdd& f) {
    std::vector<bool> a(mgr.num_vars(), false);
    bdd walk = mgr.pick_cube(f);
    while (!walk.is_const()) {
        if (walk.low().is_zero()) {
            a[walk.top_var()] = true;
            walk = walk.high();
        } else {
            walk = walk.low();
        }
    }
    return a;
}

/// Values of a variable group under a full assignment, in group order.
std::vector<bool> group_values(const std::vector<bool>& a,
                               const std::vector<std::uint32_t>& vars) {
    std::vector<bool> out;
    out.reserve(vars.size());
    for (const std::uint32_t v : vars) { out.push_back(a[v]); }
    return out;
}

void append_bits(std::ostringstream& out, const char* tag,
                 const std::vector<bool>& bits) {
    if (bits.empty()) { return; }
    out << ' ' << tag << '=';
    for (const bool b : bits) { out << (b ? '1' : '0'); }
}

} // namespace

// ---------------------------------------------------------------------------
// check (1): X_P contained in X
// ---------------------------------------------------------------------------

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

    bdd init = mgr.one();
    for (std::size_t m = 0; m < problem.v_vars.size(); ++m) {
        init &= mgr.literal(problem.v_vars[m], x_init[m]);
    }
    // miss: a (v in r, any u) step with no CSF transition
    return first_violation(csf, xp_step, init,
                           [&csf](std::uint32_t q, const bdd& r) {
                               return r & !csf.domain(q);
                           })
        .bad.is_zero();
}

// ---------------------------------------------------------------------------
// check (2): F . X contained in S
// ---------------------------------------------------------------------------

bool verify_composition_contained(const equation_problem& problem,
                                  const automaton& csf) {
    return diagnose_composition_contained(problem, csf).ok;
}

// The search finds the shortest violation; only on failure does a backward
// walk over its frames reconstruct one concrete run: at every step a full
// assignment is picked from the BDD frontier and the partitioned functions
// are evaluated to fill in the dependent signal values.
verify_diagnosis diagnose_composition_contained(const equation_problem& problem,
                                                const automaton& csf) {
    bdd_manager& mgr = problem.mgr();
    const composition_step c = make_composition_step(problem, csf);

    // violation: an enabled composed step whose o output disagrees with S
    // on some output j (checked one output at a time); the set is over
    // (i, v, cs)
    std::size_t bad_output = 0;
    const search_result s = first_violation(
        csf, c.step, problem.initial_product_state(),
        [&](std::uint32_t q, const bdd& r) {
            const bdd r_enabled = r & c.enabled[q];
            for (std::size_t j = 0; j < c.nonconforming.size(); ++j) {
                bdd bad = r_enabled & c.nonconforming[j];
                if (!bad.is_zero()) {
                    bad_output = j;
                    return bad;
                }
            }
            return mgr.zero();
        });
    if (s.bad.is_zero()) { return {}; }
    const std::size_t bad_layer = s.frames.size() - 1;

    // fill one step from a full (i, v, cs) assignment: u and o follow from
    // the partitioned functions
    const auto fill_step = [&](const std::vector<bool>& a) {
        trace_step st;
        st.i = group_values(a, problem.i_vars);
        st.v = group_values(a, problem.v_vars);
        for (const bdd& fu : problem.f_u) { st.u.push_back(mgr.eval(fu, a)); }
        for (const bdd& fo : problem.f_o) { st.o.push_back(mgr.eval(fo, a)); }
        return st;
    };
    verify_diagnosis d;
    d.ok = false;
    d.trace.resize(bad_layer + 1);
    std::vector<bool> bad = pick_assignment(mgr, s.bad);
    d.trace[bad_layer] = fill_step(bad);
    {
        std::ostringstream reason;
        reason << "output " << bad_output
               << " of the composition disagrees with S at step " << bad_layer
               << " (CSF state " << s.bad_q << ")";
        d.reason = reason.str();
    }

    std::uint32_t cur_q = s.bad_q;
    std::vector<bool> cur = bad; // carries the target cs assignment
    for (std::size_t t = bad_layer; t > 0; --t) {
        // step relation restricted to the known successor state: each next
        // state function must produce the target bit
        bdd step_rel = mgr.one();
        for (std::size_t k = 0; k < problem.cs_f.size(); ++k) {
            step_rel &= cur[problem.cs_f[k]] ? problem.f_next[k]
                                             : !problem.f_next[k];
        }
        for (std::size_t k = 0; k < problem.cs_s.size(); ++k) {
            step_rel &= cur[problem.cs_s[k]] ? problem.s_next[k]
                                             : !problem.s_next[k];
        }
        bool stepped = false;
        for (const auto& [q, r] : s.frames[t - 1]) {
            for (const transition& tr : csf.transitions(q)) {
                if (tr.dest != cur_q) { continue; }
                const bdd cand = r & c.u_subst.image(tr.label) & step_rel;
                if (cand.is_zero()) { continue; }
                const std::vector<bool> a = pick_assignment(mgr, cand);
                d.trace[t - 1] = fill_step(a);
                cur_q = q;
                cur = a;
                stepped = true;
                break;
            }
            if (stepped) { break; }
        }
        assert(stepped && "frame invariant: predecessor must exist");
        if (!stepped) { break; }
    }
    return d;
}

std::string format_diagnosis(const verify_diagnosis& d) {
    std::ostringstream out;
    if (d.ok) {
        out << "ok: containment holds\n";
        return out.str();
    }
    out << "FAILED: " << d.reason << '\n';
    for (std::size_t t = 0; t < d.trace.size(); ++t) {
        out << "  step " << t << ':';
        append_bits(out, "i", d.trace[t].i);
        append_bits(out, "u", d.trace[t].u);
        append_bits(out, "v", d.trace[t].v);
        append_bits(out, "o", d.trace[t].o);
        out << '\n';
    }
    return out.str();
}

} // namespace leq
