/// \file diagnose.cpp
/// \brief Diagnostic variant of the paper's check (2): when F . X is not
/// contained in S, extract a shortest concrete counterexample trace.
///
/// The plain verify_composition_contained (verify.cpp) runs a worklist
/// fixpoint and returns a bare verdict.  Here the forward exploration is
/// layered breadth-first — frames[t][q] holds the product states *first*
/// reached at depth t in CSF state q — so a violation found at depth t is
/// shortest, and a backward walk over the frames reconstructs one concrete
/// run: at every step a full assignment is picked from the BDD frontier and
/// the partitioned functions are evaluated to fill in the dependent signal
/// values.  The monolithic transition relation is never built, in the
/// partitioned spirit.

#include "eq/verify.hpp"

#include "rel/relation.hpp"

#include <cassert>
#include <sstream>

namespace leq {

namespace {

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
// check (2) with trace: F . X contained in S
// ---------------------------------------------------------------------------

verify_diagnosis diagnose_composition_contained(const equation_problem& problem,
                                                const automaton& csf) {
    bdd_manager& mgr = problem.mgr();
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

    // "X enabled" per CSF state, with u substituted through the U_m parts
    const transition_relation u_subst(mgr, u_match, problem.u_vars);
    const auto substitute_u = [&](const bdd& f) { return u_subst.image(f); };
    std::vector<bdd> enabled(csf.num_states(), mgr.zero());
    for (std::uint32_t q = 0; q < csf.num_states(); ++q) {
        enabled[q] = substitute_u(csf.domain(q));
    }

    std::vector<std::vector<bdd>> frames;
    std::vector<bdd> total(csf.num_states(), mgr.zero());
    frames.emplace_back(csf.num_states(), mgr.zero());
    frames[0][csf.initial()] = problem.initial_product_state();
    total[csf.initial()] = frames[0][csf.initial()];

    std::size_t bad_layer = 0, bad_output = 0;
    std::uint32_t bad_q = 0;
    bdd bad_set; // over (i, v, cs): enabled step with non-conforming output
    bool found = false;
    for (std::size_t t = 0; !found; ++t) {
        for (std::uint32_t q = 0; q < csf.num_states() && !found; ++q) {
            const bdd r = frames[t][q];
            if (r.is_zero()) { continue; }
            for (std::size_t j = 0; j < problem.s_o.size(); ++j) {
                const bdd viol = (r & enabled[q]) & !problem.conformance(j);
                if (!viol.is_zero()) {
                    bad_layer = t;
                    bad_q = q;
                    bad_output = j;
                    bad_set = viol;
                    found = true;
                    break;
                }
            }
        }
        if (found) { break; }
        std::vector<bdd> next(csf.num_states(), mgr.zero());
        bool any = false;
        for (std::uint32_t q = 0; q < csf.num_states(); ++q) {
            const bdd r = frames[t][q];
            if (r.is_zero()) { continue; }
            for (const transition& tr : csf.transitions(q)) {
                const bdd succ = step.image(r, tr.label);
                const bdd fresh = succ & !total[tr.dest];
                if (!fresh.is_zero()) {
                    next[tr.dest] |= fresh;
                    total[tr.dest] |= fresh;
                    any = true;
                }
            }
        }
        if (!any) { return {}; }
        frames.push_back(std::move(next));
    }

    // fill one step from a full (i, v, cs) assignment: u and o follow from
    // the partitioned functions
    const auto fill_step = [&](const std::vector<bool>& a) {
        trace_step s;
        s.i = group_values(a, problem.i_vars);
        s.v = group_values(a, problem.v_vars);
        for (const bdd& fu : problem.f_u) { s.u.push_back(mgr.eval(fu, a)); }
        for (const bdd& fo : problem.f_o) { s.o.push_back(mgr.eval(fo, a)); }
        return s;
    };
    verify_diagnosis d;
    d.ok = false;
    d.trace.resize(bad_layer + 1);
    std::vector<bool> bad = pick_assignment(mgr, bad_set);
    d.trace[bad_layer] = fill_step(bad);
    {
        std::ostringstream reason;
        reason << "output " << bad_output
               << " of the composition disagrees with S at step " << bad_layer
               << " (CSF state " << bad_q << ")";
        d.reason = reason.str();
    }

    std::uint32_t cur_q = bad_q;
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
        for (std::uint32_t q = 0; q < csf.num_states() && !stepped; ++q) {
            for (const transition& tr : csf.transitions(q)) {
                if (tr.dest != cur_q) { continue; }
                const bdd cand =
                    frames[t - 1][q] & substitute_u(tr.label) & step_rel;
                if (cand.is_zero()) { continue; }
                const std::vector<bool> a = pick_assignment(mgr, cand);
                d.trace[t - 1] = fill_step(a);
                cur_q = q;
                cur = a;
                stepped = true;
                break;
            }
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
