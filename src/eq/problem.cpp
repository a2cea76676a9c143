/// \file problem.cpp
/// \brief Variable allocation and partitioned sweep for an equation instance.

#include "eq/problem.hpp"

#include "net/netbdd.hpp"

#include <algorithm>
#include <stdexcept>

namespace leq {

equation_problem::equation_problem(const network& fixed, const network& spec,
                                   std::size_t num_choice_inputs) {
    if (fixed.num_inputs() < spec.num_inputs() + num_choice_inputs ||
        fixed.num_outputs() < spec.num_outputs()) {
        throw std::invalid_argument(
            "equation_problem: F must carry S's inputs/outputs plus v/u/w");
    }
    const std::size_t num_i = spec.num_inputs();
    const std::size_t num_o = spec.num_outputs();
    const std::size_t num_v =
        fixed.num_inputs() - num_i - num_choice_inputs;
    const std::size_t num_u = fixed.num_outputs() - num_o;
    // shared ports must match by name (latch splitting preserves them)
    for (std::size_t k = 0; k < num_i; ++k) {
        if (fixed.signal_name(fixed.inputs()[k]) !=
            spec.signal_name(spec.inputs()[k])) {
            throw std::invalid_argument(
                "equation_problem: input name mismatch between F and S");
        }
    }
    for (std::size_t j = 0; j < num_o; ++j) {
        if (fixed.signal_name(fixed.outputs()[j]) !=
            spec.signal_name(spec.outputs()[j])) {
            throw std::invalid_argument(
                "equation_problem: output name mismatch between F and S");
        }
    }

    mgr_ = std::make_unique<bdd_manager>();
    // creation order == level order (see header): the (u,v) block on top —
    // u/v pairs interleaved, since u_m == U_m(i,v,cs) couples each u tightly
    // to nearby v's and a u-block-above-v-block order makes those
    // functional-dependency BDDs blow up — then i, o, F latch cs/ns pairs,
    // S latch cs/ns pairs, completion bit pair
    for (std::size_t k = 0; k < std::max(num_u, num_v); ++k) {
        if (k < num_u) { u_vars.push_back(mgr_->new_var()); }
        if (k < num_v) { v_vars.push_back(mgr_->new_var()); }
    }
    for (std::size_t k = 0; k < num_i; ++k) { i_vars.push_back(mgr_->new_var()); }
    // choice inputs live with i: quantified at the same points
    for (std::size_t k = 0; k < num_choice_inputs; ++k) {
        w_vars.push_back(mgr_->new_var());
    }
    for (std::size_t k = 0; k < num_o; ++k) { o_vars.push_back(mgr_->new_var()); }
    for (std::size_t k = 0; k < fixed.num_latches(); ++k) {
        cs_f.push_back(mgr_->new_var());
        ns_f.push_back(mgr_->new_var());
    }
    for (std::size_t k = 0; k < spec.num_latches(); ++k) {
        cs_s.push_back(mgr_->new_var());
        ns_s.push_back(mgr_->new_var());
    }
    dc_cs = mgr_->new_var();
    dc_ns = mgr_->new_var();

    // sweep F: its input list is (i..., v..., w...)
    std::vector<std::uint32_t> f_inputs = i_vars;
    f_inputs.insert(f_inputs.end(), v_vars.begin(), v_vars.end());
    f_inputs.insert(f_inputs.end(), w_vars.begin(), w_vars.end());
    const net_bdds f_fns = build_net_bdds(*mgr_, fixed, f_inputs, cs_f);
    f_o.assign(f_fns.outputs.begin(), f_fns.outputs.begin() +
                                          static_cast<std::ptrdiff_t>(num_o));
    f_u.assign(f_fns.outputs.begin() + static_cast<std::ptrdiff_t>(num_o),
               f_fns.outputs.end());
    f_next = f_fns.next_state;

    const net_bdds s_fns = build_net_bdds(*mgr_, spec, i_vars, cs_s);
    s_o = s_fns.outputs;
    s_next = s_fns.next_state;

    f_init = fixed.initial_state();
    s_init = spec.initial_state();
}

bdd equation_problem::initial_product_state() const {
    bdd c = mgr_->one();
    for (std::size_t k = 0; k < cs_f.size(); ++k) {
        c &= mgr_->literal(cs_f[k], f_init[k]);
    }
    for (std::size_t k = 0; k < cs_s.size(); ++k) {
        c &= mgr_->literal(cs_s[k], s_init[k]);
    }
    return c;
}

std::vector<std::uint32_t> equation_problem::ns_to_cs_permutation() const {
    std::vector<std::uint32_t> perm(mgr_->num_vars());
    for (std::uint32_t v = 0; v < perm.size(); ++v) { perm[v] = v; }
    for (std::size_t k = 0; k < cs_f.size(); ++k) {
        perm[ns_f[k]] = cs_f[k];
        perm[cs_f[k]] = ns_f[k];
    }
    for (std::size_t k = 0; k < cs_s.size(); ++k) {
        perm[ns_s[k]] = cs_s[k];
        perm[cs_s[k]] = ns_s[k];
    }
    perm[dc_ns] = dc_cs;
    perm[dc_cs] = dc_ns;
    return perm;
}

std::vector<std::uint32_t> equation_problem::uv_swap_permutation() const {
    std::vector<std::uint32_t> perm(mgr_->num_vars());
    for (std::uint32_t v = 0; v < perm.size(); ++v) { perm[v] = v; }
    for (std::size_t m = 0; m < u_vars.size(); ++m) {
        perm[u_vars[m]] = v_vars[m];
        perm[v_vars[m]] = u_vars[m];
    }
    return perm;
}

bdd equation_problem::conformance(std::size_t output) const {
    return f_o[output].iff(s_o[output]);
}

std::vector<std::uint32_t> equation_problem::all_ns_vars() const {
    std::vector<std::uint32_t> vars = ns_f;
    vars.insert(vars.end(), ns_s.begin(), ns_s.end());
    return vars;
}

} // namespace leq
