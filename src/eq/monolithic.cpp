/// \file monolithic.cpp
/// \brief The monolithic baseline flow (paper, Section 4).
///
/// Following the paper's description of the traditional computation: the
/// monolithic transition-output relations TO_F and TO_S are built, S is
/// completed eagerly with an explicit DC1 state (one extra state bit),
/// complemented by swapping acceptance, the product TO_F & TO_S' is formed
/// as one conjunction, the external variables i and o are hidden by
/// quantification, and the resulting non-deterministic relation is
/// determinized with a standard subset construction that drops every move
/// into a DCN-type subset (prefix-closed trimming).  The final progressive
/// step is shared with the partitioned flow.
///
/// The expensive objects the partitioned flow avoids — TO_F, the completed
/// TO_S', their product and the quantified product — are all materialized
/// here; this is exactly what the Table-1 comparison measures.  Each of them
/// is built as a transition-relation image with `from = 1` (the relation
/// layer is the only conjunction path in the codebase); under the default
/// early-quantification options the hidden variables still retire at their
/// last occurrence, which is sound and yields the identical canonical BDDs.

#include "eq/solver.hpp"
#include "eq/subset_common.hpp"

namespace leq {

solve_result solve_monolithic(const equation_problem& problem,
                              const solve_options& options) {
    return detail::run_solve(problem, options, [&] {
        bdd_manager& mgr = problem.mgr();
        // ---- monolithic relations -------------------------------------------
        // TO_F(i,v,u,o,cs_F,ns_F): the full product of F's output and
        // next-state parts.  Choice inputs w are not part of F's alphabet;
        // quantifying them (at their last occurrence across the clustered
        // product) yields the non-deterministic TO_F.
        std::vector<bdd> f_parts = problem.u_match_parts();
        for (std::size_t j = 0; j < problem.o_vars.size(); ++j) {
            f_parts.push_back(mgr.var(problem.o_vars[j]).iff(problem.f_o[j]));
        }
        for (std::size_t k = 0; k < problem.ns_f.size(); ++k) {
            f_parts.push_back(mgr.var(problem.ns_f[k]).iff(problem.f_next[k]));
        }
        // each relation lives only long enough to produce its product (its
        // merged-cluster BDDs must not stay referenced through the subset
        // construction); its counters are folded into `stats` on the way out
        solve_stats stats;
        bdd to_f;
        {
            const transition_relation f_rel(mgr, std::move(f_parts),
                                            problem.w_vars, options.img);
            to_f = f_rel.image(mgr.one());
            detail::accumulate_stats(stats, f_rel);
        }

        // TO_S(i,o,cs_S,ns_S): nothing to hide, the image is the product
        std::vector<bdd> s_parts;
        for (std::size_t j = 0; j < problem.o_vars.size(); ++j) {
            s_parts.push_back(mgr.var(problem.o_vars[j]).iff(problem.s_o[j]));
        }
        for (std::size_t k = 0; k < problem.ns_s.size(); ++k) {
            s_parts.push_back(mgr.var(problem.ns_s[k]).iff(problem.s_next[k]));
        }
        bdd to_s;
        {
            const transition_relation s_rel(mgr, std::move(s_parts), {},
                                            options.img);
            to_s = s_rel.image(mgr.one());
            detail::accumulate_stats(stats, s_rel);
        }

        // ---- eager completion of S with the DC1 state ------------------------
        // DC1 = (dc = 1, cs_S = 0...0); one extra state bit (the paper notes
        // an unreachable code cannot be reused because unreachable states
        // still have successors).
        const bdd dc0 = mgr.nvar(problem.dc_cs);
        const bdd dcn0 = mgr.nvar(problem.dc_ns);
        bdd s_zero_cs = mgr.one(), s_zero_ns = mgr.one();
        for (const std::uint32_t v : problem.cs_s) { s_zero_cs &= mgr.nvar(v); }
        for (const std::uint32_t v : problem.ns_s) { s_zero_ns &= mgr.nvar(v); }
        const bdd dc_state_cs = mgr.var(problem.dc_cs) & s_zero_cs;
        const bdd dc_state_ns = mgr.var(problem.dc_ns) & s_zero_ns;

        // A(i,o,cs_S): combinations where S is undefined
        const bdd ns_s_cube = mgr.cube(problem.ns_s);
        const bdd undefined_s = !mgr.exists(to_s, ns_s_cube);
        const bdd to_s_completed = (dc0 & to_s & dcn0) |
                                   (dc0 & undefined_s & dc_state_ns) |
                                   (dc_state_cs & dc_state_ns);
        // after complementation of S the only accepting state is DC1
        const bdd accepting_product = dc_state_cs; // F states all accepting

        // ---- product and hiding ----------------------------------------------
        std::vector<std::uint32_t> io_vars = problem.i_vars;
        io_vars.insert(io_vars.end(), problem.o_vars.begin(),
                       problem.o_vars.end());
        bdd hidden;
        {
            const transition_relation product_rel(mgr, {to_f, to_s_completed},
                                                  io_vars, options.img);
            hidden = product_rel.image(mgr.one());
            detail::accumulate_stats(stats, product_rel);
        }

        // ---- traditional subset construction ---------------------------------
        std::vector<std::uint32_t> uv_vars = problem.u_vars;
        uv_vars.insert(uv_vars.end(), problem.v_vars.begin(),
                       problem.v_vars.end());
        std::vector<std::uint32_t> cs_vars = problem.cs_f;
        cs_vars.insert(cs_vars.end(), problem.cs_s.begin(),
                       problem.cs_s.end());
        cs_vars.push_back(problem.dc_cs);
        std::vector<std::uint32_t> ns_vars = problem.ns_f;
        ns_vars.insert(ns_vars.end(), problem.ns_s.begin(),
                       problem.ns_s.end());
        ns_vars.push_back(problem.dc_ns);
        const bdd ns_cube = mgr.cube(ns_vars);

        const detail::subset_driver driver{mgr, uv_vars, problem.u_vars,
                                           problem.ns_to_cs_permutation(),
                                           options};
        const std::uint32_t boundary = problem.uv_boundary_level();

        // per-subset-state image of the (single, monolithic) hidden relation
        // — through the same layer, so the img options (naive vs
        // last-occurrence quantification) apply to this flow too; with one
        // part the relation degenerates to and_exists
        const transition_relation step_rel(mgr, {hidden}, cs_vars, options.img);

        // initial product state: F and S initial, dc = 0
        const bdd initial = problem.initial_product_state() & dc0;

        // acceptance over ns variables (to classify successor leaves)
        const bdd accepting_ns =
            mgr.permute(accepting_product, problem.ns_to_cs_permutation());

        const auto expand = [&](const bdd& psi) {
            const bdd p = step_rel.image(psi);
            detail::expansion exp{detail::split_by_top_block(mgr, p, boundary),
                                  mgr.zero()};
            exp.to_dca = !mgr.exists(p, ns_cube);
            // prefix-closed trimming (paper, Section 3.2): a successor
            // containing an (a, DC1)-type state is DCN; drop the move and
            // never explore it
            std::vector<detail::cofactor_class> kept;
            kept.reserve(exp.successors.size());
            for (detail::cofactor_class& c : exp.successors) {
                if ((c.leaf & accepting_ns).is_zero()) {
                    kept.push_back(std::move(c));
                }
            }
            exp.successors = std::move(kept);
            return exp;
        };

        solve_result result = driver.run(initial, expand);
        detail::accumulate_stats(stats, step_rel);
        result.stats = stats;
        return result;
    });
}

} // namespace leq
