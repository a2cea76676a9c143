/// \file explicit_solver.cpp
/// \brief Algorithm 1 executed literally on explicit automata.
///
/// This is the paper's generic algorithm, one operation per line, over the
/// explicit automata extracted from the networks.  It is exponential in the
/// number of network inputs and is used as the cross-validation oracle for
/// the two symbolic flows on small instances.

#include "automata/stg.hpp"
#include "eq/solver.hpp"
#include "eq/subset_common.hpp"

namespace leq {

solve_result solve_explicit(const equation_problem& problem,
                            const network& fixed, const network& spec,
                            const solve_options& options) {
    return detail::run_solve(problem, options, [&] {
        bdd_manager& mgr = problem.mgr();

        std::vector<std::uint32_t> f_inputs = problem.i_vars;
        f_inputs.insert(f_inputs.end(), problem.v_vars.begin(),
                        problem.v_vars.end());
        std::vector<std::uint32_t> f_outputs = problem.o_vars;
        f_outputs.insert(f_outputs.end(), problem.u_vars.begin(),
                         problem.u_vars.end());
        automaton f_aut = [&] {
            if (problem.w_vars.empty()) {
                return network_to_automaton(mgr, fixed, f_inputs, f_outputs);
            }
            // choice inputs: extract the STG over (i, v, w) and hide w, giving
            // the non-deterministic F automaton of footnote 2
            std::vector<std::uint32_t> with_w = problem.i_vars;
            with_w.insert(with_w.end(), problem.v_vars.begin(),
                          problem.v_vars.end());
            with_w.insert(with_w.end(), problem.w_vars.begin(),
                          problem.w_vars.end());
            std::vector<std::uint32_t> visible = f_inputs;
            visible.insert(visible.end(), f_outputs.begin(), f_outputs.end());
            return change_support(
                network_to_automaton(mgr, fixed, with_w, f_outputs), visible);
        }();
        const automaton s_aut =
            network_to_automaton(mgr, spec, problem.i_vars, problem.o_vars);

        // full support (i, v, u, o) and the final support (u, v)
        std::vector<std::uint32_t> full_vars = problem.i_vars;
        full_vars.insert(full_vars.end(), problem.v_vars.begin(),
                         problem.v_vars.end());
        full_vars.insert(full_vars.end(), problem.u_vars.begin(),
                         problem.u_vars.end());
        full_vars.insert(full_vars.end(), problem.o_vars.begin(),
                         problem.o_vars.end());
        std::vector<std::uint32_t> uv_vars = problem.u_vars;
        uv_vars.insert(uv_vars.end(), problem.v_vars.begin(),
                       problem.v_vars.end());

        // Algorithm 1, line by line
        automaton x = complete(s_aut);                       // 01
        x = determinize(x);                                  // 02
        x = complement(x);                                   // 03
        x = change_support(x, full_vars);                    // 04
        x = product(complete(f_aut),
                    x);                                      // 05
        x = change_support(x, uv_vars);                      // 06 (hide i, o)
        x = determinize(x);                                  // 07
        x = complete(x);                                     // 08
        x = complement(x);                                   // 09
        x = prefix_close(x);                                 // 10
        x = progressive(x, problem.u_vars);                  // 11

        solve_result result;
        result.empty_solution = language_empty(x);
        result.csf_states = x.num_states();
        result.subset_states_explored = x.num_states();
        result.csf = std::move(x);
        return result;
    });
}

} // namespace leq
