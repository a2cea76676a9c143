/// \file bench_ablation.cpp
/// \brief Ablations of three design choices the paper motivates.
///
///  A. DCN trimming (paper, Section 3.2): in the monolithic flow, replacing
///     subsets that contain an (a,DC1) product state by DCN on the fly
///     avoids exploring them; the baseline explores them and prefix-closes
///     at the end.
///  B. Deferred completion (paper, Appendix / Corollary 1): the partitioned
///     flow never completes F or S; the monolithic flow completes S eagerly.
///     The flows' time difference on the same instance bounds the saving.
///  C. Early quantification (paper, Section 1): the partitioned flow with
///     IWLS95-style scheduling vs conjoin-then-quantify inside the same
///     subset construction.
///
/// Usage: bench_ablation [time_limit_seconds] (default 100)

#include "eq/solver.hpp"
#include "eq/reduce.hpp"
#include "eq/subsolution.hpp"
#include "gen/scenario.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

std::string cell(const leq::solve_result& r) {
    if (r.status != leq::solve_status::ok) { return "CNC"; }
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.2fs/%zu", r.seconds,
                  r.subset_states_explored);
    return buf;
}

} // namespace

int main(int argc, char** argv) {
    using namespace leq;
    const double limit = argc > 1 ? std::atof(argv[1]) : 100.0;
    // LEQ_TEST_SEED shifts the generated circuits (0 when unset)
    const std::uint32_t base = test_seed(0);

    struct workload {
        std::string name;
        network circuit;
        std::size_t x_latches;
    };
    std::vector<workload> workloads;
    {
        // calibrated instances (same generators as Table 1, known to be
        // enumerable): a 14-latch mix, a 15-latch mix, a counter top-bit
        // split and an LFSR half split
        structured_spec spec;
        spec.num_inputs = 3;
        spec.num_outputs = 6;
        spec.num_latches = 14;
        spec.seed = base + 14;
        workloads.push_back({"mix14", make_structured_mix(spec), 7});
        spec.num_inputs = 9;
        spec.num_outputs = 11;
        spec.num_latches = 15;
        spec.seed = base + 349;
        workloads.push_back({"mix15", make_structured_mix(spec), 10});
        workloads.push_back({"cnt8", make_counter(8), 2});
        workloads.push_back({"lfsr10", make_lfsr(10, {2, 6}), 5});
    }

    std::printf("Ablation A: monolithic flow, DCN trimming on vs off "
                "(time/subsets)\n");
    std::printf("%-8s %16s %16s\n", "name", "trim on", "trim off");
    for (const workload& w : workloads) {
        const split_result split = split_last_latches(w.circuit, w.x_latches);
        const equation_problem problem(split.fixed, w.circuit);
        solve_options on, off;
        on.time_limit_seconds = off.time_limit_seconds = limit;
        off.trim_nonconforming = false;
        const solve_result a = solve_monolithic(problem, on);
        const solve_result b = solve_monolithic(problem, off);
        std::printf("%-8s %16s %16s\n", w.name.c_str(), cell(a).c_str(),
                    cell(b).c_str());
        std::fflush(stdout);
    }

    std::printf("\nAblation B: deferred completion (partitioned) vs eager "
                "completion of S (monolithic), same instance\n");
    std::printf("%-8s %16s %16s\n", "name", "deferred", "eager");
    for (const workload& w : workloads) {
        const split_result split = split_last_latches(w.circuit, w.x_latches);
        const equation_problem problem(split.fixed, w.circuit);
        solve_options options;
        options.time_limit_seconds = limit;
        const solve_result a = solve_partitioned(problem, options);
        const solve_result b = solve_monolithic(problem, options);
        std::printf("%-8s %16s %16s\n", w.name.c_str(), cell(a).c_str(),
                    cell(b).c_str());
        std::fflush(stdout);
    }

    std::printf("\nAblation C: partitioned flow, early quantification vs "
                "conjoin-then-quantify\n");
    std::printf("%-8s %16s %16s\n", "name", "scheduled", "naive");
    for (const workload& w : workloads) {
        const split_result split = split_last_latches(w.circuit, w.x_latches);
        const equation_problem problem(split.fixed, w.circuit);
        solve_options early, naive;
        early.time_limit_seconds = naive.time_limit_seconds = limit;
        naive.img.early_quantification = false;
        const solve_result a = solve_partitioned(problem, early);
        const solve_result b = solve_partitioned(problem, naive);
        std::printf("%-8s %16s %16s\n", w.name.c_str(), cell(a).c_str(),
                    cell(b).c_str());
        std::fflush(stdout);
    }

    std::printf("\nAblation E: sub-solution extraction policies "
                "(minimized FSM states; the paper's future-work baseline)\n");
    std::printf("%-8s", "name");
    for (const extraction_policy p : all_extraction_policies()) {
        std::printf(" %16s", to_string(p));
    }
    std::printf(" %16s %16s\n", "winner", "cover_reduce");
    for (const workload& w : workloads) {
        const split_result split = split_last_latches(w.circuit, w.x_latches);
        const equation_problem problem(split.fixed, w.circuit);
        solve_options options;
        options.time_limit_seconds = limit;
        const solve_result r = solve_partitioned(problem, options);
        if (r.status != solve_status::ok || r.empty_solution ||
            problem.u_vars.size() > 12) {
            std::printf("%-8s %16s\n", w.name.c_str(), "-");
            continue;
        }
        const subsolution_result sel = select_small_subsolution(
            *r.csf, problem.u_vars, problem.v_vars);
        std::printf("%-8s", w.name.c_str());
        for (const subsolution_candidate& c : sel.candidates) {
            std::printf(" %16zu", c.minimized_states);
        }
        std::printf(" %16s", to_string(sel.policy));
        reduction_options ropt;
        ropt.max_states = 2048;
        const auto reduced = reduce_subsolution(*r.csf, problem.u_vars,
                                                problem.v_vars, ropt);
        if (reduced.has_value()) {
            std::printf(" %16zu\n", reduced->num_states());
        } else {
            std::printf(" %16s\n", "-");
        }
        std::fflush(stdout);
    }
    return 0;
}
