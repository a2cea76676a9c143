/// \file bench_table1.cpp
/// \brief Reproduces Table 1 of the paper: partitioned vs monolithic
/// computation of the CSF on latch-split circuits.
///
/// Columns match the paper: Name, i/o/cs, Fcs/Xcs, States(X), Part(s),
/// Mono(s), Ratio.  "CNC" marks a flow that could not complete within the
/// time limit (the paper's monolithic flow reports CNC on s444/s526).
///
/// The circuits are synthetic stand-ins with the paper's interface
/// dimensions (see net/generator.hpp); absolute numbers differ
/// from the paper's testbed, the claim under test is the shape: the
/// partitioned flow wins, the gap grows with size, and the monolithic flow
/// stops completing first.
///
/// Usage: bench_table1 [time_limit_seconds] (default 120)

#include "eq/solver.hpp"
#include "eq/verify.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

std::string format_time(const leq::solve_result& r) {
    if (r.status == leq::solve_status::timeout) { return "CNC"; }
    if (r.status == leq::solve_status::state_limit) { return "SLIM"; }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", r.seconds);
    return buf;
}

} // namespace

int main(int argc, char** argv) {
    const double limit = argc > 1 ? std::atof(argv[1]) : 120.0;

    std::printf("Table 1: partitioned vs monolithic CSF computation "
                "(time limit %.0fs per flow)\n\n", limit);
    std::printf("%-8s %-10s %-8s %12s %10s %10s %8s  %s\n", "Name", "i/o/cs",
                "Fcs/Xcs", "States(X)", "Part,s", "Mono,s", "Ratio",
                "Checks");
    std::printf("%s\n", std::string(88, '-').c_str());

    for (const leq::table1_instance& inst : leq::make_table1_suite()) {
        const leq::split_result split =
            leq::split_last_latches(inst.circuit, inst.x_latches);
        const leq::equation_problem problem(split.fixed, inst.circuit);

        leq::solve_options options;
        options.time_limit_seconds = limit;
        const leq::solve_result part = solve_partitioned(problem, options);
        const leq::solve_result mono = solve_monolithic(problem, options);

        std::string states = "-";
        std::string checks = "-";
        if (part.status == leq::solve_status::ok) {
            states = std::to_string(part.csf_states);
            const bool c1 = verify_particular_contained(
                problem, *part.csf, split.part.initial_state());
            const bool c2 = verify_composition_contained(problem, *part.csf);
            checks = std::string(c1 ? "Xp<=X ok" : "Xp<=X FAIL") +
                     (c2 ? ", FX<=S ok" : ", FX<=S FAIL");
        }
        std::string ratio = "-";
        if (part.status == leq::solve_status::ok &&
            mono.status == leq::solve_status::ok && part.seconds > 0) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.1f", mono.seconds / part.seconds);
            ratio = buf;
        }
        const std::string dims = std::to_string(inst.circuit.num_inputs()) +
                                 "/" +
                                 std::to_string(inst.circuit.num_outputs()) +
                                 "/" +
                                 std::to_string(inst.circuit.num_latches());
        const std::string fx = std::to_string(inst.f_latches) + "/" +
                               std::to_string(inst.x_latches);
        std::printf("%-8s %-10s %-8s %12s %10s %10s %8s  %s\n",
                    inst.name.c_str(), dims.c_str(), fx.c_str(),
                    states.c_str(), format_time(part).c_str(),
                    format_time(mono).c_str(), ratio.c_str(), checks.c_str());
        std::fflush(stdout);
    }
    std::printf("\nPaper's reference (1.6GHz, MCNC originals): s510 54st "
                "0.3/0.2s; s208 497st 0.4/0.8s; s298 553st 0.9/2.7s;\n"
                "s349 2626st 37.7/810.3s (21.5x); s444 17730st 25.9s/CNC; "
                "s526 141829st 276.7s/CNC\n");
    return 0;
}
