/// \file bench_scaling.cpp
/// \brief Figure-style scaling series: partitioned vs monolithic runtime as
/// the unknown component grows.
///
/// Table 1 samples six points; this bench sweeps in between them on two of
/// the table's circuit families:
///
///   series A  the s298 stand-in (3/6/14): full sweep, Xcs = 2..12.  The
///             claim under test is the growth of the partitioned advantage
///             with instance size.
///   series B  the s444 stand-in (3/6/21, paired mixes): tail sweep,
///             Xcs = 16..20.  Mid-size splits of this family leave F with a
///             product space neither flow can enumerate (both CNC — printed
///             once for honesty); the sweep covers the paper's actual
///             operating point and beyond.
///
/// Usage: bench_scaling [time_limit_seconds] (default 60)

#include "eq/solver.hpp"
#include "gen/scenario.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

using namespace leq;

std::string cell(const solve_result& r) {
    if (r.status != solve_status::ok) { return "CNC"; }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", r.seconds);
    return buf;
}

void sweep(const network& original, std::size_t x_from, std::size_t x_to,
           std::size_t x_step, double limit) {
    std::printf("%-6s %10s %10s %10s %10s\n", "Xcs", "States(X)", "Part,s",
                "Mono,s", "Ratio");
    solve_options options;
    options.time_limit_seconds = limit;
    for (std::size_t x = x_from; x <= x_to && x < original.num_latches();
         x += x_step) {
        const split_result split = split_last_latches(original, x);
        const equation_problem problem(split.fixed, original);
        const solve_result part = solve_partitioned(problem, options);
        const solve_result mono = solve_monolithic(problem, options);

        std::string ratio = "-";
        if (part.status == solve_status::ok &&
            mono.status == solve_status::ok && part.seconds > 0) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.1fx",
                          mono.seconds / part.seconds);
            ratio = buf;
        }
        std::string states = "-";
        if (part.status == solve_status::ok) {
            states = std::to_string(part.csf_states);
        }
        std::printf("%-6zu %10s %10s %10s %10s\n", x, states.c_str(),
                    cell(part).c_str(), cell(mono).c_str(), ratio.c_str());
        std::fflush(stdout);
        if (part.status != solve_status::ok &&
            mono.status != solve_status::ok) {
            break; // both flows out of steam: the series is over
        }
    }
}

} // namespace

int main(int argc, char** argv) {
    const double limit = argc > 1 ? std::atof(argv[1]) : 60.0;
    // LEQ_TEST_SEED shifts every series (0 when unset: canonical circuits)
    const std::uint32_t base = test_seed(0);

    {
        structured_spec spec;
        spec.num_inputs = 3;
        spec.num_outputs = 6;
        spec.num_latches = 14;
        spec.seed = base + 14;
        const network original = make_structured_mix(spec);
        std::printf("Series A: s298 family, i/o/cs = %zu/%zu/%zu\n",
                    original.num_inputs(), original.num_outputs(),
                    original.num_latches());
        sweep(original, 2, 12, 2, limit);
    }
    {
        structured_spec a, b;
        a.num_inputs = b.num_inputs = 3;
        a.num_outputs = b.num_outputs = 6;
        a.num_latches = 11;
        b.num_latches = 10;
        a.seed = base + 6;
        b.seed = base + 1;
        a.chained_enables = b.chained_enables = true;
        const network original = make_paired_mix(a, b);
        std::printf("\nSeries B: s444 family, i/o/cs = %zu/%zu/%zu "
                    "(tail sweep; the mid-size splits leave F too large for "
                    "either flow)\n",
                    original.num_inputs(), original.num_outputs(),
                    original.num_latches());
        sweep(original, 16, 20, 1, limit);
    }
    return 0;
}
