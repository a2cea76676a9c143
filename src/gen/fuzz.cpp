/// \file fuzz.cpp
/// \brief Campaign loop: generate, differential-check, shrink, package.

#include "gen/fuzz.hpp"

#include <ostream>

namespace leq {

namespace {

reproducer package(const scenario& sc, const std::string& failure,
                   const differential_options& diff,
                   const shrink_instance_desc& inst, std::size_t spec_states,
                   std::size_t fixed_states) {
    reproducer repro;
    repro.family = to_string(sc.family);
    repro.seed = sc.seed;
    repro.option_set = describe_option_matrix(
        diff.matrix.empty() ? default_option_matrix() : diff.matrix);
    if (sc.is_mutant) {
        repro.option_set += " mutation: " + sc.mutation_desc;
    }
    repro.failure = failure;
    repro.inst = inst;
    repro.spec_states = spec_states;
    repro.fixed_states = fixed_states;
    return repro;
}

} // namespace

fuzz_report run_fuzz(const fuzz_options& options) {
    fuzz_report report;
    const std::vector<scenario_family> families =
        options.families.empty()
            ? std::vector<scenario_family>(std::begin(all_scenario_families),
                                           std::end(all_scenario_families))
            : options.families;

    for (const scenario_family family : families) {
        std::size_t family_failures = 0;
        for (std::size_t k = 0; k < options.seeds; ++k) {
            const std::uint32_t seed =
                options.seed_base + static_cast<std::uint32_t>(k);
            const scenario sc = make_scenario(family, seed);
            const differential_outcome out = run_differential(sc, options.diff);
            ++report.scenarios_run;
            if (out.ok) { continue; }

            ++family_failures;
            if (options.log != nullptr) {
                *options.log << "FAIL " << sc.name << ": " << out.failure
                             << "\n";
            }
            fuzz_failure record;
            record.family = family;
            record.seed = seed;
            record.failure = out.failure;

            shrink_instance_desc inst{sc.fixed, sc.spec,
                                      sc.num_choice_inputs};
            if (options.shrink_failures) {
                // the shrink predicate is the family-agnostic differential
                // core: scenario-specific checks (X_P containment, mutant
                // diagnosis) need generation metadata a reduced instance no
                // longer has, so failures only they catch stay unshrunk
                const differential_options diff = options.diff;
                const shrink_result shrunk = shrink_instance(
                    std::move(inst),
                    [&diff](const shrink_instance_desc& d) {
                        return !run_differential(d.fixed, d.spec,
                                                 d.num_choice_inputs, diff)
                                    .ok;
                    });
                record.shrunk = shrunk.accepted > 0;
                record.repro =
                    package(sc, out.failure, options.diff, shrunk.inst,
                            shrunk.spec_states, shrunk.fixed_states);
                if (options.log != nullptr) {
                    *options.log << "  shrunk by " << shrunk.accepted
                                 << " reductions to spec "
                                 << shrunk.spec_states << " / fixed "
                                 << shrunk.fixed_states << " states ("
                                 << shrunk.predicate_runs
                                 << " predicate runs)\n";
                }
            } else {
                record.repro = package(sc, out.failure, options.diff,
                                       std::move(inst), 0, 0);
            }
            if (!options.reproducer_stem.empty()) {
                const std::string stem = options.reproducer_stem + "-" +
                                         to_string(family) + "-" +
                                         std::to_string(seed);
                write_reproducer(record.repro, stem);
                if (options.log != nullptr) {
                    *options.log << "  wrote " << stem << ".repro.txt\n";
                }
            }
            report.failures.push_back(std::move(record));
            if (report.failures.size() >= fuzz_max_failures) {
                if (options.log != nullptr) {
                    *options.log << "stopping: " << report.failures.size()
                                 << " failures\n";
                }
                return report;
            }
        }
        if (options.log != nullptr) {
            *options.log << to_string(family) << ": " << options.seeds
                         << " seeds, " << family_failures << " failure(s)\n";
        }
    }
    return report;
}

} // namespace leq
