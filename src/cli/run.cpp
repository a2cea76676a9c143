/// \file run.cpp
/// \brief Subcommand execution and JSON rendering.

#include "cli/run.hpp"

#include "automata/kiss.hpp"
#include "cli/json.hpp"
#include "eq/subsolution.hpp"

#include <exception>
#include <fstream>
#include <stdexcept>

namespace leq {

namespace {

const char* status_name(const solve_record& record) {
    if (!record.completed) { return "error"; }
    switch (record.result.status) {
    case solve_status::ok: return "ok";
    case solve_status::timeout: return "timeout";
    case solve_status::state_limit: return "state_limit";
    }
    return "error";
}

solve_result dispatch_solve(const std::string& flow,
                            const equation_problem& problem,
                            const loaded_equation& eq,
                            const solve_options& options) {
    if (flow == "monolithic") { return solve_monolithic(problem, options); }
    if (flow == "explicit") {
        return solve_explicit(problem, eq.fixed, eq.spec);
    }
    return solve_partitioned(problem, options);
}

/// The subcommand work that needs the problem (and its manager) alive.
void run_checks(const std::string& command, const equation_problem& problem,
                const cli_config& config, solve_record& record) {
    if (record.result.status != solve_status::ok) { return; }
    const automaton& csf = *record.result.csf;

    if (command == "verify") {
        record.has_verify = true;
        record.verify_ok = verify_composition_contained(problem, csf);
        return;
    }

    if (command == "diagnose") {
        record.has_diagnose = true;
        verify_diagnosis d;
        if (!config.impl_path.empty()) {
            // diagnose a user-supplied candidate X (KISS over u/v) instead
            // of the computed CSF; containment in the CSF is the stronger
            // check, the composition diagnosis yields the trace
            record.input_error = true; // the candidate is an input too
            std::ifstream in(config.impl_path);
            if (!in) {
                throw std::runtime_error("cannot open '" + config.impl_path +
                                         "'");
            }
            const automaton x = parse_from(config.impl_path, [&] {
                return read_kiss(in, problem.mgr(), problem.u_vars,
                                 problem.v_vars);
            });
            record.input_error = false;
            d = diagnose_composition_contained(problem, x);
            if (d.ok && !language_contained(x, csf)) {
                d.ok = false;
                d.reason = "implementation is not contained in the CSF";
            }
        } else {
            d = diagnose_composition_contained(problem, csf);
        }
        record.diagnose_ok = d.ok;
        record.diagnose_reason = d.reason;
        if (!d.ok) { record.diagnose_trace = format_diagnosis(d); }
        return;
    }

    if (command == "reduce") {
        if (record.result.empty_solution) {
            throw std::runtime_error(
                "the equation has no solution; nothing to reduce");
        }
        record.has_reduce = true;
        const subsolution_result small =
            select_small_subsolution(csf, problem.u_vars, problem.v_vars);
        record.reduce_method = small.method;
        record.reduced_states = small.fsm.num_states();
        if (!config.out_path.empty()) {
            std::ofstream out(config.out_path);
            if (!out) {
                throw std::runtime_error("cannot open '" + config.out_path +
                                         "'");
            }
            write_kiss(out, small.fsm, problem.u_vars, problem.v_vars);
            record.wrote_path = config.out_path;
        }
    }
}

} // namespace

int solve_record::exit_code() const {
    if (!completed) { return input_error ? 3 : 1; }
    if (result.status != solve_status::ok) { return 1; }
    if (has_verify && !verify_ok) { return 1; }
    if (has_diagnose && !diagnose_ok) { return 1; }
    return 0;
}

solve_record run_command(const std::string& command, const std::string& name,
                         const equation_source& fixed,
                         const equation_source& spec,
                         const cli_config& config) {
    solve_record record;
    record.name = name;
    record.f_path = fixed.path;
    record.s_path = spec.path;
    record.command = command;
    record.flow = config.flow;
    record.choice_inputs = config.choice_inputs;
    // until both sides are parsed, encoded and their interfaces matched, a
    // failure is the input's fault, not the solver's
    record.input_error = true;
    try {
        const loaded_equation eq =
            load_equation(fixed, spec, config.choice_inputs);
        const equation_problem problem(eq.fixed, eq.spec,
                                       eq.num_choice_inputs);
        record.input_error = false;
        // the CSF's handles live in `problem`'s manager: drop them before
        // `problem` leaves scope, on the success and the unwind path alike
        try {
            record.result =
                dispatch_solve(config.flow, problem, eq, config.solve);
            record.completed = true;
            run_checks(command, problem, config, record);
        } catch (...) {
            record.result.csf.reset();
            throw;
        }
        record.result.csf.reset();
    } catch (const std::exception& e) {
        record.completed = false;
        record.error = e.what();
    }
    return record;
}

std::string record_to_json(const solve_record& record,
                           const cli_config& config) {
    json_object obj;
    obj.field("name", record.name);
    obj.field("command", record.command);
    obj.field("flow", record.flow);
    obj.field("f", record.f_path);
    obj.field("s", record.s_path);
    obj.field("status", status_name(record));
    if (record.completed && record.result.status == solve_status::ok) {
        obj.field("solution",
                  record.result.empty_solution ? "empty" : "ok");
        obj.field("csf_states", record.result.csf_states);
        obj.field("subset_states", record.result.subset_states_explored);
    }
    if (!record.completed) { obj.field("error", record.error); }

    {
        const image_options& img = config.solve.img;
        json_object opts;
        opts.field("cluster_limit", img.cluster_limit);
        opts.field("early_quantification", img.early_quantification);
        opts.field("choice_inputs", record.choice_inputs);
        opts.field("time_limit", config.solve.time_limit_seconds);
        opts.field("max_subset_states", config.solve.max_subset_states);
        obj.field_raw("options", opts.str());
    }
    if (record.completed) {
        const solve_stats& s = record.result.stats;
        json_object stats;
        stats.field("relations", s.relations);
        stats.field("relation_parts", s.relation_parts);
        stats.field("clusters", s.clusters);
        stats.field("images", s.images);
        stats.field("live_nodes", s.live_nodes_after);
        stats.field("gc_runs", s.gc_runs);
        stats.field("cache_lookups", s.cache_lookups);
        stats.field("cache_hits", s.cache_hits);
        // per-op breakdown of the same traffic: only ops that were actually
        // exercised, so quiet solves don't bloat the record
        json_object ops;
        bool any_op = false;
        for (std::size_t k = 0; k < bdd_num_ops; ++k) {
            if (s.op_lookups[k] == 0) { continue; }
            any_op = true;
            json_object one;
            one.field("lookups", s.op_lookups[k]);
            one.field("hits", s.op_hits[k]);
            ops.field_raw(bdd_op_name(k), one.str());
        }
        if (any_op) { stats.field_raw("op_cache", ops.str()); }
        obj.field_raw("stats", stats.str());
    }
    if (record.completed && record.has_verify) {
        json_object v;
        v.field("composition_ok", record.verify_ok);
        obj.field_raw("verify", v.str());
    }
    if (record.completed && record.has_diagnose) {
        json_object d;
        d.field("ok", record.diagnose_ok);
        if (!record.diagnose_ok) {
            d.field("reason", record.diagnose_reason);
            d.field("trace", record.diagnose_trace);
        }
        obj.field_raw("diagnose", d.str());
    }
    if (record.completed && record.has_reduce) {
        json_object r;
        r.field("states", record.reduced_states);
        r.field("method", record.reduce_method);
        if (!record.wrote_path.empty()) {
            r.field("wrote", record.wrote_path);
        }
        obj.field_raw("reduce", r.str());
    }
    if (config.timing && record.completed) {
        obj.field("seconds", record.result.seconds);
    }
    return obj.str();
}

} // namespace leq
