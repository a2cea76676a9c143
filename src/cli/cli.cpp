/// \file cli.cpp
/// \brief Flag parsing and subcommand dispatch for the `leq` tool.

#include "cli/cli.hpp"

#include "cli/batch.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace leq {

namespace {

int usage(std::ostream& err) {
    err << "usage: leq <command> [arguments] [options]\n"
        << "\n"
        << "commands:\n"
        << "  solve F S        compute the CSF of F . X <= S; one JSON line\n"
        << "  verify F S       solve, then check F . X <= S symbolically\n"
        << "  diagnose F S     solve, then diagnose the CSF (or --impl X)\n"
        << "                   with a counterexample trace on failure\n"
        << "  reduce F S       solve, then reduce the CSF to a small FSM\n"
        << "  batch MANIFEST   run a manifest of equations on a thread pool\n"
        << "\n"
        << "F and S are BLIF or KISS2 files (detected by extension, then\n"
        << "content); `gen:FAMILY[:SEED[:SCALE]]` in place of the pair\n"
        << "generates a fuzz-scenario instance (seed defaults to\n"
        << "LEQ_TEST_SEED or 1; each doubling of SCALE adds a state bit).\n"
        << "\n"
        << "solver options (all commands):\n"
        << "  --flow F         partitioned (default) | monolithic | explicit\n"
        << "                   (explicit is the exponential Algorithm-1\n"
        << "                   oracle for small instances; it takes no\n"
        << "                   --cluster-limit and no --max-states)\n"
        << "  --cluster-limit N   merged-cluster node bound (default 2500)\n"
        << "  --time-limit SEC    wall-clock deadline per solve (default 0)\n"
        << "  --max-states N      subset-state cap per solve (default 0)\n"
        << "  --choice-inputs N   trailing F inputs are choice inputs w\n"
        << "  --name NAME         job label in the JSON record\n"
        << "  --timing | --no-timing   include wall-clock fields (default:\n"
        << "                   on, except in batch mode)\n"
        << "\n"
        << "command options:\n"
        << "  diagnose: --impl X.kiss   candidate implementation over (u,v)\n"
        << "  reduce:   --out X.kiss    write the reduced machine\n"
        << "  batch:    --jobs N        worker threads (default 1; 0 = all\n"
        << "                            cores), one BDD manager per worker\n"
        << "            --command C     per-job command (default solve)\n"
        << "\n"
        << "exit codes:\n"
        << "  0  solved (the JSON carries \"solution\":\"empty\" for\n"
        << "     unsolvable equations)\n"
        << "  1  gave up, or a verify/diagnose check failed; in batch, any\n"
        << "     job that did not succeed\n"
        << "  2  usage error\n"
        << "  3  input unreadable or malformed\n";
    return 2;
}

/// Everything parsed off the command line.
struct parsed_args {
    std::vector<std::string> positional;
    cli_config config;
    std::string name;
    std::size_t jobs = 1;
    std::string batch_command = "solve";
    bool timing_set = false;        ///< explicit --timing/--no-timing
    bool cluster_limit_set = false; ///< explicit --cluster-limit
    bool jobs_set = false;          ///< explicit --jobs (batch only)
    bool command_set = false;       ///< explicit --command (batch only)
};

/// Parse flags into `parsed`; returns an exit code to bail with, or -1.
int parse_flags(const std::vector<std::string>& args, parsed_args& parsed,
                std::ostream& err) {
    for (std::size_t k = 0; k < args.size(); ++k) {
        const std::string& arg = args[k];
        const auto value = [&]() -> const std::string* {
            if (k + 1 >= args.size()) { return nullptr; }
            return &args[++k];
        };
        const auto numeric = [&](const char* flag,
                                 std::size_t& dst) -> bool {
            const std::string* v = value();
            if (v == nullptr) {
                err << "leq: " << flag << " needs a value\n";
                return false;
            }
            const std::optional<std::size_t> n = parse_count(*v);
            if (!n) {
                err << "leq: bad value for " << flag << ": '" << *v << "'\n";
                return false;
            }
            dst = *n;
            return true;
        };

        if (arg.empty() || arg[0] != '-') {
            parsed.positional.push_back(arg);
            continue;
        }
        if (arg == "--help" || arg == "-h") {
            usage(err); // asking for help is not a usage *error*
            return 0;
        }
        if (arg == "--flow") {
            const std::string* v = value();
            if (v == nullptr ||
                (*v != "partitioned" && *v != "monolithic" &&
                 *v != "explicit")) {
                err << "leq: --flow needs partitioned|monolithic|explicit\n";
                return 2;
            }
            parsed.config.flow = *v;
        } else if (arg == "--cluster-limit") {
            if (!numeric("--cluster-limit",
                         parsed.config.solve.img.cluster_limit)) {
                return 2;
            }
            parsed.cluster_limit_set = true;
        } else if (arg == "--time-limit") {
            const std::string* v = value();
            if (v == nullptr) {
                err << "leq: --time-limit needs a value\n";
                return 2;
            }
            const std::optional<double> t = parse_seconds(*v);
            if (!t) {
                err << "leq: bad value for --time-limit: '" << *v << "'\n";
                return 2;
            }
            parsed.config.solve.time_limit_seconds = *t;
        } else if (arg == "--max-states") {
            if (!numeric("--max-states",
                         parsed.config.solve.max_subset_states)) {
                return 2;
            }
        } else if (arg == "--choice-inputs") {
            if (!numeric("--choice-inputs", parsed.config.choice_inputs)) {
                return 2;
            }
        } else if (arg == "--name") {
            const std::string* v = value();
            if (v == nullptr) {
                err << "leq: --name needs a value\n";
                return 2;
            }
            parsed.name = *v;
        } else if (arg == "--impl") {
            const std::string* v = value();
            if (v == nullptr) {
                err << "leq: --impl needs a path\n";
                return 2;
            }
            parsed.config.impl_path = *v;
        } else if (arg == "--out") {
            const std::string* v = value();
            if (v == nullptr) {
                err << "leq: --out needs a path\n";
                return 2;
            }
            parsed.config.out_path = *v;
        } else if (arg == "--jobs") {
            if (!numeric("--jobs", parsed.jobs)) { return 2; }
            parsed.jobs_set = true;
        } else if (arg == "--command") {
            const std::string* v = value();
            if (v == nullptr ||
                (*v != "solve" && *v != "verify" && *v != "diagnose" &&
                 *v != "reduce")) {
                err << "leq: --command needs "
                       "solve|verify|diagnose|reduce\n";
                return 2;
            }
            parsed.batch_command = *v;
            parsed.command_set = true;
        } else if (arg == "--timing") {
            parsed.config.timing = true;
            parsed.timing_set = true;
        } else if (arg == "--no-timing") {
            parsed.config.timing = false;
            parsed.timing_set = true;
        } else {
            err << "leq: unknown option '" << arg << "'\n";
            return usage(err);
        }
    }
    return -1;
}

/// Resolve the positional arguments of a pair command into sources.
/// Returns an exit code to bail with, or -1 to proceed.
int resolve_pair(parsed_args& parsed, equation_source& fixed,
                 equation_source& spec, std::ostream& err) {
    if (parsed.positional.size() == 1 && is_gen_spec(parsed.positional[0])) {
        generated_pair pair = make_gen_pair(parsed.positional[0]);
        fixed = std::move(pair.fixed);
        spec = std::move(pair.spec);
        parsed.config.choice_inputs = pair.num_choice_inputs;
        if (parsed.name.empty()) {
            parsed.name = parsed.positional[0].substr(4);
        }
        return -1;
    }
    if (parsed.positional.size() != 2) {
        err << "leq: expected F and S files (or one gen:FAMILY[:SEED])\n";
        return usage(err);
    }
    fixed = read_equation_source(parsed.positional[0]);
    spec = read_equation_source(parsed.positional[1]);
    if (parsed.name.empty()) {
        parsed.name = default_job_name(parsed.positional[0]);
    }
    return -1;
}

/// A command option the command does not read is a usage error, not a
/// silent no-op, and so are --cluster-limit and --max-states with --flow
/// explicit.  `command` is the subcommand; the one that runs on each
/// equation is `command` itself, or batch's --command.  Returns an exit
/// code to bail with, or -1.
int check_command_options(const std::string& command,
                          const parsed_args& parsed, std::ostream& err) {
    const bool batch = command == "batch";
    if (!batch && parsed.jobs_set) {
        err << "leq: --jobs is read only by batch\n";
        return 2;
    }
    if (!batch && parsed.command_set) {
        err << "leq: --command is read only by batch\n";
        return 2;
    }
    if (parsed.config.flow == "explicit" && parsed.cluster_limit_set) {
        // the Algorithm-1 oracle builds no transition relation to cluster
        err << "leq: --cluster-limit is not read by --flow explicit\n";
        return 2;
    }
    if (parsed.config.flow == "explicit" &&
        parsed.config.solve.max_subset_states > 0) {
        // the Algorithm-1 oracle builds no subset states to count
        err << "leq: --max-states is not read by --flow explicit\n";
        return 2;
    }
    const std::string& reader = batch ? parsed.batch_command : command;
    if (!parsed.config.out_path.empty() && reader != "reduce") {
        err << "leq: --out is read only by reduce\n";
        return 2;
    }
    if (!parsed.config.impl_path.empty() && reader != "diagnose") {
        err << "leq: --impl is read only by diagnose "
               "(in batch, --command diagnose)\n";
        return 2;
    }
    return -1;
}

/// --impl is an input: check it is readable before any solve work starts
/// (unreadable inputs are exit 3, not a per-job failure).  Returns an exit
/// code to bail with, or -1.
int preflight_impl(const parsed_args& parsed, std::ostream& err) {
    if (parsed.config.impl_path.empty()) { return -1; }
    std::ifstream impl(parsed.config.impl_path);
    if (!impl) {
        err << "leq: cannot open '" << parsed.config.impl_path << "'\n";
        return 3;
    }
    return -1;
}

int cmd_pair(const std::string& command, parsed_args& parsed,
             std::ostream& out, std::ostream& err) {
    const int option_bail = check_command_options(command, parsed, err);
    if (option_bail >= 0) { return option_bail; }
    equation_source fixed, spec;
    try {
        const int bail = resolve_pair(parsed, fixed, spec, err);
        if (bail >= 0) { return bail; }
    } catch (const std::exception& e) {
        err << "leq: " << e.what() << "\n";
        return 3;
    }
    const int impl_bail = preflight_impl(parsed, err);
    if (impl_bail >= 0) { return impl_bail; }
    const solve_record record =
        run_command(command, parsed.name, fixed, spec, parsed.config);
    out << record_to_json(record, parsed.config) << "\n";
    if (!record.completed) { err << "leq: " << record.error << "\n"; }
    if (record.has_diagnose && !record.diagnose_ok) {
        err << record.diagnose_trace; // human-readable copy of the trace
    }
    return record.exit_code();
}

int cmd_batch(parsed_args& parsed, std::ostream& out, std::ostream& err) {
    if (parsed.positional.size() != 1) {
        err << "leq: batch expects one manifest file\n";
        return usage(err);
    }
    if (!parsed.config.out_path.empty()) {
        // every worker would clobber the same file; per-job outputs need
        // per-job paths, which manifests do not carry
        err << "leq: --out is not supported in batch mode\n";
        return 2;
    }
    const int option_bail = check_command_options("batch", parsed, err);
    if (option_bail >= 0) { return option_bail; }
    const int impl_bail = preflight_impl(parsed, err);
    if (impl_bail >= 0) { return impl_bail; }
    batch_options options;
    options.jobs = parsed.jobs;
    options.config = parsed.config;
    options.command = parsed.batch_command;
    if (!parsed.timing_set) {
        // deterministic records by default: equal campaigns are
        // byte-identical whatever --jobs is
        options.config.timing = false;
    }

    std::vector<batch_job> jobs;
    try {
        jobs = read_manifest_file(parsed.positional[0]);
    } catch (const std::exception& e) {
        err << "leq: " << e.what() << "\n";
        return 3;
    }

    const batch_report report = run_batch(jobs, options);
    for (const solve_record& record : report.records) {
        out << record_to_json(record, options.config) << "\n";
    }
    err << "leq batch: " << report.records.size() << " equation(s), "
        << report.solved << " solved, " << report.empty << " empty, "
        << report.gave_up << " gave up, " << report.errors << " error(s), "
        << report.check_failures << " failed check(s) ["
        << options.command << ", jobs "
        << (options.jobs == 0 ? std::string("auto")
                              : std::to_string(options.jobs))
        << ", " << report.wall_seconds << "s]\n";
    return report.all_ok() ? 0 : 1;
}

} // namespace

std::optional<std::size_t> parse_count(const std::string& text) {
    if (text.empty() ||
        !std::all_of(text.begin(), text.end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
        })) {
        return std::nullopt;
    }
    try {
        return std::stoul(text);
    } catch (const std::out_of_range&) {
        return std::nullopt;
    }
}

std::optional<double> parse_seconds(const std::string& text) {
    try {
        std::size_t used = 0;
        const double t = std::stod(text, &used);
        if (used != text.size() || !std::isfinite(t) || t < 0) {
            return std::nullopt;
        }
        return t;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

int run_leq_cli(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
    if (args.empty()) { return usage(err); }
    const std::string command = args[0];
    parsed_args parsed;
    try {
        const int bail = parse_flags(
            {args.begin() + 1, args.end()}, parsed, err);
        if (bail >= 0) { return bail; }
        if (command == "solve" || command == "verify" ||
            command == "diagnose" || command == "reduce") {
            return cmd_pair(command, parsed, out, err);
        }
        if (command == "batch") { return cmd_batch(parsed, out, err); }
        if (command == "--help" || command == "-h" || command == "help") {
            usage(err);
            return 0;
        }
    } catch (const std::exception& e) {
        err << "leq: " << e.what() << "\n";
        return 3;
    }
    err << "leq: unknown command '" << command << "'\n";
    return usage(err);
}

} // namespace leq
