/// \file batch.cpp
/// \brief Thread-pool campaign execution over manifest jobs.

#include "cli/batch.hpp"

#include "net/parse_error.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace leq {

namespace {

std::string resolve(const std::string& base_dir, const std::string& path) {
    if (base_dir.empty() || path.empty() || path.front() == '/') {
        return path;
    }
    return base_dir + "/" + path;
}

} // namespace

std::vector<batch_job> read_manifest(std::istream& in,
                                     const std::string& base_dir) {
    std::vector<batch_job> jobs;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) { line.erase(hash); }
        std::istringstream row(line);
        std::string f_path, s_path, name, extra;
        if (!(row >> f_path)) { continue; } // blank / comment-only line
        batch_job job;
        // every error on this line, the gen: spec's and the F/S files'
        // included, is reported at the line
        try {
            if (is_gen_spec(f_path)) {
                // one-token form: `gen:FAMILY[:SEED] [NAME]`
                row >> name;
                generated_pair pair = make_gen_pair(f_path);
                job.fixed = std::move(pair.fixed);
                job.spec = std::move(pair.spec);
                job.has_choice_inputs = true;
                job.choice_inputs = pair.num_choice_inputs;
                job.name = name.empty() ? f_path.substr(4) : name;
            } else {
                if (!(row >> s_path)) {
                    throw std::runtime_error(
                        "expected 'F_PATH S_PATH [NAME]' or 'gen:SPEC [NAME]'");
                }
                row >> name;
                job.name = name.empty() ? default_job_name(f_path) : name;
                job.fixed = read_equation_source(resolve(base_dir, f_path));
                job.spec = read_equation_source(resolve(base_dir, s_path));
            }
            if (row >> extra) {
                throw std::runtime_error("trailing token '" + extra + "'");
            }
        } catch (const std::exception& e) {
            throw parse_error("manifest", line_no, e.what());
        }
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<batch_job> read_manifest_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot open manifest '" + path + "'");
    }
    const std::size_t slash = path.find_last_of('/');
    const std::string base_dir =
        slash == std::string::npos ? std::string() : path.substr(0, slash);
    try {
        return read_manifest(in, base_dir);
    } catch (const parse_error& e) {
        throw e.in(path);
    }
}

batch_report run_batch(const std::vector<batch_job>& jobs,
                       const batch_options& options) {
    const auto start = std::chrono::steady_clock::now();
    batch_report report;
    report.records.resize(jobs.size());

    std::size_t workers = options.jobs;
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0) { workers = 1; }
    }
    if (workers > jobs.size()) { workers = jobs.size() ? jobs.size() : 1; }

    // shared-nothing work claiming: each worker owns a job (and therefore
    // one BDD manager at a time) exclusively from claim to completion
    std::atomic<std::size_t> next{0};
    const auto worker_loop = [&]() {
        for (;;) {
            const std::size_t k = next.fetch_add(1);
            if (k >= jobs.size()) { return; }
            cli_config config = options.config;
            if (jobs[k].has_choice_inputs) {
                config.choice_inputs = jobs[k].choice_inputs;
            }
            report.records[k] =
                run_command(options.command, jobs[k].name, jobs[k].fixed,
                            jobs[k].spec, config);
        }
    };

    if (workers <= 1) {
        worker_loop();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            pool.emplace_back(worker_loop);
        }
        for (std::thread& t : pool) { t.join(); }
    }

    for (const solve_record& record : report.records) {
        if (!record.completed) {
            ++report.errors;
        } else if (record.result.status != solve_status::ok) {
            ++report.gave_up;
        } else {
            if (record.result.empty_solution) {
                ++report.empty;
            } else {
                ++report.solved;
            }
            // a solved job can still fail its verify/diagnose check; the
            // campaign exit code must not mask that (`leq verify F S`
            // would exit 1 on the same pair)
            if (record.exit_code() != 0) { ++report.check_failures; }
        }
    }
    report.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    return report;
}

} // namespace leq
