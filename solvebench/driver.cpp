/// \file driver.cpp
/// \brief In-process half of the solve benchmark (see README.md beside it).
///
/// `run.py` times the `leq` binary from the outside.  This driver links the
/// leq library for the parts that need its entry points:
///
///   campaign --seed N --out DIR [--jobs N]
///       write the seeded campaign: one BLIF pair per equation, a MANIFEST
///       for `leq batch` and EXPECTED, one JSON line per equation with the
///       answer of the explicit Algorithm-1 oracle (small instances) or the
///       monolithic flow (the rest).  Equal seeds give byte-identical files.
///   setup (F S | --manifest M) [--repeat K]
///       time reading both inputs and constructing every equation_problem,
///       K times; one JSON line with the K totals.
///   trace (F S | --manifest M) [--command solve|verify] [--jobs N]
///         [--seconds S] [--out TRACE.json]
///       replay every equation through the layers' public entry points with
///       spans around each call, after a replica guard against
///       solve_partitioned; prints a self-time table and one JSON line.
///
/// Every mode prints its machine-readable result as the last stdout line.

#include "automata/automaton.hpp"
#include "automata/kiss.hpp"
#include "cli/batch.hpp"
#include "cli/equation_io.hpp"
#include "cli/json.hpp"
#include "cli/run.hpp"
#include "eq/kiss_flow.hpp"
#include "eq/problem.hpp"
#include "eq/solver.hpp"
#include "eq/subset_common.hpp"
#include "eq/verify.hpp"
#include "gen/scenario.hpp"
#include "net/blif.hpp"
#include "rel/relation.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace leq;
using clock_type = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// small helpers
// ---------------------------------------------------------------------------

double seconds_since(clock_type::time_point start) {
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

double median(std::vector<double> values) {
    if (values.empty()) { return 0.0; }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

std::string json_array(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t k = 0; k < values.size(); ++k) {
        if (k > 0) { out += ","; }
        out += json_number(values[k]);
    }
    return out + "]";
}

/// splitmix64: the campaign's seed stream (fixed, portable, no <random>
/// distribution whose output could differ between standard libraries).
struct splitmix64 {
    std::uint64_t state;
    std::uint64_t next() {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
};

/// Run `body(k)` for k in [0, count) on `jobs` threads claiming indices off
/// one counter — the same shared-nothing discipline as `leq batch`.
template <class Body>
void parallel_for(std::size_t count, std::size_t jobs, const Body& body) {
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(std::max<std::size_t>(jobs, 1));
    const auto worker = [&](std::size_t w) {
        try {
            for (;;) {
                const std::size_t k = next.fetch_add(1);
                if (k >= count) { return; }
                body(k, w);
            }
        } catch (...) {
            errors[w] = std::current_exception();
        }
    };
    if (jobs <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (std::size_t w = 0; w < jobs; ++w) { pool.emplace_back(worker, w); }
        for (std::thread& t : pool) { t.join(); }
    }
    for (const std::exception_ptr& e : errors) {
        if (e) { std::rethrow_exception(e); }
    }
}

// ---------------------------------------------------------------------------
// inputs
// ---------------------------------------------------------------------------

/// The equations of one workload: a manifest (campaign) or a single pair.
struct workload_input {
    std::string manifest;     ///< set for --manifest
    std::string f_path, s_path;

    [[nodiscard]] std::vector<batch_job> read() const {
        if (!manifest.empty()) { return read_manifest_file(manifest); }
        batch_job job;
        job.name = default_job_name(f_path);
        job.fixed = read_equation_source(f_path);
        job.spec = read_equation_source(s_path);
        return {std::move(job)};
    }
};

std::size_t choice_inputs(const batch_job& job) {
    return job.has_choice_inputs ? job.choice_inputs : 0;
}

// ---------------------------------------------------------------------------
// campaign: seeded generation plus reference answers
// ---------------------------------------------------------------------------

/// Equations per campaign cell: 12 cells x 100 = 1200.
constexpr std::size_t campaign_per_cell = 100;

/// One campaign cell: a (family, scale) pair and the largest fixed + spec
/// latch count a candidate of it may have.  Acceptance looks at structure
/// only, never at a solve, so a seed fixes the campaign whatever the solver
/// does.  The caps keep every cell small: on seeds 1-60 one accepted
/// equation explored 3,053 subset states and all others at most 524, while
/// random machines and mutants above the caps reach 20,000+.  Random
/// machines and mutants have no such structural class at scale 2 (some
/// exceed the size guard at every latch count), so they appear at scale 1
/// only.
struct campaign_cell {
    scenario_family family;
    std::uint32_t scale;
    std::size_t max_latches;
};
constexpr std::size_t any_latches = ~std::size_t{0};
constexpr campaign_cell campaign_cells[] = {
    {scenario_family::random, 1, 5},
    {scenario_family::counter, 1, any_latches},
    {scenario_family::arbiter, 1, any_latches},
    {scenario_family::pipeline, 1, any_latches},
    {scenario_family::nondet, 1, any_latches},
    {scenario_family::mutant, 1, 5},
    {scenario_family::chaincounter, 1, any_latches},
    {scenario_family::counter, 2, 9},
    {scenario_family::arbiter, 2, any_latches},
    {scenario_family::pipeline, 2, any_latches},
    {scenario_family::nondet, 2, any_latches},
    {scenario_family::chaincounter, 2, any_latches},
};
/// Size guard: an accepted equation whose solve explores more subset states
/// than this makes the campaign fail with an error (it never redraws, so a
/// solver change cannot change the campaign).  No seed tried reaches it.
constexpr std::size_t guard_max_subsets = 5000;
/// The explicit oracle's size caps.  It is exponential in the label bits and
/// the product state count; one latch below the differential harness's cap
/// keeps the whole campaign's reference pass to seconds.
constexpr std::size_t explicit_max_latches = 5;
constexpr std::size_t explicit_max_label_bits = 7;

/// One accepted equation, as the BLIF text `leq` will read.
struct candidate {
    std::string name;
    std::uint32_t gen_seed = 0;
    std::string f_blif, s_blif;
    std::size_t choice_inputs = 0;
    /// Expected-answer JSON fields.
    std::string expected;
};

/// Solve a candidate with the reference flow (explicit Algorithm-1 oracle
/// when small enough, monolithic otherwise) and with the partitioned flow,
/// and record the expected answer.  A disagreement is kept — it is a wrong
/// answer the benchmark must report.
void evaluate(candidate& c) {
    const network fixed = read_blif_string(c.f_blif);
    const network spec = read_blif_string(c.s_blif);
    const equation_problem problem(fixed, spec, c.choice_inputs);
    const bool small =
        fixed.num_latches() + spec.num_latches() <= explicit_max_latches &&
        fixed.num_inputs() + fixed.num_outputs() <= explicit_max_label_bits;
    solve_options guard;
    guard.max_subset_states = guard_max_subsets;
    solve_result oracle = small ? solve_explicit(problem, fixed, spec)
                                : solve_monolithic(problem, guard);
    solve_result part = solve_partitioned(problem, guard);
    if (oracle.status != solve_status::ok || part.status != solve_status::ok) {
        throw std::runtime_error("campaign equation " + c.name +
                                 " exceeds the size guard");
    }
    const bool agree = part.empty_solution == oracle.empty_solution &&
                       language_equivalent(*part.csf, *oracle.csf);
    json_object e;
    e.field("oracle", small ? "explicit" : "monolithic");
    e.field("agree", agree);
    e.field("solution", oracle.empty_solution ? "empty" : "ok");
    e.field("csf_states", part.csf_states);
    e.field("subset_states", part.subset_states_explored);
    c.expected = e.str();
    // CSF handles live in the problem's manager: drop them before it goes
    part.csf.reset();
    oracle.csf.reset();
}

int cmd_campaign(std::uint64_t seed, const std::string& dir, std::size_t jobs) {
    std::ofstream manifest(dir + "/MANIFEST");
    std::ofstream expected(dir + "/EXPECTED");
    if (!manifest || !expected) {
        throw std::runtime_error("cannot write into '" + dir + "'");
    }
    // each cell draws from its own seed stream and keeps the first
    // campaign_per_cell candidates whose structure fits, in draw order
    std::vector<candidate> accepted;
    std::size_t drawn = 0;
    for (std::size_t k = 0; k < std::size(campaign_cells); ++k) {
        const campaign_cell& cell = campaign_cells[k];
        splitmix64 rng{seed * 64 + k};
        for (std::size_t n = 0; n < campaign_per_cell;) {
            const auto gen_seed = static_cast<std::uint32_t>(rng.next());
            ++drawn;
            const scenario s = make_scenario(cell.family, gen_seed, cell.scale);
            if (s.fixed.num_latches() + s.spec.num_latches() >
                cell.max_latches) {
                continue;
            }
            candidate c;
            c.name = std::string(to_string(cell.family)) + "_" +
                     std::to_string(cell.scale) + "_" + std::to_string(n++);
            c.gen_seed = gen_seed;
            c.f_blif = write_blif_string(s.fixed);
            c.s_blif = write_blif_string(s.spec);
            c.choice_inputs = s.num_choice_inputs;
            accepted.push_back(std::move(c));
        }
    }
    // untimed reference answers, in parallel; the order of the files is the
    // draw order whatever the thread count
    parallel_for(accepted.size(), jobs, [&](std::size_t k, std::size_t) {
        evaluate(accepted[k]);
    });

    manifest << "# solve benchmark campaign, workload seed " << seed << "\n";
    for (std::size_t k = 0; k < accepted.size(); ++k) {
        const candidate& c = accepted[k];
        const campaign_cell& cell = campaign_cells[k / campaign_per_cell];
        if (c.choice_inputs > 0) {
            // choice inputs are metadata a BLIF body cannot carry and a
            // manifest line has no flag for; the gen: form keeps them (leq
            // builds the same BLIF text in memory)
            manifest << "gen:" << to_string(cell.family) << ":" << c.gen_seed
                     << ":" << cell.scale << " " << c.name << "\n";
        } else {
            const std::string f = c.name + "_f.blif";
            const std::string sp = c.name + "_s.blif";
            std::ofstream(dir + "/" + f) << c.f_blif;
            std::ofstream(dir + "/" + sp) << c.s_blif;
            manifest << f << " " << sp << " " << c.name << "\n";
        }
        expected << "{\"name\":\"" << c.name << "\","
                 << c.expected.substr(1) << "\n";
    }
    json_object out;
    out.field("equations", accepted.size());
    out.field("drawn", drawn);
    std::cout << out.str() << "\n";
    return 0;
}

// ---------------------------------------------------------------------------
// setup: input loading + problem construction, untraced
// ---------------------------------------------------------------------------

int cmd_setup(const workload_input& input, std::size_t repeat) {
    std::vector<double> totals;
    std::size_t equations = 0;
    for (std::size_t r = 0; r < repeat; ++r) {
        const auto start = clock_type::now();
        const std::vector<batch_job> eqs = input.read();
        for (const batch_job& job : eqs) {
            const loaded_equation eq =
                load_equation(job.fixed, job.spec, choice_inputs(job));
            const equation_problem problem(eq.fixed, eq.spec,
                                           eq.num_choice_inputs);
        }
        totals.push_back(seconds_since(start));
        equations = eqs.size();
    }
    json_object out;
    out.field("equations", equations);
    out.field_raw("setup_s", json_array(totals));
    std::cout << out.str() << "\n";
    return 0;
}

// ---------------------------------------------------------------------------
// tracing
// ---------------------------------------------------------------------------

enum span_name : std::uint8_t {
    sp_read,
    sp_request,
    sp_parse,
    sp_kiss_encode,
    sp_problem_build,
    sp_rel_build,
    sp_subset_loop,
    sp_expand,
    sp_q_image,
    sp_p_image,
    sp_split,
    sp_domain,
    sp_rename_intern,
    sp_trim,
    sp_read_stats,
    sp_verify,
    sp_teardown,
    sp_emit,
    num_span_names,
};

constexpr const char* span_names[num_span_names] = {
    "cli.read",       "request",        "net.parse",      "eq.kiss_encode",
    "eq.problem_build", "rel.build",    "eq.subset_loop", "eq.expand",
    "rel.q_image",    "rel.p_image",    "eq.split",       "eq.domain",
    "eq.rename_intern", "eq.trim",      "eq.read_stats",  "eq.verify",
    "eq.teardown",    "cli.emit",
};

constexpr std::uint32_t no_parent = 0xffffffffu;
/// Equation id of spans that belong to no single equation (cli.read).
constexpr std::uint32_t no_eq = 0xffffffffu;

struct span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = no_parent;
    std::uint32_t eq = 0;
    span_name name = sp_request;
};

/// One thread's span buffer.  Spans stay in memory until the run ends.
class tracer {
public:
    explicit tracer(clock_type::time_point epoch) : epoch_(epoch) {}

    [[nodiscard]] std::int64_t now() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   clock_type::now() - epoch_)
            .count();
    }
    std::uint32_t open(span_name name, std::uint32_t eq) {
        const auto id = static_cast<std::uint32_t>(spans_.size());
        spans_.push_back({now(), 0, top(), eq, name});
        stack_.push_back(id);
        return id;
    }
    void close(std::uint32_t id) {
        spans_[id].end_ns = now();
        stack_.pop_back();
    }
    /// A finished child of the innermost open span, with explicit bounds
    /// (the driver-time spans between and after expand callbacks).
    void add(span_name name, std::uint32_t eq, std::int64_t start,
             std::int64_t end) {
        spans_.push_back({start, end, top(), eq, name});
    }
    [[nodiscard]] const std::vector<span>& spans() const { return spans_; }
    void clear() {
        spans_.clear();
        stack_.clear();
    }

private:
    [[nodiscard]] std::uint32_t top() const {
        return stack_.empty() ? no_parent : stack_.back();
    }
    clock_type::time_point epoch_;
    std::vector<span> spans_;
    std::vector<std::uint32_t> stack_;
};

class scoped_span {
public:
    scoped_span(tracer& t, span_name name, std::uint32_t eq)
        : t_(t), id_(t.open(name, eq)) {}
    ~scoped_span() { t_.close(id_); }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    tracer& t_;
    std::uint32_t id_;
};

/// Per-equation work counters (deterministic; the replica guard compares
/// the first four against solve_partitioned).
struct eq_counters {
    std::size_t subsets = 0;
    std::size_t csf_states = 0;
    std::size_t images = 0;
    std::size_t cache_lookups = 0;
    std::size_t cache_hits = 0;
    std::size_t renames = 0;
    std::size_t clusters = 0;
    std::size_t and_exists_lookups = 0;
    std::size_t and_exists_hits = 0;
    std::size_t gc_runs = 0;
    std::size_t allocated_nodes = 0;
    std::size_t live_nodes = 0;
    std::size_t cache_entries = 0;
    bool verify_ok = true;

    [[nodiscard]] bool same_solve(const eq_counters& o) const {
        return subsets == o.subsets && csf_states == o.csf_states &&
               images == o.images && cache_lookups == o.cache_lookups;
    }
    void add(const eq_counters& o) {
        subsets += o.subsets;
        csf_states += o.csf_states;
        images += o.images;
        cache_lookups += o.cache_lookups;
        cache_hits += o.cache_hits;
        renames += o.renames;
        clusters += o.clusters;
        and_exists_lookups += o.and_exists_lookups;
        and_exists_hits += o.and_exists_hits;
        gc_runs += o.gc_runs;
        allocated_nodes += o.allocated_nodes;
        live_nodes += o.live_nodes;
        cache_entries += o.cache_entries;
    }
};

std::size_t and_exists_op() {
    for (std::size_t k = 0; k < bdd_num_ops; ++k) {
        if (std::strcmp(bdd_op_name(k), "and_exists") == 0) { return k; }
    }
    throw std::logic_error("no and_exists op in bdd_op_name");
}

void read_counters(eq_counters& c, const solve_result& r, bdd_manager& mgr) {
    const bdd_stats& b = mgr.stats();
    const std::size_t ae = and_exists_op();
    c.subsets = r.subset_states_explored;
    c.csf_states = r.csf_states;
    c.images = r.stats.images;
    c.clusters = r.stats.clusters;
    c.cache_lookups = r.stats.cache_lookups;
    c.cache_hits = r.stats.cache_hits;
    c.and_exists_lookups = r.stats.op_lookups[ae];
    c.and_exists_hits = r.stats.op_hits[ae];
    c.live_nodes = r.stats.live_nodes_after;
    c.gc_runs = b.gc_runs;
    c.allocated_nodes = b.allocated_nodes;
    c.cache_entries = b.cache_entries;
}

/// Replica guard reference: the library's own partitioned solve on a fresh
/// problem.
eq_counters guard_counters(const batch_job& job) {
    const loaded_equation eq =
        load_equation(job.fixed, job.spec, choice_inputs(job));
    const equation_problem problem(eq.fixed, eq.spec, eq.num_choice_inputs);
    solve_result r = solve_partitioned(problem);
    eq_counters c;
    read_counters(c, r, problem.mgr());
    r.csf.reset();
    return c;
}

/// Step 1, traced: the same parse/encode calls as load_equation, one span
/// per call.
loaded_equation load_traced(const batch_job& job, tracer& tr,
                            std::uint32_t eq) {
    struct side {
        std::size_t inputs = 0;
        std::size_t outputs = 0;
        std::optional<network> net;
    };
    const auto parse = [&](const equation_source& src) {
        const scoped_span s(tr, sp_parse, eq);
        side d;
        if (src.format == equation_format::kiss) {
            const kiss_header h = read_kiss_header(src.text);
            d.inputs = h.num_inputs;
            d.outputs = h.num_outputs;
        } else {
            d.net = read_blif_string(src.text);
            d.inputs = d.net->num_inputs();
            d.outputs = d.net->num_outputs();
        }
        return d;
    };
    side s_side = parse(job.spec);
    side f_side = parse(job.fixed);
    const std::size_t choice = choice_inputs(job);
    if (f_side.inputs < s_side.inputs + choice ||
        f_side.outputs < s_side.outputs) {
        throw std::invalid_argument("'" + job.fixed.path + "' cannot embed '" +
                                    job.spec.path + "'");
    }
    loaded_equation out;
    out.num_choice_inputs = choice;
    if (s_side.net) {
        out.spec = std::move(*s_side.net);
    } else {
        const scoped_span s(tr, sp_kiss_encode, eq);
        out.spec = encode_kiss_spec(job.spec.text, s_side.inputs,
                                    s_side.outputs, "eq_s");
    }
    if (f_side.net) {
        out.fixed = std::move(*f_side.net);
    } else {
        const scoped_span s(tr, sp_kiss_encode, eq);
        out.fixed = encode_kiss_fixed(
            job.fixed.text, s_side.inputs, s_side.outputs,
            f_side.inputs - s_side.inputs - choice,
            f_side.outputs - s_side.outputs, choice, "eq_f");
    }
    return out;
}

/// Steps 3-4, traced: the relations and the subset construction exactly as
/// solve_partitioned builds and drives them (same operations in the same
/// order, so the work counters must match the library's solve).
solve_result solve_traced(const equation_problem& problem, tracer& tr,
                          std::uint32_t eq, std::size_t& renames) {
    bdd_manager& mgr = problem.mgr();
    const solve_options local = detail::with_deadline(solve_options{});

    std::optional<transition_relation> p_rel;
    std::vector<transition_relation> q_rels;
    {
        const scoped_span s(tr, sp_rel_build, eq);
        std::vector<bdd> u_match;
        u_match.reserve(problem.u_vars.size());
        for (std::size_t m = 0; m < problem.u_vars.size(); ++m) {
            u_match.push_back(mgr.var(problem.u_vars[m]).iff(problem.f_u[m]));
        }
        std::vector<bdd> ns_parts;
        for (std::size_t k = 0; k < problem.ns_f.size(); ++k) {
            ns_parts.push_back(mgr.var(problem.ns_f[k]).iff(problem.f_next[k]));
        }
        for (std::size_t k = 0; k < problem.ns_s.size(); ++k) {
            ns_parts.push_back(mgr.var(problem.ns_s[k]).iff(problem.s_next[k]));
        }
        std::vector<std::uint32_t> quantify = problem.hidden_input_vars();
        quantify.insert(quantify.end(), problem.cs_f.begin(),
                        problem.cs_f.end());
        quantify.insert(quantify.end(), problem.cs_s.begin(),
                        problem.cs_s.end());
        std::vector<bdd> p_parts = u_match;
        p_parts.insert(p_parts.end(), ns_parts.begin(), ns_parts.end());
        p_rel.emplace(mgr, p_parts, quantify, local.img);
        q_rels.reserve(problem.s_o.size());
        for (std::size_t j = 0; j < problem.s_o.size(); ++j) {
            std::vector<bdd> parts = u_match;
            parts.push_back(!problem.conformance(j));
            q_rels.emplace_back(mgr, std::move(parts), quantify, local.img);
        }
    }

    std::vector<std::uint32_t> uv_vars = problem.u_vars;
    uv_vars.insert(uv_vars.end(), problem.v_vars.begin(),
                   problem.v_vars.end());
    const detail::subset_driver driver{mgr, uv_vars, problem.u_vars,
                                       problem.ns_to_cs_permutation(), local};
    const std::uint32_t boundary = problem.uv_boundary_level();
    const bdd ns_cube = mgr.cube(problem.all_ns_vars());

    solve_result result;
    {
        const scoped_span loop(tr, sp_subset_loop, eq);
        // driver time outside the callbacks: before/between them it renames
        // and interns successors, after the last one it trims and assembles
        std::int64_t outside_from = tr.now();
        result = driver.run(
            problem.initial_product_state(), [&](const bdd& psi) {
                tr.add(sp_rename_intern, eq, outside_from, tr.now());
                detail::expansion exp;
                {
                    const scoped_span e(tr, sp_expand, eq);
                    bdd q = mgr.zero();
                    {
                        const scoped_span s(tr, sp_q_image, eq);
                        for (const transition_relation& rel : q_rels) {
                            q |= rel.image(psi);
                        }
                    }
                    bdd p;
                    {
                        const scoped_span s(tr, sp_p_image, eq);
                        p = p_rel->image(psi);
                    }
                    const bdd p_ok = p & !q;
                    {
                        const scoped_span s(tr, sp_split, eq);
                        exp.successors =
                            detail::split_by_top_block(mgr, p_ok, boundary);
                    }
                    exp.to_dca = mgr.zero();
                    {
                        const scoped_span s(tr, sp_domain, eq);
                        const bdd domain = mgr.exists(p, ns_cube);
                        exp.to_dca = (!q) & (!domain);
                    }
                }
                renames += exp.successors.size();
                outside_from = tr.now();
                return exp;
            });
        tr.add(sp_trim, eq, outside_from, tr.now());
    }
    {
        const scoped_span s(tr, sp_read_stats, eq);
        detail::accumulate_stats(result.stats, *p_rel);
        for (const transition_relation& rel : q_rels) {
            detail::accumulate_stats(result.stats, rel);
        }
        detail::read_manager_stats(result.stats, mgr);
    }
    return result;
}

/// One equation through all six steps.  `emitted` collects the JSON records
/// (as `leq` would print them) so the emit step cannot be optimized away.
eq_counters replay_one(const batch_job& job, std::uint32_t eq,
                       const std::string& command, const cli_config& config,
                       tracer& tr, std::size_t& emitted) {
    const scoped_span request(tr, sp_request, eq);
    eq_counters c;
    solve_record record;
    record.name = job.name;
    record.f_path = job.fixed.path;
    record.s_path = job.spec.path;
    record.command = command;
    record.flow = config.flow;
    record.choice_inputs = choice_inputs(job);
    {
        const loaded_equation loaded = load_traced(job, tr, eq);
        std::unique_ptr<equation_problem> problem;
        {
            const scoped_span s(tr, sp_problem_build, eq);
            problem = std::make_unique<equation_problem>(
                loaded.fixed, loaded.spec, loaded.num_choice_inputs);
        }
        record.result = solve_traced(*problem, tr, eq, c.renames);
        record.completed = true;
        read_counters(c, record.result, problem->mgr());
        if (record.result.status == solve_status::ok) {
            const scoped_span s(tr, sp_verify, eq);
            c.verify_ok = verify_composition_contained(*problem,
                                                       *record.result.csf);
        } else {
            c.verify_ok = false;
        }
        if (command == "verify") {
            record.has_verify = true;
            record.verify_ok = c.verify_ok;
        }
        const scoped_span s(tr, sp_teardown, eq);
        record.result.csf.reset();
        problem.reset();
    }
    const scoped_span s(tr, sp_emit, eq);
    emitted += record_to_json(record, config).size() + 1;
    return c;
}

/// Per span: the part of its duration its children cover.
std::vector<std::int64_t> child_time(const std::vector<span>& spans) {
    std::vector<std::int64_t> child(spans.size(), 0);
    for (const span& s : spans) {
        if (s.parent != no_parent) { child[s.parent] += s.end_ns - s.start_ns; }
    }
    return child;
}

/// Self time per span name: duration minus the part its children cover.
std::vector<double> self_times(const std::vector<span>& spans) {
    const std::vector<std::int64_t> child = child_time(spans);
    std::vector<double> self(num_span_names, 0.0);
    for (std::size_t k = 0; k < spans.size(); ++k) {
        const span& s = spans[k];
        self[s.name] += static_cast<double>(s.end_ns - s.start_ns - child[k]) *
                        1e-9;
    }
    return self;
}

/// Smallest share of a request's time that its named child spans cover.
double min_coverage(const std::vector<span>& spans) {
    const std::vector<std::int64_t> child = child_time(spans);
    double worst = 1.0;
    for (std::size_t k = 0; k < spans.size(); ++k) {
        const span& s = spans[k];
        if (s.name != sp_request || s.end_ns <= s.start_ns) { continue; }
        worst = std::min(worst, static_cast<double>(child[k]) /
                                    static_cast<double>(s.end_ns - s.start_ns));
    }
    return worst;
}

/// Chrome trace-event JSON ("X" complete events; Perfetto opens it).
void write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<span>>& per_thread) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) { throw std::runtime_error("cannot write '" + path + "'"); }
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    bool first = true;
    std::size_t base = 0;
    for (std::size_t t = 0; t < per_thread.size(); ++t) {
        const std::vector<span>& spans = per_thread[t];
        for (std::size_t k = 0; k < spans.size(); ++k) {
            const span& s = spans[k];
            const long long parent =
                s.parent == no_parent ? -1
                                      : static_cast<long long>(base + s.parent);
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"leq\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                         "\"args\":{\"span\":%zu,\"parent\":%lld,\"eq\":%lld}}",
                         first ? "" : ",\n", span_names[s.name],
                         static_cast<double>(s.start_ns) * 1e-3,
                         static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                         t + 1, base + k, parent,
                         s.eq == no_eq ? -1LL : static_cast<long long>(s.eq));
            first = false;
        }
        base += spans.size();
    }
    std::fputs("\n]}\n", f);
    if (std::fclose(f) != 0) {
        throw std::runtime_error("cannot write '" + path + "'");
    }
}

struct trace_args {
    std::string command = "solve";
    std::size_t jobs = 1;
    double seconds = 0.0;
    std::string out;
};

int cmd_trace(const workload_input& input, const trace_args& args) {
    const std::vector<batch_job> eqs = input.read();
    const std::size_t jobs = std::max<std::size_t>(args.jobs, 1);
    cli_config config;
    // records as leq prints them: timed for one pair, untimed in batch mode
    config.timing = input.manifest.empty();

    // replica guard: the library's solve on the same inputs
    std::vector<eq_counters> guard(eqs.size());
    parallel_for(eqs.size(), jobs, [&](std::size_t k, std::size_t) {
        guard[k] = guard_counters(eqs[k]);
    });

    const auto epoch = clock_type::now();
    std::vector<tracer> tracers(jobs, tracer(epoch));
    std::vector<std::vector<double>> self_runs(num_span_names);
    std::vector<double> traced_runs;
    std::vector<double> coverage_runs;
    std::vector<eq_counters> counters(eqs.size());
    std::size_t diverged = 0;
    std::string first_diverged;
    std::size_t emitted = 0;
    const auto start = clock_type::now();
    do {
        for (tracer& t : tracers) { t.clear(); }
        std::vector<std::size_t> emitted_by(jobs, 0);
        const auto replay_start = clock_type::now();
        // reading the sources is leq's first step too (manifest or pair)
        std::vector<batch_job> replay_eqs;
        {
            const scoped_span s(tracers[0], sp_read, no_eq);
            replay_eqs = input.read();
        }
        parallel_for(replay_eqs.size(), jobs, [&](std::size_t k,
                                                  std::size_t w) {
            counters[k] = replay_one(replay_eqs[k],
                                     static_cast<std::uint32_t>(k),
                                     args.command, config, tracers[w],
                                     emitted_by[w]);
        });
        double traced = seconds_since(replay_start);
        std::vector<double> self(num_span_names, 0.0);
        double coverage = 1.0;
        for (const tracer& t : tracers) {
            const std::vector<double> s = self_times(t.spans());
            for (std::size_t n = 0; n < num_span_names; ++n) { self[n] += s[n]; }
            coverage = std::min(coverage, min_coverage(t.spans()));
        }
        for (const std::size_t e : emitted_by) { emitted += e; }
        if (args.command == "solve") {
            // `leq solve` does not verify: the untraced counterpart of this
            // replay is everything but the verify step
            for (const tracer& t : tracers) {
                for (const span& s : t.spans()) {
                    if (s.name == sp_verify) {
                        traced -= static_cast<double>(s.end_ns - s.start_ns) *
                                  1e-9;
                    }
                }
            }
        }
        for (std::size_t n = 0; n < num_span_names; ++n) {
            self_runs[n].push_back(self[n]);
        }
        traced_runs.push_back(traced);
        coverage_runs.push_back(coverage);
        for (std::size_t k = 0; k < eqs.size(); ++k) {
            if (!counters[k].same_solve(guard[k])) {
                ++diverged;
                if (first_diverged.empty()) { first_diverged = eqs[k].name; }
            }
        }
    } while (diverged == 0 && seconds_since(start) < args.seconds);

    if (!args.out.empty()) {
        std::vector<std::vector<span>> per_thread;
        for (const tracer& t : tracers) { per_thread.push_back(t.spans()); }
        write_chrome_trace(args.out, per_thread);
    }

    eq_counters total;
    for (const eq_counters& c : counters) { total.add(c); }
    std::vector<double> self(num_span_names, 0.0);
    double request_total = 0.0;
    for (std::size_t n = 0; n < num_span_names; ++n) {
        self[n] = median(self_runs[n]);
        request_total += self[n];
    }

    json_object out;
    out.field("equations", eqs.size());
    out.field("replays", traced_runs.size());
    out.field("diverged", diverged);
    if (diverged > 0) {
        out.field("first_diverged", first_diverged);
        std::cout << "replica diverged: " << diverged
                  << " equation replay(s) differ from solve_partitioned "
                     "(first: "
                  << first_diverged << "); no attribution\n";
    } else {
        // self-time table: every span name, its median self time and its
        // share of all traced time (the request spans' total)
        std::printf("%-18s %12s %8s\n", "span", "self_s", "share");
        for (std::size_t n = 0; n < num_span_names; ++n) {
            std::printf("%-18s %12.6f %7.2f%%\n", span_names[n], self[n],
                        request_total > 0 ? 100.0 * self[n] / request_total
                                          : 0.0);
        }
    }
    std::size_t verify_failures = 0;
    for (const eq_counters& c : counters) {
        if (!c.verify_ok) { ++verify_failures; }
    }
    out.field("verify_failures", verify_failures);
    out.field("traced_s", median(traced_runs));
    out.field("request_s", request_total);
    out.field("coverage_min",
              *std::min_element(coverage_runs.begin(), coverage_runs.end()));
    json_object self_obj;
    for (std::size_t n = 0; n < num_span_names; ++n) {
        self_obj.field(span_names[n], self[n]);
    }
    out.field_raw("self_s", self_obj.str());
    json_object cnt;
    cnt.field("subsets", total.subsets);
    cnt.field("csf_states", total.csf_states);
    cnt.field("renames", total.renames);
    cnt.field("images", total.images);
    cnt.field("clusters", total.clusters);
    cnt.field("cache_lookups", total.cache_lookups);
    cnt.field("cache_hits", total.cache_hits);
    cnt.field("and_exists_lookups", total.and_exists_lookups);
    cnt.field("and_exists_hits", total.and_exists_hits);
    cnt.field("gc_runs", total.gc_runs);
    cnt.field("allocated_nodes", total.allocated_nodes);
    cnt.field("live_nodes", total.live_nodes);
    cnt.field("cache_entries", total.cache_entries);
    out.field_raw("counters", cnt.str());
    out.field("emitted_bytes", emitted);
    std::cout << out.str() << "\n";
    return 0;
}

// ---------------------------------------------------------------------------
// command line
// ---------------------------------------------------------------------------

int usage() {
    std::cerr
        << "usage: solvebench_driver campaign --seed N --out DIR [--jobs N]\n"
        << "       solvebench_driver setup (F S | --manifest M) [--repeat K]\n"
        << "       solvebench_driver trace (F S | --manifest M) [--command C]\n"
        << "                         [--jobs N] [--seconds S] [--out FILE]\n";
    return 2;
}

int run(const std::vector<std::string>& args) {
    if (args.empty()) { return usage(); }
    const std::string mode = args[0];
    workload_input input;
    trace_args targs;
    std::uint64_t seed = 0;
    std::string out_dir;
    std::size_t repeat = 5;
    std::vector<std::string> positional;
    for (std::size_t k = 1; k < args.size(); ++k) {
        const std::string& a = args[k];
        const auto value = [&]() -> const std::string& {
            if (k + 1 >= args.size()) {
                throw std::invalid_argument(a + " needs a value");
            }
            return args[++k];
        };
        if (a == "--manifest") {
            input.manifest = value();
        } else if (a == "--seed") {
            seed = std::stoull(value());
        } else if (a == "--out") {
            out_dir = value();
            targs.out = out_dir;
        } else if (a == "--jobs") {
            targs.jobs = std::stoul(value());
        } else if (a == "--repeat") {
            repeat = std::max<std::size_t>(std::stoul(value()), 1);
        } else if (a == "--seconds") {
            targs.seconds = std::stod(value());
        } else if (a == "--command") {
            targs.command = value();
            if (targs.command != "solve" && targs.command != "verify") {
                throw std::invalid_argument("--command needs solve|verify");
            }
        } else if (!a.empty() && a[0] == '-') {
            throw std::invalid_argument("unknown option '" + a + "'");
        } else {
            positional.push_back(a);
        }
    }
    if (mode == "campaign") {
        if (out_dir.empty()) { return usage(); }
        return cmd_campaign(seed, out_dir, targs.jobs);
    }
    if (input.manifest.empty()) {
        if (positional.size() != 2) { return usage(); }
        input.f_path = positional[0];
        input.s_path = positional[1];
    }
    if (mode == "setup") { return cmd_setup(input, repeat); }
    if (mode == "trace") { return cmd_trace(input, targs); }
    return usage();
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(std::vector<std::string>(argv + 1, argv + argc));
    } catch (const std::exception& e) {
        std::cerr << "solvebench_driver: " << e.what() << "\n";
        return 1;
    }
}
