/// \file bench.cpp
/// \brief Pinned benchmark workloads, the paper's Table 1, report
/// (de)serialization and the regression gate.

#include "cli/bench.hpp"

#include "automata/kiss.hpp"
#include "automata/stg.hpp"
#include "cli/batch.hpp"
#include "cli/equation_io.hpp"
#include "cli/json.hpp"
#include "eq/problem.hpp"
#include "eq/solver.hpp"
#include "eq/verify.hpp"
#include "gen/scenario.hpp"
#include "net/blif.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <cctype>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace leq {

namespace {

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

void add(bench_row& row, const std::string& name, double value) {
    row.metrics.push_back({name, value});
}

/// The computed-cache traffic and collections of one record, or of a
/// batch's records summed.
void add_traffic(bench_row& row, double lookups, double hits,
                 double gc_runs) {
    add(row, "cache_lookups", lookups);
    add(row, "cache_misses", lookups - hits);
    add(row, "cache_hit_rate", lookups > 0 ? hits / lookups : 0.0);
    add(row, "gc_runs", gc_runs);
}

/// One single-pair row: `leq COMMAND INPUTS --cluster-limit LIMIT`.
struct command_row {
    const char* id;
    const char* command;
    /// A `gen:` spec, or the stem of a bench/corpus/ pair (STEM_f.*,
    /// STEM_s.*).
    const char* inputs;
    std::size_t cluster_limit = image_options{}.cluster_limit;
};

const std::vector<command_row>& command_rows() {
    static const std::vector<command_row> rows = {
        {"solve/counter_x256", "solve", "counter_x256"},
        // every part its own cluster: the one gated row whose image chain
        // has several steps, some retiring nothing
        {"solve/counter_x256_flat", "solve", "counter_x256", 0},
        {"solve/arbiter_x16", "solve", "arbiter_x16"},
        // the one gen instance whose relations do not each fit one cluster
        // at the default limit
        {"solve/random_3_64", "solve", "gen:random:3:64"},
        {"solve/kiss_counter9", "solve", "counter9"},
        {"verify/kiss_counter9", "verify", "counter9"},
        {"diagnose/kiss_counter9", "diagnose", "counter9"},
        {"table1/s349", "solve", "table1_s349"},
        {"table1/s444", "solve", "table1_s444"},
        {"table1/s526", "solve", "table1_s526"},
        // a 640-state CSF: past the compatibility reduction's limits
        {"reduce/counter_16", "reduce", "gen:counter:1:16"},
        // the paper's row: 4069 CSF states, |u| = |v| = 10
        {"reduce/table1_s349", "reduce", "table1_s349"},
    };
    return rows;
}

/// The row's pair as `leq` would read it, into `config` too when the
/// inputs carry a choice-input count.
std::pair<equation_source, equation_source>
row_inputs(const command_row& r, cli_config& config) {
    if (is_gen_spec(r.inputs)) {
        generated_pair pair = make_gen_pair(r.inputs);
        config.choice_inputs = pair.num_choice_inputs;
        return {std::move(pair.fixed), std::move(pair.spec)};
    }
    // built once per process: every corpus row picks its pair from it
    static const std::vector<bench_corpus_file> corpus = bench_corpus_files();
    const std::string stem = r.inputs;
    std::pair<equation_source, equation_source> sources;
    for (const bench_corpus_file& file : corpus) {
        equation_source* side = nullptr;
        if (file.name.rfind(stem + "_f.", 0) == 0) { side = &sources.first; }
        if (file.name.rfind(stem + "_s.", 0) == 0) { side = &sources.second; }
        if (side == nullptr) { continue; }
        side->path = "bench/corpus/" + file.name;
        side->format = detect_format(file.name, file.text);
        side->text = file.text;
    }
    if (sources.first.text.empty() || sources.second.text.empty()) {
        throw std::logic_error("no corpus pair '" + stem + "'");
    }
    return sources;
}

/// Run the row's command as `leq` runs it and read the gated metrics off
/// its record.
bench_row run_row(const command_row& r) {
    cli_config config;
    config.solve.img.cluster_limit = r.cluster_limit;
    const auto [fixed, spec] = row_inputs(r, config);
    const solve_record record = run_command(r.command, r.id, fixed, spec,
                                            config);
    if (!record.completed || record.result.status != solve_status::ok) {
        throw std::runtime_error(std::string("bench workload ") + r.id +
                                 " did not finish: " +
                                 (record.completed ? "gave up"
                                                   : record.error));
    }
    const solve_result& result = record.result;
    const solve_stats& s = result.stats;
    bench_row row;
    row.workload = r.id;
    add(row, "subset_states",
        static_cast<double>(result.subset_states_explored));
    add(row, "csf_states", static_cast<double>(result.csf_states));
    add(row, "images", static_cast<double>(s.images));
    add(row, "relations", static_cast<double>(s.relations));
    add(row, "clusters", static_cast<double>(s.clusters));
    if (record.has_verify) {
        add(row, "composition_ok", record.verify_ok ? 1.0 : 0.0);
    }
    if (record.has_diagnose) {
        add(row, "diagnose_ok", record.diagnose_ok ? 1.0 : 0.0);
    }
    if (record.has_reduce) {
        add(row, "reduced_states",
            static_cast<double>(record.reduced_states));
    }
    add_traffic(row, static_cast<double>(s.cache_lookups),
                static_cast<double>(s.cache_hits),
                static_cast<double>(s.gc_runs));
    add(row, "allocated_nodes", static_cast<double>(s.allocated_nodes));
    add(row, "live_nodes", static_cast<double>(s.live_nodes_after));
    add(row, "subst_nodes", static_cast<double>(s.subst_nodes));
    return row;
}

/// The mixed batch campaign: every family, three seeds, two workers (the
/// shared-nothing pool makes the summed per-job counters deterministic
/// regardless of worker count).  The jobs come from a manifest of
/// `gen:FAMILY:SEED` lines, read as `leq batch` reads one.  Per-job cache
/// traffic and GC runs — every worker has its own manager — are summed from
/// the per-record solve stats, so a collection added to every equation
/// moves gc_runs by the job count.
bench_row run_batch_workload(const std::string& id) {
    bench_row row;
    row.workload = id;
    std::stringstream manifest;
    for (const scenario_family family : all_scenario_families) {
        for (std::uint32_t seed = 1; seed <= 3; ++seed) {
            manifest << "gen:" << to_string(family) << ':' << seed << '\n';
        }
    }
    const std::vector<batch_job> jobs = read_manifest(manifest, "");
    batch_options options;
    options.jobs = 2;
    options.config.timing = false;
    const batch_report report = run_batch(jobs, options);
    if (report.errors != 0 || report.gave_up != 0) {
        throw std::runtime_error("bench workload " + id + " had failures");
    }
    double subset_states = 0.0;
    double csf_states = 0.0;
    double cache_lookups = 0.0;
    double cache_hits = 0.0;
    double gc_runs = 0.0;
    for (const solve_record& record : report.records) {
        subset_states +=
            static_cast<double>(record.result.subset_states_explored);
        csf_states += static_cast<double>(record.result.csf_states);
        cache_lookups += static_cast<double>(record.result.stats.cache_lookups);
        cache_hits += static_cast<double>(record.result.stats.cache_hits);
        gc_runs += static_cast<double>(record.result.stats.gc_runs);
    }
    add(row, "batch_solved", static_cast<double>(report.solved));
    add(row, "batch_empty", static_cast<double>(report.empty));
    add(row, "subset_states", subset_states);
    add(row, "csf_states", csf_states);
    add_traffic(row, cache_lookups, cache_hits, gc_runs);
    return row;
}

/// The corpus KISS pair: an explicit-state counter equation.  The split
/// keeps the counter's low bit in the unknown component, so F has one v
/// input / one u output on top of S's interface.
std::pair<std::string, std::string> make_counter_kiss(std::size_t bits) {
    const network original = make_counter(bits);
    const split_result split = split_last_latches(original, 1);
    bdd_manager mgr;
    const auto label_vars = [&mgr](const network& net) {
        std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> v;
        for (std::size_t k = 0; k < net.num_inputs(); ++k) {
            v.first.push_back(mgr.new_var());
        }
        for (std::size_t k = 0; k < net.num_outputs(); ++k) {
            v.second.push_back(mgr.new_var());
        }
        return v;
    };
    const auto [f_in, f_out] = label_vars(split.fixed);
    const automaton fa =
        network_to_automaton(mgr, split.fixed, f_in, f_out);
    const auto [s_in, s_out] = label_vars(original);
    const automaton sa = network_to_automaton(mgr, original, s_in, s_out);
    return {write_kiss_string(fa, f_in, f_out),
            write_kiss_string(sa, s_in, s_out)};
}

} // namespace

table1_pair make_table1_pair(const std::string& name) {
    for (table1_instance& inst : make_table1_suite()) {
        if (inst.name == name) {
            split_result split = split_last_latches(inst.circuit,
                                                    inst.x_latches);
            return {std::move(split.fixed), std::move(inst.circuit),
                    split.part.initial_state()};
        }
    }
    throw std::invalid_argument("no Table-1 row '" + name + "'");
}

const bench_metric* bench_row::find(const std::string& name) const {
    for (const bench_metric& m : metrics) {
        if (m.name == name) { return &m; }
    }
    return nullptr;
}

metric_policy bench_metric_policy(const std::string& name) {
    // deterministic solver outputs and the schedule's shape: any drift is
    // a behaviour change
    if (name == "subset_states" || name == "csf_states" ||
        name == "batch_solved" || name == "batch_empty" ||
        name == "composition_ok" || name == "diagnose_ok" ||
        name == "relations" || name == "clusters" ||
        name == "reduced_states") {
        return {metric_direction::exact, 0.0, 0.0};
    }
    // deterministic work counters: 10% + slack budget.  Misses are gated
    // beside lookups because the hit rate alone can fall when a change
    // removes lookups that were almost all hits.  Both are two-sided: a
    // fall means work left the computed cache (an uncached kernel, a
    // skipped phase), which must be re-pinned on purpose, not pass
    // silently.  subst_nodes counts the substitution memo's misses (nodes
    // rebuilt by permute).
    if (name == "cache_lookups" || name == "cache_misses") {
        return {metric_direction::two_sided, 0.10, 1000.0};
    }
    if (name == "subst_nodes") {
        return {metric_direction::up_bad, 0.10, 1000.0};
    }
    if (name == "images") { return {metric_direction::up_bad, 0.10, 2.0}; }
    if (name == "gc_runs") { return {metric_direction::up_bad, 0.10, 2.0}; }
    if (name == "allocated_nodes") {
        return {metric_direction::up_bad, 0.10, 4096.0};
    }
    if (name == "live_nodes") {
        return {metric_direction::up_bad, 0.10, 1024.0};
    }
    if (name == "cache_hit_rate") {
        return {metric_direction::down_bad, 0.10, 0.02};
    }
    // anything future
    return {metric_direction::info, 0.0, 0.0};
}

std::vector<std::string> bench_workload_names() {
    std::vector<std::string> names;
    for (const command_row& r : command_rows()) { names.emplace_back(r.id); }
    names.emplace_back("batch/families");
    return names;
}

bench_row run_bench_workload(const std::string& workload) {
    for (const command_row& r : command_rows()) {
        if (workload == r.id) { return run_row(r); }
    }
    if (workload == "batch/families") { return run_batch_workload(workload); }
    throw std::invalid_argument("unknown bench workload '" + workload + "'");
}

// ---------------------------------------------------------------------------
// the paper's Table 1
// ---------------------------------------------------------------------------

table1_checks check_table1_row(const equation_problem& problem,
                               const std::vector<bool>& x_init,
                               const automaton& part, const automaton* mono) {
    table1_checks checks;
    checks.particular = verify_particular_contained(problem, part, x_init);
    checks.composition = verify_composition_contained(problem, part);
    if (mono != nullptr) {
        checks.equivalent = language_equivalent(part, *mono);
    }
    return checks;
}

table1_row run_table1_row(const std::string& name,
                          double time_limit_seconds) {
    const table1_pair pair = make_table1_pair(name);
    const equation_problem problem(pair.fixed, pair.spec);
    solve_options options;
    options.time_limit_seconds = time_limit_seconds;
    const solve_result part = solve_partitioned(problem, options);
    const solve_result mono = solve_monolithic(problem, options);

    table1_row row;
    row.part_status = part.status;
    row.mono_status = mono.status;
    row.part_seconds = part.seconds;
    row.mono_seconds = mono.seconds;
    if (part.status == solve_status::ok) {
        row.csf_states = part.csf_states;
        row.checks = check_table1_row(
            problem, pair.x_init, *part.csf,
            mono.status == solve_status::ok ? &*mono.csf : nullptr);
    }
    return row;
}

// ---------------------------------------------------------------------------
// serialization
// ---------------------------------------------------------------------------

std::string bench_report_to_json(const bench_report& report) {
    std::string rows = "[";
    for (std::size_t k = 0; k < report.rows.size(); ++k) {
        const bench_row& row = report.rows[k];
        json_object metrics;
        for (const bench_metric& m : row.metrics) {
            metrics.field(m.name, m.value);
        }
        json_object obj;
        obj.field("workload", row.workload);
        obj.field_raw("metrics", metrics.str());
        if (k > 0) { rows += ","; }
        rows += obj.str();
    }
    rows += "]";
    json_object doc;
    doc.field("schema", report.schema);
    doc.field_raw("rows", rows);
    return doc.str() + "\n";
}

namespace {

/// Minimal JSON reader for the report schema: objects, arrays, strings,
/// numbers.  The CLI at large stays writer-only (see json.hpp); parsing
/// lives here because the compare gate is the one consumer.
class json_reader {
public:
    explicit json_reader(const std::string& text) : text_(text) {}

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    [[nodiscard]] char peek() {
        skip_ws();
        if (pos_ >= text_.size()) { fail("unexpected end of input"); }
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    [[nodiscard]] bool consume(char c) {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    [[nodiscard]] std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) { fail("unterminated string"); }
            const char c = text_[pos_++];
            if (c == '"') { break; }
            if (c == '\\') {
                if (pos_ >= text_.size()) { fail("unterminated escape"); }
                const char e = text_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u':
                    // the report never emits non-ASCII; keep the escape
                    if (pos_ + 4 > text_.size()) { fail("bad \\u escape"); }
                    out += "\\u" + text_.substr(pos_, 4);
                    pos_ += 4;
                    break;
                default: fail("bad escape");
                }
            } else {
                out += c;
            }
        }
        return out;
    }

    [[nodiscard]] double parse_number() {
        skip_ws();
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start) { fail("expected a number"); }
        try {
            return std::stod(text_.substr(start, pos_ - start));
        } catch (const std::exception&) {
            fail("bad number");
        }
        return 0.0; // unreachable
    }

    /// Skip any value (for fields the schema does not know).
    void skip_value() {
        const char c = peek();
        if (c == '"') {
            (void)parse_string();
        } else if (c == '{') {
            ++pos_;
            if (!consume('}')) {
                do {
                    (void)parse_string();
                    expect(':');
                    skip_value();
                } while (consume(','));
                expect('}');
            }
        } else if (c == '[') {
            ++pos_;
            if (!consume(']')) {
                do { skip_value(); } while (consume(','));
                expect(']');
            }
        } else if (c == 't' || c == 'f' || c == 'n') {
            while (pos_ < text_.size() &&
                   std::isalpha(static_cast<unsigned char>(text_[pos_])) !=
                       0) {
                ++pos_;
            }
        } else {
            (void)parse_number();
        }
    }

    [[noreturn]] void fail(const std::string& why) {
        throw std::runtime_error("bench report parse error at byte " +
                                 std::to_string(pos_) + ": " + why);
    }

private:
    const std::string& text_;
    std::size_t pos_ = 0;
};

bench_row parse_row(json_reader& in) {
    bench_row row;
    in.expect('{');
    if (!in.consume('}')) {
        do {
            const std::string key = in.parse_string();
            in.expect(':');
            if (key == "workload") {
                row.workload = in.parse_string();
            } else if (key == "metrics") {
                in.expect('{');
                if (!in.consume('}')) {
                    do {
                        bench_metric m;
                        m.name = in.parse_string();
                        in.expect(':');
                        m.value = in.parse_number();
                        row.metrics.push_back(std::move(m));
                    } while (in.consume(','));
                    in.expect('}');
                }
            } else {
                in.skip_value();
            }
        } while (in.consume(','));
        in.expect('}');
    }
    return row;
}

} // namespace

bench_report parse_bench_report(const std::string& json) {
    json_reader in(json);
    bench_report report;
    report.schema.clear();
    in.expect('{');
    if (!in.consume('}')) {
        do {
            const std::string key = in.parse_string();
            in.expect(':');
            if (key == "schema") {
                report.schema = in.parse_string();
            } else if (key == "rows") {
                in.expect('[');
                if (!in.consume(']')) {
                    do {
                        report.rows.push_back(parse_row(in));
                    } while (in.consume(','));
                    in.expect(']');
                }
            } else {
                in.skip_value();
            }
        } while (in.consume(','));
        in.expect('}');
    }
    if (report.schema != "leq-bench-v1") {
        throw std::runtime_error("bench report schema mismatch: '" +
                                 report.schema + "'");
    }
    return report;
}

// ---------------------------------------------------------------------------
// the gate
// ---------------------------------------------------------------------------

bench_compare_result compare_bench_reports(const bench_report& base,
                                           const bench_report& current) {
    bench_compare_result result;
    std::map<std::string, const bench_row*> current_rows;
    for (const bench_row& row : current.rows) {
        current_rows[row.workload] = &row;
    }
    for (const bench_row& base_row : base.rows) {
        const auto it = current_rows.find(base_row.workload);
        if (it == current_rows.end()) {
            // lost coverage is a regression, not a note: the trajectory
            // must not silently shrink
            result.regressions.push_back(
                {base_row.workload, "<row missing>", 0.0, 0.0, 0.0});
            continue;
        }
        const bench_row& now = *it->second;
        current_rows.erase(it);
        for (const bench_metric& bm : base_row.metrics) {
            const metric_policy policy = bench_metric_policy(bm.name);
            if (policy.direction == metric_direction::info) { continue; }
            const bench_metric* cm = now.find(bm.name);
            if (cm == nullptr) {
                result.regressions.push_back(
                    {base_row.workload, bm.name + " <missing>", bm.value,
                     0.0, 0.0});
                continue;
            }
            double limit = 0.0;
            bool regressed = false;
            switch (policy.direction) {
            case metric_direction::up_bad:
                limit = bm.value * (1.0 + policy.rel_tol) + policy.abs_slack;
                regressed = cm->value > limit;
                break;
            case metric_direction::down_bad:
                limit = bm.value * (1.0 - policy.rel_tol) - policy.abs_slack;
                regressed = cm->value < limit;
                break;
            case metric_direction::two_sided: {
                const double budget = bm.value * policy.rel_tol +
                                      policy.abs_slack;
                limit = cm->value < bm.value ? bm.value - budget
                                             : bm.value + budget;
                regressed = std::abs(cm->value - bm.value) > budget;
                break;
            }
            case metric_direction::exact:
                limit = bm.value;
                regressed =
                    std::abs(cm->value - bm.value) > policy.abs_slack;
                break;
            case metric_direction::info: break;
            }
            if (regressed) {
                result.regressions.push_back({base_row.workload, bm.name,
                                              bm.value, cm->value, limit});
            }
        }
    }
    for (const auto& [workload, row] : current_rows) {
        (void)row;
        result.notes.push_back("new workload not in baseline: " + workload +
                               " (refresh the baseline to start gating it)");
    }
    return result;
}

std::string to_string(const bench_compare_result& result) {
    std::string out;
    for (const bench_regression& r : result.regressions) {
        out += "REGRESSION " + r.workload + " " + r.metric + ": base " +
               json_number(r.base) + " -> " + json_number(r.current) +
               " (limit " + json_number(r.limit) + ")\n";
    }
    for (const std::string& note : result.notes) {
        out += "note: " + note + "\n";
    }
    if (result.ok()) { out += "bench compare: OK\n"; }
    return out;
}

std::string bench_delta_table(const bench_report& base,
                              const bench_report& current) {
    std::string out;
    out += "| workload | metric | base | current | delta |\n";
    out += "|---|---|---:|---:|---:|\n";
    std::map<std::string, const bench_row*> current_rows;
    for (const bench_row& row : current.rows) {
        current_rows[row.workload] = &row;
    }
    const auto cell = [](double v) {
        // integers print bare; rates keep their fraction
        return json_number(v);
    };
    for (const bench_row& base_row : base.rows) {
        const auto it = current_rows.find(base_row.workload);
        if (it == current_rows.end()) {
            out += "| " + base_row.workload + " | _row missing_ | | | |\n";
            continue;
        }
        const bench_row& now = *it->second;
        current_rows.erase(it);
        for (const bench_metric& bm : base_row.metrics) {
            if (bench_metric_policy(bm.name).direction ==
                metric_direction::info) {
                continue;
            }
            const bench_metric* cm = now.find(bm.name);
            if (cm == nullptr) {
                out += "| " + base_row.workload + " | " + bm.name +
                       " | " + cell(bm.value) + " | _missing_ | |\n";
                continue;
            }
            std::string delta;
            if (bm.value == cm->value) {
                delta = "=";
            } else if (bm.value == 0.0) {
                delta = "new";
            } else {
                const double pct =
                    (cm->value - bm.value) / bm.value * 100.0;
                // two decimals is plenty for a 10%-budget gate
                const double rounded = std::round(pct * 100.0) / 100.0;
                delta = (rounded > 0 ? "+" : "") + json_number(rounded) + "%";
            }
            out += "| " + base_row.workload + " | " + bm.name + " | " +
                   cell(bm.value) + " | " + cell(cm->value) + " | " + delta +
                   " |\n";
        }
    }
    for (const auto& [workload, row] : current_rows) {
        (void)row;
        out += "| " + workload + " | _new workload_ | | | |\n";
    }
    return out;
}

// ---------------------------------------------------------------------------
// corpus
// ---------------------------------------------------------------------------

std::vector<bench_corpus_file> bench_corpus_files() {
    std::vector<bench_corpus_file> files;
    {
        const scenario s = make_scenario(scenario_family::counter, 3, 256);
        files.push_back({"counter_x256_f.blif", write_blif_string(s.fixed)});
        files.push_back({"counter_x256_s.blif", write_blif_string(s.spec)});
    }
    {
        const scenario s = make_scenario(scenario_family::arbiter, 2, 16);
        files.push_back({"arbiter_x16_f.blif", write_blif_string(s.fixed)});
        files.push_back({"arbiter_x16_s.blif", write_blif_string(s.spec)});
    }
    {
        const auto [f_kiss, s_kiss] = make_counter_kiss(9);
        files.push_back({"counter9_f.kiss", f_kiss});
        files.push_back({"counter9_s.kiss", s_kiss});
    }
    for (const char* name : {"s208", "s298", "s349", "s444", "s510", "s526"}) {
        const table1_pair pair = make_table1_pair(name);
        const std::string stem = std::string("table1_") + name;
        files.push_back({stem + "_f.blif", write_blif_string(pair.fixed)});
        files.push_back({stem + "_s.blif", write_blif_string(pair.spec)});
    }
    return files;
}

} // namespace leq
