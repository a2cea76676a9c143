/// \file test_cli.cpp
/// \brief The `leq` CLI end to end, in-process: every subcommand on the
/// checked-in examples/eqn/ pairs, the error paths, JSON validity, and the
/// batch mode's thread-count determinism.

#include "cli/cli.hpp"

#include "cli/batch.hpp"
#include "cli/json.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace leq;

std::string example(const std::string& file) {
    return std::string(LEQ_SOURCE_DIR) + "/examples/eqn/" + file;
}

struct cli_run {
    int exit_code = 0;
    std::string out;
    std::string err;
};

cli_run run(const std::vector<std::string>& args) {
    std::ostringstream out, err;
    cli_run r;
    r.exit_code = run_leq_cli(args, out, err);
    r.out = out.str();
    r.err = err.str();
    return r;
}

// ---------------------------------------------------------------------------
// a minimal JSON syntax checker: enough to prove the stats lines are valid
// JSON (objects, arrays, strings with escapes, numbers, true/false/null)
// ---------------------------------------------------------------------------

struct json_checker {
    const std::string& text;
    std::size_t pos = 0;

    void ws() {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t')) {
            ++pos;
        }
    }
    bool eat(char c) {
        ws();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }
    bool string() {
        if (!eat('"')) { return false; }
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                ++pos;
                if (pos >= text.size()) { return false; }
            }
            ++pos;
        }
        return eat('"');
    }
    bool number() {
        ws();
        const std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
                text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
                text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
        }
        return pos > start;
    }
    bool literal(const char* word) {
        ws();
        const std::size_t len = std::string(word).size();
        if (text.compare(pos, len, word) == 0) {
            pos += len;
            return true;
        }
        return false;
    }
    bool value() {
        ws();
        if (pos >= text.size()) { return false; }
        if (text[pos] == '"') { return string(); }
        if (text[pos] == '{') { return object(); }
        if (text[pos] == '[') { return array(); }
        if (literal("true") || literal("false") || literal("null")) {
            return true;
        }
        return number();
    }
    bool object() {
        if (!eat('{')) { return false; }
        if (eat('}')) { return true; }
        do {
            if (!string() || !eat(':') || !value()) { return false; }
        } while (eat(','));
        return eat('}');
    }
    bool array() {
        if (!eat('[')) { return false; }
        if (eat(']')) { return true; }
        do {
            if (!value()) { return false; }
        } while (eat(','));
        return eat(']');
    }
};

/// Whole line is exactly one valid JSON object.
bool valid_json_object(const std::string& line) {
    json_checker checker{line};
    if (!checker.object()) { return false; }
    checker.ws();
    return checker.pos == line.size();
}

/// `"key":<raw value>` lookup on a flat rendering (no nested-name clashes
/// in the CLI's field set).
std::string raw_field(const std::string& json, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos) { return {}; }
    std::size_t from = at + needle.size();
    std::size_t to = from;
    int depth = 0;
    while (to < json.size()) {
        const char c = json[to];
        if (depth == 0 && (c == ',' || c == '}')) { break; }
        if (c == '{' || c == '[') { ++depth; }
        if (c == '}' || c == ']') { --depth; }
        ++to;
    }
    return json.substr(from, to - from);
}

std::string first_line(const std::string& text) {
    return text.substr(0, text.find('\n'));
}

std::string temp_path(const char* name) {
    return testing::TempDir() + name;
}

std::string corpus(const std::string& file) {
    return std::string(LEQ_SOURCE_DIR) + "/bench/corpus/" + file;
}

// ---------------------------------------------------------------------------
// solve
// ---------------------------------------------------------------------------

TEST(cli_solve, solvable_kiss_pair_emits_valid_json) {
    const cli_run r = run({"solve", example("passthrough_f.kiss"),
                           example("passthrough_s.kiss")});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "status"), "\"ok\"");
    EXPECT_EQ(raw_field(line, "solution"), "\"ok\"");
    EXPECT_EQ(raw_field(line, "csf_states"), "2");
    // the stats block surfaces the relation layer
    EXPECT_NE(raw_field(line, "stats"), "");
    EXPECT_NE(raw_field(line, "images"), "0");
    EXPECT_NE(raw_field(line, "seconds"), "");
}

TEST(cli_solve, unsolvable_kiss_pair_reports_empty) {
    const cli_run r = run({"solve", example("inverter_f.kiss"),
                           example("inverter_s.kiss")});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "status"), "\"ok\"");
    EXPECT_EQ(raw_field(line, "solution"), "\"empty\"");
}

TEST(cli_solve, blif_pair_and_every_flow) {
    for (const char* flow : {"partitioned", "monolithic", "explicit"}) {
        const cli_run r = run({"solve", example("delay_f.blif"),
                               example("delay_s.blif"), "--flow", flow});
        EXPECT_EQ(r.exit_code, 0) << flow << ": " << r.err;
        const std::string line = first_line(r.out);
        EXPECT_TRUE(valid_json_object(line)) << line;
        EXPECT_EQ(raw_field(line, "solution"), "\"ok\"") << flow;
        EXPECT_EQ(raw_field(line, "flow"),
                  "\"" + std::string(flow) + "\"");
    }
}

TEST(cli_solve, knob_flags_reach_the_relation_layer) {
    const cli_run r =
        run({"solve", example("passthrough_f.kiss"),
             example("passthrough_s.kiss"), "--cluster-limit", "100",
             "--no-early-quant", "--collect-stats", "--no-timing"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "cluster_limit"), "100");
    EXPECT_EQ(raw_field(line, "early_quantification"), "false");
    EXPECT_NE(raw_field(line, "peak_intermediate"), "");
    EXPECT_EQ(raw_field(line, "seconds"), ""); // --no-timing
}

TEST(cli_solve, gen_spec_generates_and_solves) {
    const cli_run r = run({"solve", "gen:counter:7"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "name"), "\"counter:7\"");
    EXPECT_EQ(raw_field(line, "status"), "\"ok\"");
}

TEST(cli_solve, gen_spec_scale_suffix_grows_the_instance) {
    const cli_run r = run({"solve", "gen:counter:7:8"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "name"), "\"counter:7:8\"");
    EXPECT_EQ(raw_field(line, "status"), "\"ok\"");
    // scale 8 adds three counter bits over the scale-1 instance, so the
    // candidate space is strictly larger
    const cli_run base = run({"solve", "gen:counter:7"});
    EXPECT_EQ(base.exit_code, 0) << base.err;
    EXPECT_NE(raw_field(first_line(base.out), "subset_states"),
              raw_field(line, "subset_states"));
}

TEST(cli_solve, stats_line_carries_the_per_op_cache_breakdown) {
    const cli_run r =
        run({"solve", example("passthrough_f.kiss"),
             example("passthrough_s.kiss"), "--collect-stats",
             "--no-timing"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_NE(raw_field(line, "cache_lookups"), "");
    EXPECT_NE(raw_field(line, "cache_hits"), "");
    // the breakdown object names only ops that were actually looked up
    EXPECT_NE(line.find("\"op_cache\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"lookups\""), std::string::npos) << line;
}

TEST(cli_errors, gen_spec_rejects_bad_scale) {
    EXPECT_NE(run({"solve", "gen:counter:2:x"}).exit_code, 0);
    EXPECT_NE(run({"solve", "gen:counter:2:0"}).exit_code, 0);
    EXPECT_NE(run({"solve", "gen:counter:2:8:9"}).exit_code, 0);
}

// ---------------------------------------------------------------------------
// verify / diagnose / reduce
// ---------------------------------------------------------------------------

TEST(cli_verify, composition_check_passes_on_examples) {
    const cli_run r = run({"verify", example("delay_f.blif"),
                           example("delay_s.blif")});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_EQ(raw_field(first_line(r.out), "composition_ok"), "true");
}

TEST(cli_diagnose, csf_diagnosis_is_clean) {
    const cli_run r = run({"diagnose", example("passthrough_f.kiss"),
                           example("passthrough_s.kiss")});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_EQ(raw_field(first_line(r.out), "ok"), "true");
}

TEST(cli_diagnose, bad_candidate_yields_counterexample_trace) {
    // a candidate for the inverter pair, whose CSF is empty: any machine
    // is wrong, and the diagnosis must carry a concrete trace
    const std::string impl = temp_path("bad_impl.kiss");
    {
        std::ofstream out(impl);
        out << ".i 1\n.o 1\n.s 1\n.p 2\n.r s0\n"
               "0 s0 s0 0\n1 s0 s0 1\n.e\n";
    }
    const cli_run r = run({"diagnose", example("inverter_f.kiss"),
                           example("inverter_s.kiss"), "--impl", impl});
    EXPECT_EQ(r.exit_code, 1);
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "ok"), "false");
    EXPECT_NE(raw_field(line, "trace"), "");
    EXPECT_NE(r.err.find("step 0"), std::string::npos) << r.err;
    std::remove(impl.c_str());
}

TEST(cli_reduce, writes_a_small_kiss_machine) {
    const std::string out_path = temp_path("reduced.kiss");
    const cli_run r = run({"reduce", example("passthrough_f.kiss"),
                           example("passthrough_s.kiss"), "--out", out_path});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_EQ(raw_field(line, "states"), "2"); // parity needs two states
    EXPECT_EQ(raw_field(line, "method"), "\"compatibility\"");
    std::ifstream in(out_path);
    ASSERT_TRUE(in.good());
    std::string head;
    in >> head;
    EXPECT_EQ(head, ".i");
    std::remove(out_path.c_str());
}

TEST(cli_reduce, empty_solution_is_an_error) {
    const cli_run r = run({"reduce", example("inverter_f.kiss"),
                           example("inverter_s.kiss")});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(raw_field(first_line(r.out), "status"), "\"error\"");
}

// ---------------------------------------------------------------------------
// error paths
// ---------------------------------------------------------------------------

TEST(cli_errors, unknown_option_is_usage_error) {
    const cli_run r = run({"solve", "--bogus"});
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST(cli_errors, unknown_command_is_usage_error) {
    EXPECT_EQ(run({"frobnicate"}).exit_code, 2);
    EXPECT_EQ(run({}).exit_code, 2);
}

TEST(cli_errors, missing_input_file) {
    const cli_run r = run({"solve", "no_such_f.kiss", "no_such_s.kiss"});
    EXPECT_EQ(r.exit_code, 3);
    EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(cli_errors, missing_flag_value) {
    EXPECT_EQ(run({"solve", "--cluster-limit"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--time-limit"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--cluster-limit", "lots"}).exit_code, 2);
}

TEST(cli_errors, removed_solver_knobs_are_unknown_options) {
    // the cluster policy and the BDD memory geometry are fixed; their old
    // flags (named without the dashes here) are usage errors, not silently
    // ignored
    const std::vector<std::pair<std::string, std::string>> gone = {
        {"policy", "affinity"}, {"cache-bits", "12"},
        {"max-cache-bits", "20"}, {"gc-threshold", "20000"},
        {"cache-ways", "2"}};
    for (const auto& [name, value] : gone) {
        const std::string flag = "--" + name;
        const cli_run r = run({"solve", example("passthrough_f.kiss"),
                               example("passthrough_s.kiss"), flag, value});
        EXPECT_EQ(r.exit_code, 2) << flag;
        EXPECT_NE(r.err.find("unknown option '" + flag + "'"),
                  std::string::npos)
            << r.err;
    }
    // and the record no longer echoes them
    const std::string line =
        first_line(run({"solve", example("passthrough_f.kiss"),
                        example("passthrough_s.kiss")})
                       .out);
    for (const char* key : {"policy", "cache_bits", "max_cache_bits",
                            "gc_threshold", "cache_ways"}) {
        EXPECT_EQ(raw_field(line, key), "") << key;
    }
}

TEST(cli_errors, non_finite_time_limit_is_a_usage_error) {
    // inf used to overflow the deadline into the past (an instant timeout)
    // and nan silently meant "unlimited"
    for (const char* limit : {"inf", "nan"}) {
        const cli_run r = run({"solve", example("passthrough_f.kiss"),
                               example("passthrough_s.kiss"), "--time-limit",
                               limit});
        EXPECT_EQ(r.exit_code, 2) << limit;
        EXPECT_NE(r.err.find("bad value for --time-limit"), std::string::npos)
            << r.err;
    }
}

TEST(cli_errors, strategy_flag_is_gone) {
    const cli_run r = run({"solve", example("passthrough_f.kiss"),
                           example("passthrough_s.kiss"), "--strategy",
                           "frontier"});
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("unknown option '--strategy'"), std::string::npos)
        << r.err;
}

TEST(cli_errors, numeric_flags_reject_trailing_garbage) {
    EXPECT_EQ(run({"solve", "--max-states", "1e6"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--jobs", "4x"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--time-limit", "30s"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "gen:counter:7abc"}).exit_code, 3);
    // stoul would silently wrap negatives to huge values
    EXPECT_EQ(run({"solve", "--cluster-limit", "-1"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--time-limit", "-5"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "gen:counter:-1"}).exit_code, 3);
}

TEST(cli_errors, help_is_not_an_error) {
    EXPECT_EQ(run({"--help"}).exit_code, 0);
    EXPECT_EQ(run({"help"}).exit_code, 0);
    EXPECT_EQ(run({"solve", "--help"}).exit_code, 0);
}

TEST(cli_errors, missing_impl_is_unreadable_input) {
    EXPECT_EQ(run({"diagnose", example("passthrough_f.kiss"),
                   example("passthrough_s.kiss"), "--impl",
                   "no_such_impl.kiss"})
                  .exit_code,
              3);
}

TEST(cli_errors, batch_rejects_shared_out_path) {
    EXPECT_EQ(run({"batch", example("campaign.txt"), "--command", "reduce",
                   "--out", "x.kiss"})
                  .exit_code,
              2);
}

TEST(cli_solve, single_run_and_batch_agree_on_default_names) {
    // "passthrough_f.kiss" → "passthrough", same as the manifest default
    const cli_run r = run({"solve", example("passthrough_f.kiss"),
                           example("passthrough_s.kiss")});
    EXPECT_EQ(raw_field(first_line(r.out), "name"), "\"passthrough\"");
}

TEST(cli_errors, malformed_input_is_a_job_error) {
    const std::string bad = temp_path("bad.kiss");
    {
        std::ofstream out(bad);
        out << ".i 1\n.o 1\n"; // no transitions
    }
    const cli_run r = run({"solve", bad, bad});
    EXPECT_EQ(r.exit_code, 3);
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "status"), "\"error\"");
    EXPECT_NE(raw_field(line, "error"), "");
    std::remove(bad.c_str());
}

TEST(cli_errors, truncated_kiss_is_never_ok) {
    // the corpus F machine declares `.p 1283`; cut after 13 rows it must
    // fail at the declaration instead of solving a smaller machine
    std::ifstream in(corpus("counter9_f.kiss"));
    ASSERT_TRUE(in.good());
    const std::string cut = temp_path("counter9_f_cut.kiss");
    {
        std::ofstream out(cut);
        std::string line;
        for (int k = 0; k < 5 + 13 && std::getline(in, line); ++k) {
            out << line << "\n";
        }
    }
    const cli_run r = run({"solve", cut, corpus("counter9_s.kiss")});
    EXPECT_EQ(r.exit_code, 3);
    EXPECT_EQ(r.out.find("\"status\":\"ok\""), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("kiss:4:"), std::string::npos) << r.out;
    std::remove(cut.c_str());
}

TEST(cli_errors, unknown_reset_state_is_a_kiss_error) {
    // `.r` naming a state no row mentions is a parse error at the `.r`
    // line, not an escaped lookup failure
    std::ifstream in(example("passthrough_f.kiss"));
    ASSERT_TRUE(in.good());
    const std::string bad = temp_path("passthrough_f_reset.kiss");
    {
        std::ofstream out(bad);
        std::string line;
        while (std::getline(in, line)) {
            out << (line == ".r s0" ? ".r nowhere" : line) << "\n";
        }
    }
    const cli_run r = run({"solve", bad, example("passthrough_s.kiss")});
    EXPECT_EQ(r.exit_code, 3);
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(r.out.find("\"status\":\"ok\""), std::string::npos) << r.out;
    EXPECT_EQ(raw_field(line, "error").rfind("\"kiss:", 0), 0u) << line;
    std::remove(bad.c_str());
}

TEST(cli_exit_codes, every_row_of_the_documented_table) {
    const std::string f = example("passthrough_f.kiss");
    const std::string s = example("passthrough_s.kiss");
    // the table itself is part of --help
    const cli_run help = run({"--help"});
    for (const char* row :
         {"  0  solved", "  1  gave up", "  2  usage error",
          "  3  input unreadable or malformed"}) {
        EXPECT_NE(help.err.find(row), std::string::npos) << row;
    }
    // 0: solved
    EXPECT_EQ(run({"solve", f, s}).exit_code, 0);
    // 1: gave up (a resource limit); a failed check is
    // cli_diagnose.bad_candidate_yields_counterexample_trace
    const cli_run gave_up = run({"solve", f, s, "--max-states", "1"});
    EXPECT_EQ(gave_up.exit_code, 1);
    EXPECT_EQ(raw_field(first_line(gave_up.out), "status"),
              "\"state_limit\"");
    // 2: usage
    EXPECT_EQ(run({"solve", f}).exit_code, 2);
    // 3: an input is unreadable (cli_errors.missing_input_file) or
    // malformed: a parse error (`.p` count) for every pair command, an
    // interface mismatch, a malformed --impl candidate
    const std::string bad = temp_path("exit_table_bad.kiss");
    {
        std::ofstream out(bad);
        out << ".i 1\n.o 1\n.s 1\n.p 2\n.r s0\n0 s0 s0 0\n.e\n";
    }
    for (const char* command : {"solve", "verify", "diagnose", "reduce"}) {
        const cli_run r = run({command, bad, s});
        EXPECT_EQ(r.exit_code, 3) << command << ": " << r.err;
        EXPECT_EQ(raw_field(first_line(r.out), "status"), "\"error\"")
            << command;
        EXPECT_NE(r.err.find("kiss:4:"), std::string::npos) << r.err;
    }
    EXPECT_EQ(run({"solve", s, example("inverter_s.kiss"),
                   "--choice-inputs", "9"})
                  .exit_code,
              3);
    EXPECT_EQ(run({"diagnose", f, s, "--impl", bad}).exit_code, 3);
    // batch: the malformed job is an error record and the campaign exits 1
    const std::string manifest = temp_path("exit_table_manifest.txt");
    {
        std::ofstream out(manifest);
        out << f << " " << s << " good\n" << bad << " " << s << " bad\n";
    }
    const cli_run batch = run({"batch", manifest});
    EXPECT_EQ(batch.exit_code, 1);
    const std::string bad_record = batch.out.substr(batch.out.find('\n') + 1);
    EXPECT_EQ(raw_field(bad_record, "name"), "\"bad\"") << batch.out;
    EXPECT_EQ(raw_field(bad_record, "status"), "\"error\"") << batch.out;
    EXPECT_NE(batch.err.find("1 error(s)"), std::string::npos) << batch.err;
    std::remove(bad.c_str());
    std::remove(manifest.c_str());
}

TEST(cli_errors, missing_manifest) {
    EXPECT_EQ(run({"batch", "no_such_manifest.txt"}).exit_code, 3);
}

TEST(cli_errors, malformed_manifest_line) {
    const std::string manifest = temp_path("bad_manifest.txt");
    {
        std::ofstream out(manifest);
        out << "only_one_token\n";
    }
    EXPECT_EQ(run({"batch", manifest}).exit_code, 3);
    std::remove(manifest.c_str());
}

// ---------------------------------------------------------------------------
// batch
// ---------------------------------------------------------------------------

TEST(cli_batch, four_threads_match_sequential_byte_for_byte) {
    const std::string manifest = example("campaign.txt");
    const cli_run seq = run({"batch", manifest, "--jobs", "1"});
    const cli_run par = run({"batch", manifest, "--jobs", "4"});
    EXPECT_EQ(seq.exit_code, 0) << seq.err;
    EXPECT_EQ(par.exit_code, 0) << par.err;
    EXPECT_EQ(seq.out, par.out); // ordered, untimed records: identical
    // every record is valid JSON and the campaign covers the whole manifest
    std::istringstream lines(seq.out);
    std::string line;
    std::size_t records = 0;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(valid_json_object(line)) << line;
        ++records;
    }
    EXPECT_EQ(records, 6u);
    EXPECT_NE(seq.err.find("6 equation(s)"), std::string::npos) << seq.err;
}

TEST(cli_batch, per_job_failures_do_not_kill_the_campaign) {
    const std::string manifest = temp_path("mixed_manifest.txt");
    {
        std::ofstream out(manifest);
        out << example("passthrough_f.kiss") << " "
            << example("passthrough_s.kiss") << " good\n"
            << "gen:counter:3 generated\n";
    }
    // library-level: a job whose input is unreadable at run time errors
    // alone (sources are slurped up front, so simulate with a bad text)
    std::vector<batch_job> jobs = read_manifest_file(manifest);
    ASSERT_EQ(jobs.size(), 2u);
    jobs[0].fixed.text = "garbage";
    batch_options options;
    options.jobs = 2;
    const batch_report report = run_batch(jobs, options);
    EXPECT_EQ(report.errors, 1u);
    EXPECT_EQ(report.solved, 1u);
    EXPECT_FALSE(report.records[0].completed);
    EXPECT_TRUE(report.records[1].completed);
    std::remove(manifest.c_str());
}

TEST(cli_batch, failed_checks_fail_the_campaign_exit_code) {
    // a job that solves but fails its diagnose check must flip the
    // campaign to exit 1 (parity with `leq diagnose F S --impl ...`)
    const std::string impl = temp_path("campaign_bad_impl.kiss");
    {
        std::ofstream out(impl);
        out << ".i 1\n.o 1\n.s 1\n.p 2\n.r s0\n"
               "0 s0 s0 0\n1 s0 s0 1\n.e\n";
    }
    const std::string manifest = temp_path("check_fail_manifest.txt");
    {
        std::ofstream out(manifest);
        out << example("inverter_f.kiss") << " "
            << example("inverter_s.kiss") << "\n";
    }
    const cli_run r = run({"batch", manifest, "--command", "diagnose",
                           "--impl", impl});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("1 failed check(s)"), std::string::npos) << r.err;
    std::remove(impl.c_str());
    std::remove(manifest.c_str());
}

TEST(cli_batch, verify_command_applies_to_every_job) {
    const std::string manifest = temp_path("verify_manifest.txt");
    {
        std::ofstream out(manifest);
        out << example("passthrough_f.kiss") << " "
            << example("passthrough_s.kiss") << "\n"
            << example("delay_f.blif") << " " << example("delay_s.blif")
            << "\n";
    }
    const cli_run r =
        run({"batch", manifest, "--jobs", "2", "--command", "verify"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    std::istringstream lines(r.out);
    std::string line;
    while (std::getline(lines, line)) {
        EXPECT_EQ(raw_field(line, "composition_ok"), "true") << line;
    }
    std::remove(manifest.c_str());
}

} // namespace
