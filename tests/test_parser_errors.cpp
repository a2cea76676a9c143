/// \file test_parser_errors.cpp
/// \brief Failure injection for the text front ends: malformed BLIF and
/// KISS2 must produce clean errors, never crashes or silent misparses; and
/// valid corner inputs must round-trip.
///
/// Compiled with LEQ_SOURCE_DIR pointing at the repo root so the truncation
/// checks can read the checked-in BLIF files.

#include "automata/kiss.hpp"
#include "cli/bench.hpp"
#include "gen/scenario.hpp"
#include "gen/shrink.hpp"
#include "net/blif.hpp"
#include "net/generator.hpp"
#include "net/parse_error.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace {

using namespace leq;

// ---------------------------------------------------------------------------
// BLIF
// ---------------------------------------------------------------------------

TEST(blif_errors, empty_input) {
    EXPECT_THROW((void)read_blif_string(""), std::runtime_error);
}

TEST(blif_errors, cube_width_mismatch) {
    const char* text = R"(
.model bad
.inputs a b
.outputs z
.names a b z
1 1
.end
)";
    EXPECT_THROW((void)read_blif_string(text), std::runtime_error);
}

TEST(blif_errors, undriven_output) {
    const char* text = R"(
.model bad
.inputs a
.outputs z
.end
)";
    EXPECT_THROW(read_blif_string(text).validate(), std::runtime_error);
}

TEST(blif_errors, combinational_cycle) {
    const char* text = R"(
.model loop
.inputs a
.outputs z
.names z2 z
1 1
.names z z2
1 1
.end
)";
    EXPECT_THROW(read_blif_string(text).validate(), std::runtime_error);
}

TEST(blif_errors, bad_latch_line) {
    const char* text = R"(
.model bad
.inputs a
.outputs z
.latch a
.names a z
1 1
.end
)";
    EXPECT_THROW((void)read_blif_string(text), std::runtime_error);
}

TEST(blif_errors, latch_init_value_must_be_0_to_3) {
    const auto latch = [](const std::string& decl) {
        return ".model m\n.inputs a\n.outputs b\n" + decl +
               "\n.names b b2\n1 1\n.end\n";
    };
    // line 4 holds the .latch declaration
    try {
        (void)read_blif_string(latch(".latch a b 7"));
        FAIL() << "init value 7 accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "blif:4: bad latch init value '7'");
    }
    EXPECT_THROW((void)read_blif_string(latch(".latch a b re clk x")),
                 std::runtime_error);
    EXPECT_THROW((void)read_blif_string(latch(".latch a b re clk 0 1")),
                 std::runtime_error);
    for (const char* ok : {".latch a b", ".latch a b 0", ".latch a b 1",
                           ".latch a b 2", ".latch a b 3",
                           ".latch a b re clk", ".latch a b re clk 1"}) {
        EXPECT_NO_THROW((void)read_blif_string(latch(ok))) << ok;
    }
    EXPECT_TRUE(read_blif_string(latch(".latch a b re clk 1"))
                    .initial_state()
                    .at(0));
}

TEST(blif_errors, garbage_cube_characters) {
    const char* text = R"(
.model bad
.inputs a
.outputs z
.names a z
x 1
.end
)";
    EXPECT_THROW((void)read_blif_string(text), std::runtime_error);
}

TEST(blif_roundtrip, families_survive_write_read) {
    for (int id = 0; id < 4; ++id) {
        const network net = id == 0   ? make_counter(4)
                            : id == 1 ? make_lfsr(5, {2})
                            : id == 2 ? make_traffic_controller()
                                      : make_paper_example();
        const network back = read_blif_string(write_blif_string(net));
        EXPECT_EQ(back.num_inputs(), net.num_inputs());
        EXPECT_EQ(back.num_outputs(), net.num_outputs());
        EXPECT_EQ(back.num_latches(), net.num_latches());
        // behaviour must survive exactly
        std::vector<bool> sa = net.initial_state();
        std::vector<bool> sb = back.initial_state();
        std::uint32_t lcg = 5u + static_cast<std::uint32_t>(id);
        for (int t = 0; t < 64; ++t) {
            std::vector<bool> in(net.num_inputs());
            for (auto&& bit : in) {
                lcg = lcg * 1664525u + 1013904223u;
                bit = (lcg >> 16) & 1u;
            }
            const auto ra = net.simulate(sa, in);
            const auto rb = back.simulate(sb, in);
            ASSERT_EQ(ra.outputs, rb.outputs) << net.name() << " t=" << t;
            sa = ra.next_state;
            sb = rb.next_state;
        }
    }
}

TEST(blif_errors, missing_end_is_an_error_at_the_last_line) {
    const std::string body = ".model m\n.inputs a\n.outputs z\n"
                             ".names a z\n1 1\n";
    EXPECT_NO_THROW((void)read_blif_string(body + ".end\n"));
    try {
        (void)read_blif_string(body);
        FAIL() << "a BLIF without .end parsed";
    } catch (const parse_error& e) {
        EXPECT_STREQ(e.what(), "blif:5: missing .end");
        EXPECT_EQ(e.line(), 5u);
        EXPECT_EQ(e.in("f.blif").what(),
                  std::string("f.blif:5: missing .end"));
    }
}

TEST(blif_errors, truncated_checked_in_files_throw) {
    // a cut at any line boundary used to parse as a smaller network (and
    // could flip the answer); every proper line-prefix must now throw
    std::size_t files = 0;
    for (const char* dir : {"bench/corpus", "examples/eqn"}) {
        for (const auto& entry : std::filesystem::directory_iterator(
                 std::string(LEQ_SOURCE_DIR) + "/" + dir)) {
            if (entry.path().extension() != ".blif") { continue; }
            ++files;
            std::ifstream in(entry.path());
            std::vector<std::string> lines;
            for (std::string line; std::getline(in, line);) {
                lines.push_back(line);
            }
            SCOPED_TRACE(entry.path().string());
            std::string prefix;
            for (const std::string& line : lines) {
                EXPECT_THROW((void)read_blif_string(prefix), parse_error)
                    << "prefix of " << prefix.size() << " bytes";
                prefix += line + "\n";
            }
            EXPECT_NO_THROW((void)read_blif_string(prefix));
        }
    }
    EXPECT_GE(files, 6u);
}

// ---------------------------------------------------------------------------
// KISS
// ---------------------------------------------------------------------------

bdd_manager& scratch_mgr() {
    static bdd_manager mgr(8);
    return mgr;
}

automaton parse(const std::string& text, std::size_t ni, std::size_t no) {
    std::vector<std::uint32_t> in, out;
    for (std::size_t k = 0; k < ni; ++k) {
        in.push_back(static_cast<std::uint32_t>(k));
    }
    for (std::size_t k = 0; k < no; ++k) {
        out.push_back(static_cast<std::uint32_t>(ni + k));
    }
    return read_kiss_string(text, scratch_mgr(), in, out);
}

TEST(kiss_errors, missing_header) {
    EXPECT_THROW((void)parse("0 a b 0\n", 1, 1), std::runtime_error);
}

TEST(kiss_errors, input_width_mismatch) {
    const char* text = ".i 2\n.o 1\n.r a\n0 a a 1\n";
    EXPECT_THROW((void)parse(text, 2, 1), std::runtime_error);
}

TEST(kiss_errors, output_width_mismatch) {
    const char* text = ".i 1\n.o 2\n.r a\n0 a a 1\n";
    EXPECT_THROW((void)parse(text, 1, 2), std::runtime_error);
}

TEST(kiss_errors, header_var_count_mismatch) {
    const char* text = ".i 3\n.o 1\n.r a\n000 a a 1\n";
    EXPECT_THROW((void)parse(text, 1, 1), std::runtime_error);
}

TEST(kiss_errors, truncated_transition_line) {
    const char* text = ".i 1\n.o 1\n.r a\n0 a a\n";
    EXPECT_THROW((void)parse(text, 1, 1), std::runtime_error);
}

/// The `kiss:LINE:` message `parse` throws on `text`, or "" if it parses.
std::string kiss_error(const std::string& text, std::size_t ni = 1,
                       std::size_t no = 1) {
    try {
        (void)parse(text, ni, no);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(kiss_errors, row_count_is_exact) {
    const std::string body = ".r a\n0 a b 1\n1 b a 0\n";
    EXPECT_EQ(kiss_error(".i 1\n.o 1\n.p 2\n" + body), "");
    EXPECT_EQ(kiss_error(".i 1\n.o 1\n.p 3\n" + body),
              "kiss:3: .p declares 3 rows but the body has 2");
    EXPECT_EQ(kiss_error(".i 1\n.o 1\n.p 1\n" + body),
              "kiss:3: .p declares 1 rows but the body has 2");
    EXPECT_NE(kiss_error(".i 1\n.o 1\n.p many\n" + body), "");
}

TEST(kiss_errors, state_count_is_an_upper_bound) {
    const std::string body = ".r a\n0 a b 1\n1 b a 0\n";
    // unreachable or row-less states may be declared but never named
    EXPECT_EQ(kiss_error(".i 1\n.o 1\n.s 2\n" + body), "");
    EXPECT_EQ(kiss_error(".i 1\n.o 1\n.s 5\n" + body), "");
    EXPECT_EQ(kiss_error("# header\n.i 1\n.o 1\n.s 1\n" + body),
              "kiss:4: .s declares 1 states but the body names 2");
}

TEST(kiss_errors, reset_state_must_name_a_row) {
    const std::string body = "0 a b 1\n1 b a 0\n";
    EXPECT_EQ(kiss_error(".i 1\n.o 1\n.r b\n" + body), "");
    EXPECT_EQ(kiss_error(".i 1\n.o 1\n.r nowhere\n" + body),
              "kiss:3: reset state 'nowhere' names no row");
}

TEST(kiss_errors, truncated_corpus_machine_throws) {
    // the bench corpus F machine declares .s 256 / .p 1283; cut after 13
    // rows it used to solve as a 13-row machine with "status":"ok"
    std::string full;
    for (const bench_corpus_file& file : bench_corpus_files()) {
        if (file.name == "counter9_f.kiss") { full = file.text; }
    }
    ASSERT_FALSE(full.empty());
    const kiss_header h = read_kiss_header(full);
    EXPECT_EQ(kiss_error(full, h.num_inputs, h.num_outputs), "");
    std::size_t cut = 0;
    for (int line = 0; line < 5 + 13; ++line) {
        cut = full.find('\n', cut) + 1;
    }
    EXPECT_EQ(kiss_error(full.substr(0, cut), h.num_inputs, h.num_outputs),
              "kiss:4: .p declares 1283 rows but the body has 13");
}

TEST(kiss_roundtrip, mealy_machine_survives) {
    const char* text = ".i 1\n.o 1\n.s 2\n.p 4\n.r s0\n"
                       "0 s0 s0 0\n1 s0 s1 1\n0 s1 s0 1\n1 s1 s1 0\n.e\n";
    bdd_manager mgr(2);
    const automaton a = read_kiss_string(text, mgr, {0}, {1});
    const std::string emitted = write_kiss_string(a, {0}, {1});
    const automaton b = read_kiss_string(emitted, mgr, {0}, {1});
    EXPECT_TRUE(language_equivalent(a, b));
    EXPECT_EQ(a.num_states(), b.num_states());
}

TEST(kiss_header, tolerates_leading_comments) {
    const kiss_header h = read_kiss_header("# comment\n.i 3\n.o 2\n");
    EXPECT_EQ(h.num_inputs, 3u);
    EXPECT_EQ(h.num_outputs, 2u);
}

// ---------------------------------------------------------------------------
// shrinker reproducer output: emitted artifacts re-parse, corrupted
// variants hit the same clean error paths as the hand-written cases above
// ---------------------------------------------------------------------------

TEST(reproducer_output, emitted_kiss_reparses_and_corruptions_throw) {
    const scenario sc = make_scenario(scenario_family::arbiter, 1);
    const std::string kiss = network_to_kiss(sc.spec);
    const kiss_header h = read_kiss_header(kiss);
    ASSERT_EQ(h.num_inputs, sc.spec.num_inputs());
    ASSERT_EQ(h.num_outputs, sc.spec.num_outputs());
    EXPECT_NO_THROW(
        (void)parse(kiss, sc.spec.num_inputs(), sc.spec.num_outputs()));

    // truncate the last transition line mid-token
    const std::string truncated = kiss.substr(0, kiss.rfind(' '));
    EXPECT_THROW(
        (void)parse(truncated, sc.spec.num_inputs(), sc.spec.num_outputs()),
        std::runtime_error);
    // lie about the input width
    std::string lying = kiss;
    lying.replace(lying.find(".i "), 4, ".i 9");
    EXPECT_THROW((void)parse(lying, 9, sc.spec.num_outputs()),
                 std::runtime_error);
    // strip the header entirely
    const std::string headerless = kiss.substr(kiss.find(".r"));
    EXPECT_THROW(
        (void)parse(headerless, sc.spec.num_inputs(), sc.spec.num_outputs()),
        std::runtime_error);
}

TEST(reproducer_output, emitted_blif_reparses_and_corruptions_throw) {
    const scenario sc = make_scenario(scenario_family::counter, 1);
    const std::string blif = write_blif_string(sc.fixed);
    EXPECT_NO_THROW((void)read_blif_string(blif));

    // corrupt one cube row into a width mismatch
    std::string bad = blif;
    const std::size_t row = bad.find("\n1");
    ASSERT_NE(row, std::string::npos);
    bad.insert(row + 1, "1");
    EXPECT_THROW((void)read_blif_string(bad), std::runtime_error);
    // break a latch declaration (single-token .latch line)
    std::string badlatch = blif;
    const std::size_t latch = badlatch.find(".latch ");
    ASSERT_NE(latch, std::string::npos);
    const std::size_t eol = badlatch.find('\n', latch);
    badlatch.replace(latch, eol - latch, ".latch x");
    EXPECT_THROW((void)read_blif_string(badlatch), std::runtime_error);
}

} // namespace
