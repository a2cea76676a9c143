/// \file blif.cpp
/// \brief BLIF parsing and serialization.

#include "net/blif.hpp"

#include "net/parse_error.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace leq {

namespace {

/// Split `line` at whitespace into views of it, reusing `tokens`.
void tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
    tokens.clear();
    const auto space = [](char c) {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
    };
    std::size_t k = 0;
    while (k < line.size()) {
        while (k < line.size() && space(line[k])) { ++k; }
        const std::size_t start = k;
        while (k < line.size() && !space(line[k])) { ++k; }
        if (k > start) { tokens.push_back(line.substr(start, k - start)); }
    }
}

} // namespace

network read_blif(std::istream& in) {
    network net;
    std::string raw;
    std::size_t line_no = 0;

    // pending .names state: fanins+output, then cube rows until next keyword
    std::vector<std::string> names_args;
    std::vector<std::string> on_cubes, off_cubes;
    bool in_names = false;

    const auto flush_names = [&]() {
        if (!in_names) { return; }
        const std::string output = names_args.back();
        std::vector<std::string> fanins(names_args.begin(),
                                        names_args.end() - 1);
        if (!on_cubes.empty() && !off_cubes.empty()) {
            throw parse_error("blif", 0,
                              "node '" + output +
                                  "' mixes on-set and off-set rows");
        }
        const bool complemented = !off_cubes.empty();
        net.add_node(output, fanins, complemented ? off_cubes : on_cubes,
                     complemented);
        names_args.clear();
        on_cubes.clear();
        off_cubes.clear();
        in_names = false;
    };

    const auto fail = [&](const std::string& message) {
        throw parse_error("blif", line_no, message);
    };

    bool saw_directive = false;
    bool saw_end = false;
    // the logical line: raw lines joined at '\' continuations; `tokens`
    // view into it, and both keep their storage from line to line
    std::string line;
    bool continued = false;
    std::vector<std::string_view> tokens;
    while (std::getline(in, raw)) {
        ++line_no;
        const std::size_t hash = raw.find('#');
        if (hash != std::string::npos) { raw.erase(hash); }
        if (continued) {
            line += raw;
        } else {
            line.assign(raw);
        }
        continued = !line.empty() && line.back() == '\\';
        if (continued) {
            line.back() = ' ';
            continue;
        }
        tokenize(line, tokens);
        if (tokens.empty()) { continue; }
        const std::string_view head = tokens[0];
        if (head[0] == '.') {
            saw_directive = true;
            if (head == ".names") {
                flush_names();
                if (tokens.size() < 2) { fail(".names needs an output"); }
                names_args.assign(tokens.begin() + 1, tokens.end());
                in_names = true;
            } else if (head == ".model") {
                flush_names();
                if (tokens.size() >= 2) {
                    net.set_name(std::string(tokens[1]));
                }
            } else if (head == ".inputs") {
                flush_names();
                for (std::size_t k = 1; k < tokens.size(); ++k) {
                    net.add_input(std::string(tokens[k]));
                }
            } else if (head == ".outputs") {
                flush_names();
                for (std::size_t k = 1; k < tokens.size(); ++k) {
                    net.add_output(std::string(tokens[k]));
                }
            } else if (head == ".latch") {
                flush_names();
                if (tokens.size() < 3) { fail(".latch needs input and output"); }
                if (tokens.size() > 6) { fail(".latch has too many fields"); }
                // forms: .latch in out [init] | .latch in out type clock [init]
                bool init = false;
                if (tokens.size() == 4 || tokens.size() == 6) {
                    const std::string_view last = tokens.back();
                    if (last != "0" && last != "1" && last != "2" &&
                        last != "3") {
                        fail("bad latch init value '" + std::string(last) +
                             "'");
                    }
                    // 2 (don't care) and 3 (unknown) choose 0
                    init = last == "1";
                }
                net.add_latch(std::string(tokens[1]), std::string(tokens[2]),
                              init);
            } else if (head == ".end") {
                flush_names();
                saw_end = true;
                break;
            } else if (head == ".exdc" || head == ".wire_load_slope" ||
                       head == ".default_input_arrival") {
                flush_names(); // ignored extensions
            } else {
                fail("unsupported construct '" + std::string(head) + "'");
            }
        } else {
            if (!in_names) { fail("cube row outside .names"); }
            if (tokens.size() == 1 && names_args.size() == 1) {
                // constant node: single output column
                if (tokens[0] == "1") {
                    on_cubes.emplace_back();
                } else if (tokens[0] == "0") {
                    off_cubes.emplace_back();
                } else {
                    fail("bad constant row");
                }
            } else {
                if (tokens.size() != 2) { fail("bad cube row"); }
                if (tokens[0].size() != names_args.size() - 1) {
                    fail("cube width mismatch");
                }
                for (const char ch : tokens[0]) {
                    if (ch != '0' && ch != '1' && ch != '-') {
                        fail("bad cube character");
                    }
                }
                if (tokens[1] == "1") {
                    on_cubes.emplace_back(tokens[0]);
                } else if (tokens[1] == "0") {
                    off_cubes.emplace_back(tokens[0]);
                } else {
                    fail("bad cube output value");
                }
            }
        }
    }
    if (!saw_directive) {
        throw parse_error("blif", 0, "no directives found (empty input?)");
    }
    // without the terminator a file cut at a line boundary would parse as
    // a smaller network
    if (!saw_end) { fail("missing .end"); }
    net.validate();
    return net;
}

network read_blif_string(const std::string& text) {
    std::istringstream in(text);
    return read_blif(in);
}

network read_blif_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) { throw std::runtime_error("blif: cannot open '" + path + "'"); }
    return read_blif(in);
}

void write_blif(const network& net, std::ostream& out) {
    out << ".model " << net.name() << "\n.inputs";
    for (const std::uint32_t s : net.inputs()) {
        out << " " << net.signal_name(s);
    }
    out << "\n.outputs";
    for (const std::uint32_t s : net.outputs()) {
        out << " " << net.signal_name(s);
    }
    out << "\n";
    for (const latch& l : net.latches()) {
        out << ".latch " << net.signal_name(l.input) << " "
            << net.signal_name(l.output) << " " << (l.init ? 1 : 0) << "\n";
    }
    for (const logic_node& node : net.nodes()) {
        out << ".names";
        for (const std::uint32_t f : node.fanins) {
            out << " " << net.signal_name(f);
        }
        out << " " << net.signal_name(node.output) << "\n";
        const char value = node.complemented ? '0' : '1';
        for (const sop_cube& cube : node.cubes) {
            for (const std::uint8_t lit : cube.literals) {
                out << (lit == 2 ? '-' : static_cast<char>('0' + lit));
            }
            out << (cube.literals.empty() ? "" : " ") << value << "\n";
        }
        if (node.cubes.empty()) {
            // constant: non-complemented empty cover is 0 -> no row needed in
            // BLIF (a .names with no rows is constant 0); complemented is 1
            if (node.complemented) { out << "1\n"; }
        }
    }
    out << ".end\n";
}

std::string write_blif_string(const network& net) {
    std::ostringstream out;
    write_blif(net, out);
    return out.str();
}

} // namespace leq
