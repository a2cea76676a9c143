/// \file kiss.cpp
/// \brief KISS2 serialization.

#include "automata/kiss.hpp"

#include "net/parse_error.hpp"

#include <map>
#include <sstream>

namespace leq {

void write_kiss(std::ostream& out, const automaton& aut,
                const std::vector<std::uint32_t>& input_vars,
                const std::vector<std::uint32_t>& output_vars) {
    bdd_manager& mgr = aut.manager();
    std::vector<std::uint32_t> all_vars = input_vars;
    all_vars.insert(all_vars.end(), output_vars.begin(), output_vars.end());

    // collect rows first to report .p
    struct row {
        std::string in, st, nx, outv;
    };
    std::vector<row> rows;
    for (std::uint32_t s = 0; s < aut.num_states(); ++s) {
        for (const transition& t : aut.transitions(s)) {
            mgr.foreach_cube(t.label, all_vars,
                             [&](const std::vector<int>& values) {
                std::string icube(input_vars.size(), '-');
                std::string ocube(output_vars.size(), '-');
                for (std::size_t k = 0; k < input_vars.size(); ++k) {
                    if (values[k] != 2) {
                        icube[k] = static_cast<char>('0' + values[k]);
                    }
                }
                for (std::size_t k = 0; k < output_vars.size(); ++k) {
                    const int v = values[input_vars.size() + k];
                    if (v != 2) { ocube[k] = static_cast<char>('0' + v); }
                }
                rows.push_back({icube, "s" + std::to_string(s),
                                "s" + std::to_string(t.dest), ocube});
            });
        }
    }
    out << ".i " << input_vars.size() << "\n.o " << output_vars.size()
        << "\n.s " << aut.num_states() << "\n.p " << rows.size() << "\n.r s"
        << aut.initial() << "\n";
    for (const row& r : rows) {
        out << r.in << " " << r.st << " " << r.nx << " " << r.outv << "\n";
    }
    out << ".e\n";
}

std::string write_kiss_string(const automaton& aut,
                              const std::vector<std::uint32_t>& input_vars,
                              const std::vector<std::uint32_t>& output_vars) {
    std::ostringstream out;
    write_kiss(out, aut, input_vars, output_vars);
    return out.str();
}

automaton read_kiss(std::istream& in, bdd_manager& mgr,
                    const std::vector<std::uint32_t>& input_vars,
                    const std::vector<std::uint32_t>& output_vars) {
    std::vector<std::uint32_t> label_vars = input_vars;
    label_vars.insert(label_vars.end(), output_vars.begin(),
                      output_vars.end());
    automaton aut(mgr, label_vars);

    std::map<std::string, std::uint32_t> ids;
    const auto intern = [&](const std::string& name) {
        const auto it = ids.find(name);
        if (it != ids.end()) { return it->second; }
        const std::uint32_t id = aut.add_state(true);
        ids.emplace(name, id);
        return id;
    };

    std::string reset_name;
    std::size_t reset_line = 0; ///< the `.r` line (0 = first row's state)
    std::size_t rows = 0;
    bool have_i = false, have_o = false;
    // declared counts and the lines declaring them (0 = not declared):
    // `.p` must match the body exactly, `.s` bounds the distinct state
    // names, so a truncated file is an error instead of a smaller machine
    std::size_t declared_rows = 0, declared_states = 0;
    std::size_t rows_line = 0, states_line = 0;
    std::string line;
    std::size_t line_no = 0;
    const auto fail_at = [](std::size_t at, const std::string& message) {
        throw parse_error("kiss", at, message);
    };
    const auto fail = [&](const std::string& message) {
        fail_at(line_no, message);
    };
    while (std::getline(in, line)) {
        ++line_no;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) { line.erase(hash); }
        std::istringstream ss(line);
        std::string tok;
        if (!(ss >> tok)) { continue; }
        if (tok == ".i") {
            std::size_t n = 0;
            ss >> n;
            if (n != input_vars.size()) { fail(".i mismatch"); }
            have_i = true;
        } else if (tok == ".o") {
            std::size_t n = 0;
            ss >> n;
            if (n != output_vars.size()) { fail(".o mismatch"); }
            have_o = true;
        } else if (tok == ".s" || tok == ".p") {
            std::size_t n = 0;
            if (!(ss >> n)) { fail("bad " + tok + " count"); }
            if (tok == ".s") {
                declared_states = n;
                states_line = line_no;
            } else {
                declared_rows = n;
                rows_line = line_no;
            }
        } else if (tok == ".r") {
            ss >> reset_name;
            reset_line = line_no;
        } else if (tok == ".e") {
            break;
        } else if (tok[0] == '.') {
            fail("unsupported construct '" + tok + "'");
        } else {
            if (!have_i || !have_o) { fail("missing .i/.o header"); }
            std::string st, nx, ocube;
            if (!(ss >> st >> nx >> ocube)) { fail("bad transition row"); }
            if (tok.size() != input_vars.size() ||
                ocube.size() != output_vars.size()) {
                fail("cube width mismatch");
            }
            if (reset_name.empty()) { reset_name = st; }
            bdd label = mgr.one();
            const auto apply = [&](const std::string& cube,
                                   const std::vector<std::uint32_t>& vars) {
                for (std::size_t k = 0; k < cube.size(); ++k) {
                    if (cube[k] == '0') {
                        label &= mgr.nvar(vars[k]);
                    } else if (cube[k] == '1') {
                        label &= mgr.var(vars[k]);
                    } else if (cube[k] != '-') {
                        fail("bad cube character");
                    }
                }
            };
            apply(tok, input_vars);
            apply(ocube, output_vars);
            aut.add_transition(intern(st), intern(nx), label);
            ++rows;
        }
    }
    if (rows == 0) { throw parse_error("kiss", 0, "no transitions"); }
    if (rows_line != 0 && rows != declared_rows) {
        fail_at(rows_line, ".p declares " + std::to_string(declared_rows) +
                               " rows but the body has " +
                               std::to_string(rows));
    }
    if (states_line != 0 && ids.size() > declared_states) {
        fail_at(states_line, ".s declares " +
                                 std::to_string(declared_states) +
                                 " states but the body names " +
                                 std::to_string(ids.size()));
    }
    const auto reset = ids.find(reset_name);
    if (reset == ids.end()) {
        fail_at(reset_line,
                "reset state '" + reset_name + "' names no row");
    }
    aut.set_initial(reset->second);
    return aut;
}

automaton read_kiss_string(const std::string& text, bdd_manager& mgr,
                           const std::vector<std::uint32_t>& input_vars,
                           const std::vector<std::uint32_t>& output_vars) {
    std::istringstream in(text);
    return read_kiss(in, mgr, input_vars, output_vars);
}

kiss_header read_kiss_header(const std::string& text) {
    std::istringstream in(text);
    kiss_header h;
    bool have_i = false, have_o = false;
    std::string line;
    while (std::getline(in, line) && !(have_i && have_o)) {
        std::istringstream ls(line);
        std::string tok;
        ls >> tok;
        if (tok == ".i") {
            ls >> h.num_inputs;
            have_i = true;
        } else if (tok == ".o") {
            ls >> h.num_outputs;
            have_o = true;
        }
    }
    if (!have_i || !have_o) {
        throw parse_error("kiss", 0, "missing .i/.o header");
    }
    return h;
}

} // namespace leq
