/// \file kiss.hpp
/// \brief KISS2 import/export for automata.
///
/// KISS2 is the FSM exchange format of the MCNC/SIS/MVSIS/BALM toolchain
/// the paper's implementation lived in.  A line `ICUBE CURRENT NEXT OCUBE`
/// gives one transition; we map the input cube onto the u variables and the
/// output cube onto the v variables of an automaton label (matching how the
/// paper turns FSMs into automata: inputs and outputs are not
/// distinguished).  The reserved next-state name `*` is not supported; all
/// states are accepting (FSMs are prefix-closed).
#pragma once

#include "automata/automaton.hpp"

#include <iosfwd>
#include <string>
#include <vector>

namespace leq {

/// Serialize as KISS2.  Each transition's label is expanded into
/// (u-cube, v-cube) pairs.  Only deterministic Mealy-style automata (as
/// produced by extract_fsm) round-trip exactly; arbitrary label BDDs are
/// emitted cube by cube.
void write_kiss(std::ostream& out, const automaton& aut,
                const std::vector<std::uint32_t>& input_vars,
                const std::vector<std::uint32_t>& output_vars);

[[nodiscard]] std::string write_kiss_string(
    const automaton& aut, const std::vector<std::uint32_t>& input_vars,
    const std::vector<std::uint32_t>& output_vars);

/// Parse KISS2 into an automaton over the given label variables.
/// Throws parse_error (net/parse_error.hpp) on malformed input.
[[nodiscard]] automaton read_kiss(std::istream& in, bdd_manager& mgr,
                                  const std::vector<std::uint32_t>& input_vars,
                                  const std::vector<std::uint32_t>& output_vars);

[[nodiscard]] automaton
read_kiss_string(const std::string& text, bdd_manager& mgr,
                 const std::vector<std::uint32_t>& input_vars,
                 const std::vector<std::uint32_t>& output_vars);

/// Interface dimensions scanned from a KISS2 header (.i / .o lines), used
/// to allocate label variables before the full parse.  Throws parse_error
/// when either line is missing.
struct kiss_header {
    std::size_t num_inputs = 0;
    std::size_t num_outputs = 0;
};
[[nodiscard]] kiss_header read_kiss_header(const std::string& text);

} // namespace leq
