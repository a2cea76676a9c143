/// \file kiss_flow.hpp
/// \brief FSM-level equation inputs from KISS2 text, BALM style.
///
/// The paper's implementation lived in MVSIS next to BALM, whose primary
/// exchange format for FSMs was KISS2.  This module encodes the fixed
/// component F and the specification S from KISS2 text into multi-level
/// networks (binary state encoding) with the canonical equation port
/// names, so FSM-level problems ride the same machinery as netlist-level
/// ones, partitioned representation included.  The one loader of a KISS
/// pair is `load_equation` (cli/equation_io.hpp), which infers the widths
/// from the two headers and calls the encoders here.
///
/// Interface convention (Figure 1): S has inputs i and outputs o; F's input
/// cube is (i..., v...) and its output cube is (o..., u...).  Both machines
/// must be deterministic Mealy FSMs (every input cube enables exactly one
/// transition).
#pragma once

#include "net/network.hpp"

#include <string>
#include <vector>

namespace leq {

/// Canonical equation port names: `stem0, stem1, ...` starting at `from`
/// ("i"/"z" for the shared ports, "xv"/"xu" for the unknown's wires, "w"
/// for choice inputs).  One definition for every KISS-encoding path (this
/// module and cli/equation_io), so the naming convention cannot fork.
[[nodiscard]] std::vector<std::string>
kiss_port_names(const char* stem, std::size_t count, std::size_t from = 0);

/// Encode a KISS2 fixed machine F with the canonical equation port layout:
/// inputs (i..., xv..., w...), outputs (z..., xu...).  The cube widths must
/// equal shared+v+choice inputs and shared+u outputs.  The one place the
/// interface layout (choice inputs included) is assembled.
[[nodiscard]] network
encode_kiss_fixed(const std::string& f_kiss, std::size_t num_shared_inputs,
                  std::size_t num_shared_outputs, std::size_t num_v,
                  std::size_t num_u, std::size_t num_choice_inputs,
                  const std::string& model_name);

/// Encode a KISS2 specification S with ports (i...)/(z...).
[[nodiscard]] network encode_kiss_spec(const std::string& s_kiss,
                                       std::size_t num_inputs,
                                       std::size_t num_outputs,
                                       const std::string& model_name);

/// Parse one KISS2 machine and encode it as a deterministic-Mealy network
/// with the given port names (cube widths must match the name counts).
/// The encoding runs in a scratch BDD manager; the returned network is
/// manager-independent (SOP covers only) and can be handed to an
/// `equation_problem` built in any manager/thread.  Throws
/// std::runtime_error on malformed KISS text.
[[nodiscard]] network
encode_kiss_network(const std::string& text,
                    const std::vector<std::string>& input_names,
                    const std::vector<std::string>& output_names,
                    const std::string& model_name);

} // namespace leq
