/// \file kiss_flow.hpp
/// \brief FSM-level equation solving from KISS2 inputs, BALM style.
///
/// The paper's implementation lived in MVSIS next to BALM, whose primary
/// exchange format for FSMs was KISS2.  This module accepts the fixed
/// component F and the specification S as KISS2 text, encodes both into
/// multi-level networks (binary state encoding), and hands them to the
/// partitioned solver — so FSM-level problems ride the same machinery as
/// netlist-level ones, partitioned representation included.
///
/// Interface convention (Figure 1): S has inputs i and outputs o; F's input
/// cube is (i..., v...) and its output cube is (o..., u...), widths
/// inferred from the two headers.  Both machines must be deterministic
/// Mealy FSMs (every input cube enables exactly one transition).
#pragma once

#include "eq/problem.hpp"
#include "net/network.hpp"

#include <memory>
#include <string>
#include <vector>

namespace leq {

/// A built FSM-level instance.  The problem owns the BDD manager the
/// solver result's automaton will live in; keep it alive (moving the
/// struct is fine — the manager's address is stable behind the
/// unique_ptr).  Like everything manager-backed, an instance must stay on
/// the thread family that owns it: one instance per worker thread,
/// never shared.
struct kiss_instance {
    network fixed;  ///< F encoded as a network, ports (i...,v...)/(o...,u...)
    network spec;   ///< S encoded as a network, ports (i...)/(o...)
    std::unique_ptr<equation_problem> problem;
};

/// Canonical equation port names: `stem0, stem1, ...` starting at `from`
/// ("i"/"z" for the shared ports, "xv"/"xu" for the unknown's wires, "w"
/// for choice inputs).  One definition for every KISS-encoding path (this
/// module and cli/equation_io), so the naming convention cannot fork.
[[nodiscard]] std::vector<std::string>
kiss_port_names(const char* stem, std::size_t count, std::size_t from = 0);

/// Encode a KISS2 fixed machine F with the canonical equation port layout:
/// inputs (i..., xv..., w...), outputs (z..., xu...).  The cube widths must
/// equal shared+v+choice inputs and shared+u outputs.  Shared by
/// build_kiss_instance and the CLI loader, so the interface layout (choice
/// inputs included) is assembled in exactly one place.
[[nodiscard]] network
encode_kiss_fixed(const std::string& f_kiss, std::size_t num_shared_inputs,
                  std::size_t num_shared_outputs, std::size_t num_v,
                  std::size_t num_u, std::size_t num_choice_inputs = 0,
                  const std::string& model_name = "kiss_f");

/// Encode a KISS2 specification S with ports (i...)/(z...).
[[nodiscard]] network encode_kiss_spec(const std::string& s_kiss,
                                       std::size_t num_inputs,
                                       std::size_t num_outputs,
                                       const std::string& model_name
                                       = "kiss_s");

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

/// Encode F and S from KISS2 text and build the equation instance.
/// Throws std::runtime_error on malformed KISS and std::invalid_argument
/// when F's interface cannot embed S's (fewer inputs/outputs).
[[nodiscard]] kiss_instance
build_kiss_instance(const std::string& f_kiss, const std::string& s_kiss);

} // namespace leq
