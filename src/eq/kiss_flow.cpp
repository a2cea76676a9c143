/// \file kiss_flow.cpp
/// \brief KISS2 front end: parse, encode, build the equation instance.

#include "eq/kiss_flow.hpp"

#include "automata/encode.hpp"
#include "automata/kiss.hpp"

#include <stdexcept>
#include <vector>

namespace leq {

std::vector<std::string> kiss_port_names(const char* stem, std::size_t count,
                                         std::size_t from) {
    std::vector<std::string> names;
    names.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
        names.push_back(stem + std::to_string(from + k));
    }
    return names;
}

network encode_kiss_network(const std::string& text,
                            const std::vector<std::string>& input_names,
                            const std::vector<std::string>& output_names,
                            const std::string& model_name) {
    bdd_manager mgr;
    std::vector<std::uint32_t> in_vars, out_vars;
    for (std::size_t k = 0; k < input_names.size(); ++k) {
        in_vars.push_back(mgr.new_var());
    }
    for (std::size_t k = 0; k < output_names.size(); ++k) {
        out_vars.push_back(mgr.new_var());
    }
    const automaton fsm = read_kiss_string(text, mgr, in_vars, out_vars);
    return automaton_to_network(fsm, in_vars, out_vars, input_names,
                                output_names, model_name);
}

network encode_kiss_fixed(const std::string& f_kiss,
                          std::size_t num_shared_inputs,
                          std::size_t num_shared_outputs, std::size_t num_v,
                          std::size_t num_u, std::size_t num_choice_inputs,
                          const std::string& model_name) {
    // shared names first, then the unknown's wires, then choice inputs
    std::vector<std::string> f_inputs =
        kiss_port_names("i", num_shared_inputs);
    for (const std::string& name : kiss_port_names("xv", num_v)) {
        f_inputs.push_back(name);
    }
    for (const std::string& name : kiss_port_names("w", num_choice_inputs)) {
        f_inputs.push_back(name);
    }
    std::vector<std::string> f_outputs =
        kiss_port_names("z", num_shared_outputs);
    for (const std::string& name : kiss_port_names("xu", num_u)) {
        f_outputs.push_back(name);
    }
    return encode_kiss_network(f_kiss, f_inputs, f_outputs, model_name);
}

network encode_kiss_spec(const std::string& s_kiss, std::size_t num_inputs,
                         std::size_t num_outputs,
                         const std::string& model_name) {
    return encode_kiss_network(s_kiss, kiss_port_names("i", num_inputs),
                               kiss_port_names("z", num_outputs),
                               model_name);
}

kiss_instance build_kiss_instance(const std::string& f_kiss,
                                  const std::string& s_kiss) {
    const kiss_header fh = read_kiss_header(f_kiss);
    const kiss_header sh = read_kiss_header(s_kiss);
    if (fh.num_inputs < sh.num_inputs || fh.num_outputs < sh.num_outputs) {
        throw std::invalid_argument(
            "build_kiss_instance: F must carry S's inputs/outputs plus v/u");
    }
    const std::size_t num_v = fh.num_inputs - sh.num_inputs;
    const std::size_t num_u = fh.num_outputs - sh.num_outputs;

    kiss_instance inst;
    inst.fixed = encode_kiss_fixed(f_kiss, sh.num_inputs, sh.num_outputs,
                                   num_v, num_u);
    inst.spec = encode_kiss_spec(s_kiss, sh.num_inputs, sh.num_outputs);
    inst.problem = std::make_unique<equation_problem>(inst.fixed, inst.spec);
    return inst;
}

kiss_solution solve_kiss(const std::string& f_kiss, const std::string& s_kiss,
                         const solve_options& options) {
    kiss_solution sol{build_kiss_instance(f_kiss, s_kiss), {}};
    sol.result = solve_partitioned(*sol.instance.problem, options);
    return sol;
}

} // namespace leq
