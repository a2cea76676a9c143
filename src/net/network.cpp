/// \file network.cpp
/// \brief Network construction, validation, topological order, simulation.

#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace leq {

std::uint32_t network::signal(const std::string& name) {
    const auto it = signal_ids_.find(name);
    if (it != signal_ids_.end()) { return it->second; }
    const auto id = static_cast<std::uint32_t>(signal_names_.size());
    signal_names_.push_back(name);
    signal_ids_.emplace(name, id);
    return id;
}

std::uint32_t network::add_input(const std::string& name) {
    const std::uint32_t id = signal(name);
    inputs_.push_back(id);
    return id;
}

void network::add_output(const std::string& name) {
    outputs_.push_back(signal(name));
}

void network::add_latch(const std::string& input, const std::string& output,
                        bool init) {
    latches_.push_back({signal(input), signal(output), init});
}

void network::add_node(const std::string& output,
                       const std::vector<std::string>& fanins,
                       const std::vector<std::string>& cubes,
                       bool complemented) {
    logic_node node;
    node.output = signal(output);
    node.fanins.reserve(fanins.size());
    for (const auto& f : fanins) { node.fanins.push_back(signal(f)); }
    node.complemented = complemented;
    for (const auto& c : cubes) {
        if (c.size() != fanins.size()) {
            throw std::invalid_argument("add_node(" + output +
                                        "): cube width mismatch");
        }
        sop_cube cube;
        cube.literals.reserve(c.size());
        for (const char ch : c) {
            switch (ch) {
            case '0': cube.literals.push_back(0); break;
            case '1': cube.literals.push_back(1); break;
            case '-': cube.literals.push_back(2); break;
            default:
                throw std::invalid_argument("add_node(" + output +
                                            "): bad cube char");
            }
        }
        node.cubes.push_back(std::move(cube));
    }
    if (node_of_signal_.count(node.output) != 0) {
        throw std::invalid_argument("add_node: signal '" + output +
                                    "' already driven");
    }
    node_of_signal_.emplace(node.output, nodes_.size());
    nodes_.push_back(std::move(node));
}

const logic_node* network::driver(std::uint32_t signal) const {
    const auto it = node_of_signal_.find(signal);
    return it == node_of_signal_.end() ? nullptr : &nodes_[it->second];
}

std::vector<std::uint32_t> network::topo_order() const {
    // sources: primary inputs and latch outputs
    enum class state : std::uint8_t { unseen, visiting, done };
    std::vector<state> marks(signal_names_.size(), state::unseen);
    std::vector<std::uint32_t> order;
    order.reserve(signal_names_.size());

    std::vector<char> is_source(signal_names_.size(), 0);
    for (const std::uint32_t s : inputs_) { is_source[s] = 1; }
    for (const latch& l : latches_) { is_source[l.output] = 1; }

    // iterative DFS; the explicit stack stores (signal, fanin cursor)
    const auto visit = [&](std::uint32_t root) {
        if (marks[root] == state::done) { return; }
        std::vector<std::pair<std::uint32_t, std::size_t>> stack{{root, 0}};
        marks[root] = state::visiting;
        while (!stack.empty()) {
            auto& [sig, cursor] = stack.back();
            const logic_node* node = is_source[sig] ? nullptr : driver(sig);
            if (node == nullptr && !is_source[sig]) {
                throw std::runtime_error("network '" + name_ + "': signal '" +
                                         signal_names_[sig] + "' has no driver");
            }
            const std::size_t nfanins = node ? node->fanins.size() : 0;
            if (cursor < nfanins) {
                const std::uint32_t next = node->fanins[cursor++];
                if (marks[next] == state::visiting) {
                    throw std::runtime_error("network '" + name_ +
                                             "': combinational cycle through '" +
                                             signal_names_[next] + "'");
                }
                if (marks[next] == state::unseen) {
                    marks[next] = state::visiting;
                    stack.emplace_back(next, 0);
                }
            } else {
                marks[sig] = state::done;
                order.push_back(sig);
                stack.pop_back();
            }
        }
    };

    for (const std::uint32_t s : outputs_) { visit(s); }
    for (const latch& l : latches_) { visit(l.input); }
    // visit dangling logic too: cycles must be rejected even outside the
    // output cone (e.g. a combinational loop created by composition)
    for (const logic_node& node : nodes_) { visit(node.output); }
    return order;
}

void network::validate() const {
    for (const logic_node& node : nodes_) {
        for (const sop_cube& cube : node.cubes) {
            if (cube.literals.size() != node.fanins.size()) {
                throw std::runtime_error("network '" + name_ +
                                         "': cube width mismatch on '" +
                                         signal_names_[node.output] + "'");
            }
        }
    }
    // a latch output must not also be a node output or primary input
    std::vector<char> is_source(signal_names_.size(), 0);
    for (const std::uint32_t s : inputs_) { is_source[s] = 1; }
    for (const latch& l : latches_) {
        if (is_source[l.output]) {
            throw std::runtime_error("network '" + name_ +
                                     "': latch output '" +
                                     signal_names_[l.output] +
                                     "' multiply driven");
        }
        is_source[l.output] = 1;
    }
    for (const logic_node& node : nodes_) {
        if (is_source[node.output]) {
            throw std::runtime_error("network '" + name_ + "': signal '" +
                                     signal_names_[node.output] +
                                     "' multiply driven");
        }
    }
    (void)topo_order(); // throws on cycles / missing drivers
}

std::vector<bool> network::initial_state() const {
    std::vector<bool> init;
    init.reserve(latches_.size());
    for (const latch& l : latches_) { init.push_back(l.init); }
    return init;
}

network::cycle_result
network::simulate(const std::vector<bool>& state,
                  const std::vector<bool>& inputs) const {
    if (state.size() != latches_.size() || inputs.size() != inputs_.size()) {
        throw std::invalid_argument("simulate: wrong state/input width");
    }
    std::vector<std::uint8_t> value(signal_names_.size(), 0xff);
    for (std::size_t k = 0; k < inputs_.size(); ++k) {
        value[inputs_[k]] = inputs[k] ? 1 : 0;
    }
    for (std::size_t k = 0; k < latches_.size(); ++k) {
        value[latches_[k].output] = state[k] ? 1 : 0;
    }
    for (const std::uint32_t sig : topo_order()) {
        if (value[sig] != 0xff) { continue; }
        const logic_node* node = driver(sig);
        if (node == nullptr) {
            throw std::runtime_error("simulate: undriven signal '" +
                                     signal_names_[sig] + "'");
        }
        bool any = false;
        for (const sop_cube& cube : node->cubes) {
            bool hit = true;
            for (std::size_t f = 0; f < node->fanins.size(); ++f) {
                const std::uint8_t lit = cube.literals[f];
                if (lit == 2) { continue; }
                if (value[node->fanins[f]] != lit) { hit = false; break; }
            }
            if (hit) { any = true; break; }
        }
        value[sig] = (any != node->complemented) ? 1 : 0;
    }
    cycle_result result;
    result.outputs.reserve(outputs_.size());
    for (const std::uint32_t s : outputs_) { result.outputs.push_back(value[s] == 1); }
    result.next_state.reserve(latches_.size());
    for (const latch& l : latches_) { result.next_state.push_back(value[l.input] == 1); }
    return result;
}

} // namespace leq
