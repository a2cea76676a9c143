/// \file network.hpp
/// \brief Multi-level sequential networks: the input format of the solver.
///
/// A network is a named list of signals driven by primary inputs, latches and
/// internal logic nodes (sum-of-products covers, BLIF style).  The language
/// equation solver consumes networks for the fixed component F and the
/// specification S; per the paper, the automata for both are prefix-closed
/// because they are derived from such networks.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace leq {

/// One row of a sum-of-products cover: a value per fanin (0, 1 or 2 = don't
/// care).  A cover with no cubes is the constant given by `constant_one`.
struct sop_cube {
    std::vector<std::uint8_t> literals;
};

/// Logic node: output signal = OR of cubes over the fanin signals.  If
/// `complemented` the cover describes the off-set (BLIF "... 0" rows).
struct logic_node {
    std::uint32_t output = 0;            ///< signal id this node drives
    std::vector<std::uint32_t> fanins;   ///< signal ids read by the cover
    std::vector<sop_cube> cubes;
    bool complemented = false;
};

/// A latch connects its data-input signal to its output signal with one
/// cycle of delay; `init` is the reset value.
struct latch {
    std::uint32_t input = 0;   ///< next-state (data) signal
    std::uint32_t output = 0;  ///< current-state signal
    bool init = false;
};

/// Multi-level sequential network.
class network {
public:
    explicit network(std::string name = "net") : name_(std::move(name)) {}

    // ---- construction ------------------------------------------------------
    /// Intern a signal name; returns its id (idempotent).
    std::uint32_t signal(const std::string& name);
    /// Declare an existing or new signal as primary input / output.
    std::uint32_t add_input(const std::string& name);
    void add_output(const std::string& name);
    void add_latch(const std::string& input, const std::string& output,
                   bool init);
    /// Add a logic node driving `output`; cube strings use '0','1','-' per
    /// fanin.  An empty cube list makes the constant 0 (or 1 if
    /// complemented).
    void add_node(const std::string& output,
                  const std::vector<std::string>& fanins,
                  const std::vector<std::string>& cubes,
                  bool complemented = false);

    // ---- queries -----------------------------------------------------------
    [[nodiscard]] const std::string& name() const { return name_; }
    void set_name(std::string n) { name_ = std::move(n); }
    [[nodiscard]] const std::string& signal_name(std::uint32_t id) const {
        return signal_names_[id];
    }

    [[nodiscard]] const std::vector<std::uint32_t>& inputs() const { return inputs_; }
    [[nodiscard]] const std::vector<std::uint32_t>& outputs() const { return outputs_; }
    [[nodiscard]] const std::vector<latch>& latches() const { return latches_; }
    [[nodiscard]] const std::vector<logic_node>& nodes() const { return nodes_; }

    [[nodiscard]] std::size_t num_inputs() const { return inputs_.size(); }
    [[nodiscard]] std::size_t num_outputs() const { return outputs_.size(); }
    [[nodiscard]] std::size_t num_latches() const { return latches_.size(); }

    /// Signals in a topological order of the combinational logic (sources
    /// first).  Throws std::runtime_error on combinational cycles or signals
    /// with no driver.
    [[nodiscard]] std::vector<std::uint32_t> topo_order() const;

    /// Structural sanity: every output/latch input driven, no cycles, cube
    /// widths match fanin counts.  Throws std::runtime_error on violation.
    void validate() const;

    /// Initial state as latch-indexed bits.
    [[nodiscard]] std::vector<bool> initial_state() const;

    // ---- simulation ---------------------------------------------------------
    /// One synchronous cycle: given latch state and input values, produce
    /// output values and the next state.
    struct cycle_result {
        std::vector<bool> outputs;
        std::vector<bool> next_state;
    };
    [[nodiscard]] cycle_result simulate(const std::vector<bool>& state,
                                        const std::vector<bool>& inputs) const;

private:
    friend class blif_reader;
    [[nodiscard]] const logic_node* driver(std::uint32_t signal) const;

    std::string name_;
    std::vector<std::string> signal_names_;
    std::unordered_map<std::string, std::uint32_t> signal_ids_;
    std::vector<std::uint32_t> inputs_;
    std::vector<std::uint32_t> outputs_;
    std::vector<latch> latches_;
    std::vector<logic_node> nodes_;
    std::unordered_map<std::uint32_t, std::size_t> node_of_signal_;
};

} // namespace leq
