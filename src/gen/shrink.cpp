/// \file shrink.cpp
/// \brief Greedy delta-debugging over netlist and explicit-state moves.

#include "gen/shrink.hpp"

#include "automata/encode.hpp"
#include "automata/kiss.hpp"
#include "automata/stg.hpp"
#include "gen/mutate.hpp"
#include "net/blif.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace leq {

namespace {

/// Machines beyond this many explicit states skip the state pass.
constexpr std::size_t state_pass_max_states = 64;
/// Safety valve on accepted reductions (the loop is finite anyway: every
/// acceptance strictly removes structure).
constexpr std::size_t max_accepted = 512;
/// The explicit-state count reported for the shrunk machines stops here.
constexpr std::size_t reported_max_states = 1024;

/// Predicate wrapper: an exception while building/solving a candidate means
/// the candidate is not a smaller instance of the same failure.
bool still_fails(const shrink_predicate& pred,
                 const shrink_instance_desc& desc, std::size_t& runs) {
    ++runs;
    try {
        return pred(desc);
    } catch (const std::exception&) {
        return false;
    }
}

// ---- netlist pass ---------------------------------------------------------

/// One candidate reduction of the instance.  Enumeration order is the
/// priority order: state-carrying structure first.
struct move {
    enum class kind : std::uint8_t {
        spec_latch,   ///< tie spec latch to reset
        fixed_latch,  ///< tie fixed latch to reset
        u_output,     ///< drop one u output of F
        v_input,      ///< tie one v input of F to 0
        shared_output,///< drop o_j from both machines
        shared_input, ///< tie i_k to 0 in both machines
        choice_input, ///< tie one w input of F to 0
    } what;
    std::size_t index;
};

std::vector<move> enumerate_moves(const shrink_instance_desc& d) {
    const std::size_t ni = d.spec.num_inputs();
    const std::size_t no = d.spec.num_outputs();
    const std::size_t nw = d.num_choice_inputs;
    const std::size_t nv = d.fixed.num_inputs() - ni - nw;
    const std::size_t nu = d.fixed.num_outputs() - no;
    std::vector<move> moves;
    for (std::size_t k = 0; k < d.spec.num_latches(); ++k) {
        moves.push_back({move::kind::spec_latch, k});
    }
    for (std::size_t k = 0; k < d.fixed.num_latches(); ++k) {
        moves.push_back({move::kind::fixed_latch, k});
    }
    for (std::size_t m = 0; m < nu; ++m) {
        moves.push_back({move::kind::u_output, m});
    }
    for (std::size_t m = 0; m < nv; ++m) {
        moves.push_back({move::kind::v_input, m});
    }
    for (std::size_t j = 0; j < no; ++j) {
        moves.push_back({move::kind::shared_output, j});
    }
    for (std::size_t k = 0; k < ni; ++k) {
        moves.push_back({move::kind::shared_input, k});
    }
    for (std::size_t k = 0; k < nw; ++k) {
        moves.push_back({move::kind::choice_input, k});
    }
    return moves;
}

shrink_instance_desc apply_move(const shrink_instance_desc& d,
                                const move& m) {
    const std::size_t ni = d.spec.num_inputs();
    const std::size_t no = d.spec.num_outputs();
    const std::size_t nw = d.num_choice_inputs;
    const std::size_t nv = d.fixed.num_inputs() - ni - nw;
    shrink_instance_desc out = d;
    switch (m.what) {
    case move::kind::spec_latch:
        out.spec = tie_latch(d.spec, m.index);
        break;
    case move::kind::fixed_latch:
        out.fixed = tie_latch(d.fixed, m.index);
        break;
    case move::kind::u_output:
        out.fixed = drop_output(d.fixed, no + m.index);
        break;
    case move::kind::v_input:
        out.fixed = tie_input(d.fixed, ni + m.index, false);
        break;
    case move::kind::shared_output:
        out.fixed = drop_output(d.fixed, m.index);
        out.spec = drop_output(d.spec, m.index);
        break;
    case move::kind::shared_input:
        out.fixed = tie_input(d.fixed, m.index, false);
        out.spec = tie_input(d.spec, m.index, false);
        break;
    case move::kind::choice_input:
        out.fixed = tie_input(d.fixed, ni + nv + m.index, false);
        out.num_choice_inputs = nw - 1;
        break;
    }
    return out;
}

// ---- explicit-state pass --------------------------------------------------

struct stg_view {
    bdd_manager mgr;
    std::vector<std::uint32_t> in_vars, out_vars;
    std::vector<std::string> in_names, out_names;
};

automaton network_stg(stg_view& view, const network& net,
                      std::size_t max_states) {
    for (const std::uint32_t s : net.inputs()) {
        view.in_vars.push_back(view.mgr.new_var());
        view.in_names.push_back(net.signal_name(s));
    }
    for (const std::uint32_t s : net.outputs()) {
        view.out_vars.push_back(view.mgr.new_var());
        view.out_names.push_back(net.signal_name(s));
    }
    return network_to_automaton(view.mgr, net, view.in_vars, view.out_vars,
                                max_states);
}

/// Copy `aut` without state `victim`: its out-edges vanish, its in-edges
/// are redirected — to the initial state (`to_source` false) or back to
/// their own source state (`to_source` true; the two variants escape
/// different greedy local minima).  Determinism is preserved — merged
/// redirected edges had disjoint input cubes in the source state.
automaton delete_state(const automaton& aut, std::uint32_t victim,
                       bool to_source) {
    automaton out(aut.manager(), aut.label_vars());
    std::vector<std::uint32_t> remap(aut.num_states());
    for (std::uint32_t q = 0; q < aut.num_states(); ++q) {
        if (q == victim) { continue; }
        remap[q] = out.add_state(aut.accepting(q));
    }
    const std::uint32_t init = remap[aut.initial()];
    for (std::uint32_t q = 0; q < aut.num_states(); ++q) {
        if (q == victim) { continue; }
        for (const transition& t : aut.transitions(q)) {
            const std::uint32_t dest = t.dest == victim
                                           ? (to_source ? remap[q] : init)
                                           : remap[t.dest];
            out.add_transition(remap[q], dest, t.label);
        }
    }
    out.set_initial(init);
    return out;
}

/// Try to delete explicit states of one machine (spec or fixed) while the
/// failure reproduces.  `swap_in` substitutes a candidate machine into the
/// instance.
template <typename swap_fn>
void state_pass_one_machine(shrink_instance_desc& desc, const network& which,
                            const swap_fn& swap_in,
                            const shrink_predicate& pred,
                            shrink_result& result) {
    network current = which;
    bool improved = true;
    while (improved && result.accepted < max_accepted) {
        improved = false;
        stg_view view;
        automaton aut(view.mgr, {});
        try {
            aut = network_stg(view, current, state_pass_max_states);
        } catch (const std::exception&) {
            return; // machine too large for the explicit pass
        }
        for (std::uint32_t s = 0; s < aut.num_states() && !improved; ++s) {
            if (s == aut.initial()) { continue; }
            for (const bool to_source : {false, true}) {
                network candidate_net;
                try {
                    candidate_net = automaton_to_network(
                        delete_state(aut, s, to_source), view.in_vars,
                        view.out_vars, view.in_names, view.out_names,
                        current.name());
                } catch (const std::exception&) {
                    continue;
                }
                shrink_instance_desc candidate = swap_in(desc, candidate_net);
                if (still_fails(pred, candidate, result.predicate_runs)) {
                    desc = std::move(candidate);
                    current = std::move(candidate_net);
                    ++result.accepted;
                    improved = true;
                    break;
                }
            }
        }
    }
}

std::size_t explicit_state_count(const network& net, std::size_t cap) {
    try {
        stg_view view;
        return network_stg(view, net, cap).num_states();
    } catch (const std::exception&) {
        return 0;
    }
}

void netlist_pass(shrink_instance_desc& desc, const shrink_predicate& pred,
                  shrink_result& result) {
    bool progress = true;
    while (progress && result.accepted < max_accepted) {
        progress = false;
        for (const move& m : enumerate_moves(desc)) {
            shrink_instance_desc candidate;
            try {
                candidate = apply_move(desc, m);
            } catch (const std::exception&) {
                continue;
            }
            if (still_fails(pred, candidate, result.predicate_runs)) {
                desc = std::move(candidate);
                ++result.accepted;
                progress = true;
                break;
            }
        }
    }
}

} // namespace

shrink_result shrink_instance(shrink_instance_desc start,
                              const shrink_predicate& still_failing) {
    shrink_result result;
    result.inst = std::move(start);
    if (!still_fails(still_failing, result.inst, result.predicate_runs)) {
        // nothing to shrink: the caller's predicate does not hold at the
        // start — return it untouched rather than "shrinking" a passing
        // instance to nothing
        return result;
    }

    netlist_pass(result.inst, still_failing, result);
    state_pass_one_machine(
        result.inst, result.inst.spec,
        [](const shrink_instance_desc& d, const network& m) {
            shrink_instance_desc out = d;
            out.spec = m;
            return out;
        },
        still_failing, result);
    state_pass_one_machine(
        result.inst, result.inst.fixed,
        [](const shrink_instance_desc& d, const network& m) {
            shrink_instance_desc out = d;
            out.fixed = m;
            return out;
        },
        still_failing, result);
    // the state pass may have freed netlist-level moves (e.g. an input that
    // became irrelevant); one more sweep keeps 1-minimality
    netlist_pass(result.inst, still_failing, result);

    result.spec_states =
        explicit_state_count(result.inst.spec, reported_max_states);
    result.fixed_states =
        explicit_state_count(result.inst.fixed, reported_max_states);
    return result;
}

std::string network_to_kiss(const network& net, std::size_t max_states) {
    stg_view view;
    const automaton aut = network_stg(view, net, max_states);
    return write_kiss_string(aut, view.in_vars, view.out_vars);
}

std::string reproducer_to_string(const reproducer& repro) {
    std::ostringstream out;
    out << "# leq_fuzz reproducer\n"
        << "# family: " << repro.family << "\n"
        << "# seed: " << repro.seed << "\n"
        << "# options: " << repro.option_set << "\n"
        << "# failure: " << repro.failure << "\n"
        << "# choice inputs: " << repro.inst.num_choice_inputs << "\n"
        << "# spec states: " << repro.spec_states
        << ", fixed states: " << repro.fixed_states << "\n";
    out << "# ---- F (BLIF) ----\n" << write_blif_string(repro.inst.fixed);
    out << "# ---- S (BLIF) ----\n" << write_blif_string(repro.inst.spec);
    for (const bool fixed_side : {true, false}) {
        const network& net = fixed_side ? repro.inst.fixed : repro.inst.spec;
        out << "# ---- " << (fixed_side ? "F" : "S") << " (KISS) ----\n";
        try {
            out << network_to_kiss(net);
        } catch (const std::exception& e) {
            out << "# (no KISS rendering: " << e.what() << ")\n";
        }
    }
    return out.str();
}

void write_reproducer(const reproducer& repro, const std::string& stem) {
    const auto spill = [](const std::string& path, const std::string& text) {
        std::ofstream out(path);
        if (!out) {
            throw std::runtime_error("write_reproducer: cannot open " + path);
        }
        out << text;
    };
    spill(stem + ".repro.txt", reproducer_to_string(repro));
    spill(stem + "_f.blif", write_blif_string(repro.inst.fixed));
    spill(stem + "_s.blif", write_blif_string(repro.inst.spec));
    try {
        spill(stem + "_f.kiss", network_to_kiss(repro.inst.fixed));
        spill(stem + "_s.kiss", network_to_kiss(repro.inst.spec));
    } catch (const std::exception&) {
        // KISS requires an enumerable STG; BLIF is always written
    }
}

} // namespace leq
