/// \file minimize.cpp
/// \brief DFA minimization by partition refinement over BDD-labelled edges.

#include "automata/automaton.hpp"

#include <map>
#include <stdexcept>
#include <utility>

namespace leq {

automaton minimize(const automaton& input) {
    if (!is_deterministic(input)) {
        throw std::logic_error("minimize: automaton must be deterministic");
    }
    const automaton a = trim_unreachable(input);
    bdd_manager& mgr = a.manager();
    const std::size_t n = a.num_states();

    // initial partition: accepting vs non-accepting
    std::vector<std::uint32_t> block(n);
    for (std::uint32_t s = 0; s < n; ++s) {
        block[s] = a.accepting(s) ? 0 : 1;
    }

    // refine: the signature of a state is, per current block, the union of
    // guards leading to it (plus the implicit "undefined" region); states in
    // the same block with different signatures split.  Iterate until the
    // canonical (first-occurrence-numbered) partition is stable.
    std::uint32_t num_blocks = 0;
    while (true) {
        // signature: sorted (block, guard BDD index) pairs; an index names
        // its guard only while held, so `keyed` holds each for the round
        std::map<std::pair<std::uint32_t, std::vector<std::pair<std::uint32_t, std::uint32_t>>>,
                 std::uint32_t>
            classes;
        std::vector<bdd> keyed;
        std::vector<std::uint32_t> next_block(n);
        std::uint32_t next_count = 0;
        for (std::uint32_t s = 0; s < n; ++s) {
            std::map<std::uint32_t, bdd> guards; // target block -> region
            for (const transition& t : a.transitions(s)) {
                const auto [it, fresh] =
                    guards.emplace(block[t.dest], t.label);
                if (!fresh) { it->second |= t.label; }
            }
            std::vector<std::pair<std::uint32_t, std::uint32_t>> sig;
            sig.reserve(guards.size());
            for (auto& [b, g] : guards) {
                sig.emplace_back(b, g.index()); // canonical: BDD node index
                keyed.push_back(std::move(g));
            }
            const auto key = std::make_pair(block[s], std::move(sig));
            const auto [it, fresh] = classes.emplace(key, next_count);
            if (fresh) { ++next_count; }
            next_block[s] = it->second;
        }
        const bool stable = next_block == block;
        num_blocks = next_count;
        block = std::move(next_block);
        if (stable) { break; }
    }

    automaton result(mgr, a.label_vars());
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
        result.add_state(false);
    }
    for (std::uint32_t s = 0; s < n; ++s) {
        result.set_accepting(block[s], a.accepting(s));
    }
    result.set_initial(block[a.initial()]);
    std::vector<bool> done(num_blocks, false);
    for (std::uint32_t s = 0; s < n; ++s) {
        if (done[block[s]]) { continue; } // one representative per block
        done[block[s]] = true;
        for (const transition& t : a.transitions(s)) {
            result.add_transition(block[s], block[t.dest], t.label);
        }
    }
    return trim_unreachable(result);
}

} // namespace leq
