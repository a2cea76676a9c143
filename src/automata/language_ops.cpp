/// \file language_ops.cpp
/// \brief Derived language operations: the prefix-closure test and random
/// word sampling, layered on the elementary operations of automaton.cpp.

#include "automata/automaton.hpp"

#include <algorithm>
#include <queue>
#include <random>
#include <set>

namespace leq {

namespace {

/// One satisfying assignment of `label` over the listed variables;
/// don't-care positions default to false.
std::vector<bool> pick_letter(bdd_manager& mgr, const bdd& label,
                              const std::vector<std::uint32_t>& vars) {
    const bdd cube = mgr.pick_cube(label);
    // decode the cube: walk it once per variable (cube is a single path)
    std::size_t max_var = 0;
    for (const std::uint32_t v : vars) {
        max_var = std::max<std::size_t>(max_var, v);
    }
    std::vector<bool> letter(max_var + 1, false);
    bdd walk = cube;
    while (!walk.is_const()) {
        const std::uint32_t v = walk.top_var();
        if (walk.low().is_zero()) {
            letter[v] = true;
            walk = walk.high();
        } else {
            letter[v] = false;
            walk = walk.low();
        }
    }
    return letter;
}

} // namespace

bool is_prefix_closed(const automaton& a) {
    // Over the trimmed automaton: the language is prefix-closed iff every
    // state from which an accepting state is reachable is itself accepting.
    // (Any run prefix ends in such a state; its word must be accepted, and
    // for non-deterministic automata some accepting run witnesses it —
    // determinize first so runs and words coincide.)
    const automaton d = trim_unreachable(determinize(a));
    if (language_empty(d)) { return true; } // empty language: vacuously closed
    // backward closure of the accepting set
    std::vector<std::vector<std::uint32_t>> preds(d.num_states());
    for (std::uint32_t s = 0; s < d.num_states(); ++s) {
        for (const transition& t : d.transitions(s)) {
            preds[t.dest].push_back(s);
        }
    }
    std::vector<bool> can_reach(d.num_states(), false);
    std::queue<std::uint32_t> queue;
    for (std::uint32_t s = 0; s < d.num_states(); ++s) {
        if (d.accepting(s)) {
            can_reach[s] = true;
            queue.push(s);
        }
    }
    while (!queue.empty()) {
        const std::uint32_t s = queue.front();
        queue.pop();
        for (const std::uint32_t p : preds[s]) {
            if (!can_reach[p]) {
                can_reach[p] = true;
                queue.push(p);
            }
        }
    }
    for (std::uint32_t s = 0; s < d.num_states(); ++s) {
        if (can_reach[s] && !d.accepting(s)) { return false; }
    }
    return true;
}

std::vector<word> sample_accepted_words(const automaton& a, std::size_t count,
                                        std::size_t max_len,
                                        std::uint32_t seed) {
    bdd_manager& mgr = a.manager();
    std::mt19937 rng(seed);
    std::set<word> found;
    // each attempt: random walk from the initial state, recording the word
    // whenever the current state subset contains an accepting state
    const std::size_t attempts = count * 8 + 16;
    for (std::size_t k = 0; k < attempts && found.size() < count; ++k) {
        std::uint32_t s = a.initial();
        word w;
        if (a.accepting(s)) { found.insert(w); }
        for (std::size_t step = 0; step < max_len; ++step) {
            const auto& ts = a.transitions(s);
            std::vector<const transition*> enabled;
            for (const transition& t : ts) {
                if (!t.label.is_zero()) { enabled.push_back(&t); }
            }
            if (enabled.empty()) { break; }
            const transition* t =
                enabled[std::uniform_int_distribution<std::size_t>(
                    0, enabled.size() - 1)(rng)];
            w.push_back(pick_letter(mgr, t->label, a.label_vars()));
            s = t->dest;
            if (a.accepting(s)) { found.insert(w); }
        }
    }
    return {found.begin(), found.end()};
}

} // namespace leq
