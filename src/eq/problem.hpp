/// \file problem.hpp
/// \brief A language-equation instance F . X <= S in partitioned form.
///
/// Holds the BDD manager, the variable groups of the Figure-1 topology
/// (external inputs i, external outputs o, X's inputs u, X's outputs v,
/// current/next state variables of F and S) and the partitioned functions
/// swept from the two networks:
///
///   F:  {T^F_j(i,v,cs_F)}  latch next-states
///       {U_m(i,v,cs_F)}    the u outputs (X's inputs)
///       {O^F_j(i,v,cs_F)}  the o outputs
///   S:  {T^S_k(i,cs_S)}, {O^S_j(i,cs_S)}
///
/// The variable order is fixed at construction and is load-bearing: the
/// (u,v) block sits on top so the subset construction can read the
/// (u,v)-cofactor classes of an image straight off the BDD structure; o sits
/// below i (used only by the monolithic flow); each latch's cs/ns pair is
/// interleaved; the completion bit for S (monolithic flow only) comes last.
#pragma once

#include "bdd/bdd.hpp"
#include "net/network.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace leq {

class equation_problem {
public:
    /// Build the instance.  `fixed` is F with inputs (i..., v..., w...) and
    /// outputs (o..., u...): the first inputs/outputs match `spec`'s by
    /// name (as produced by split_latches); then come the v inputs and u
    /// outputs of the unknown.  `spec` is S.
    ///
    /// The trailing `num_choice_inputs` inputs w are *choice* (oracle)
    /// inputs: they are hidden from every alphabet and existentially
    /// quantified wherever i is, which makes F's partitioned parts
    /// non-deterministic relations T_k(i,v,cs,ns_k) = exists_w [ns_k ==
    /// T_k(i,v,w,cs)] — the paper's footnote-2 generalization.  (Relations
    /// represented this way are total: a network always produces some next
    /// state.  Partial behaviour is the completion machinery's job.)
    equation_problem(const network& fixed, const network& spec,
                     std::size_t num_choice_inputs = 0);

    equation_problem(const equation_problem&) = delete;
    equation_problem& operator=(const equation_problem&) = delete;

    [[nodiscard]] bdd_manager& mgr() const { return *mgr_; }

private:
    // declared before every bdd member: handles must release their external
    // references while the manager is still alive (members are destroyed in
    // reverse declaration order)
    std::unique_ptr<bdd_manager> mgr_;

public:

    // variable groups (ids)
    std::vector<std::uint32_t> u_vars, v_vars, i_vars, o_vars;
    std::vector<std::uint32_t> w_vars; ///< F's choice inputs (footnote 2)
    std::vector<std::uint32_t> cs_f, ns_f, cs_s, ns_s;
    std::uint32_t dc_cs = 0, dc_ns = 0; ///< S-completion bit (monolithic)

    // partitioned functions
    std::vector<bdd> f_next; ///< T^F_j(i, v, cs_f)
    std::vector<bdd> f_u;    ///< U_m(i, v, cs_f)
    std::vector<bdd> f_o;    ///< O^F_j(i, v, cs_f)
    std::vector<bdd> s_next; ///< T^S_k(i, cs_s)
    std::vector<bdd> s_o;    ///< O^S_j(i, cs_s)

    std::vector<bool> f_init, s_init;

    /// First level strictly below the (u,v) block.
    [[nodiscard]] std::uint32_t uv_boundary_level() const {
        return static_cast<std::uint32_t>(u_vars.size() + v_vars.size());
    }

    /// The variables hidden from every automaton alphabet and quantified in
    /// every image: the external inputs i plus F's choice inputs w.
    [[nodiscard]] std::vector<std::uint32_t> hidden_input_vars() const {
        std::vector<std::uint32_t> vars = i_vars;
        vars.insert(vars.end(), w_vars.begin(), w_vars.end());
        return vars;
    }

    /// Initial subset state: the cube (cs_f = f_init) & (cs_s = s_init).
    [[nodiscard]] bdd initial_product_state() const;

    /// Permutation swapping every cs/ns pair (used to rename an image over
    /// next-state variables back to current-state variables).
    [[nodiscard]] std::vector<std::uint32_t> ns_to_cs_permutation() const;

    /// Permutation swapping every u/v pair (an X_P step renames the enabled
    /// u values into the successor state's v bits; see verify.cpp).
    [[nodiscard]] std::vector<std::uint32_t> uv_swap_permutation() const;

    /// Per-output conformance condition C_j = [O^F_j == O^S_j] (paper,
    /// Section 3.2); over (i, v, cs_f, cs_s).
    [[nodiscard]] bdd conformance(std::size_t output) const;

    /// All next-state variables of the product (ns_f then ns_s).
    [[nodiscard]] std::vector<std::uint32_t> all_ns_vars() const;
};

} // namespace leq
