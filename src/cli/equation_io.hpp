/// \file equation_io.hpp
/// \brief Loading an equation instance F . X <= S from files for the CLI.
///
/// The fixed machine F and the specification S each come from a BLIF
/// netlist or a KISS2 state table (see docs/FORMATS.md).  BLIF files are
/// read as-is — F's ports must be (i..., v..., w...) / (o..., u...) with the
/// shared i/o names matching S's, the layout `leq_fuzz` reproducers and
/// `split_last_latches` outputs already have.  KISS files are encoded with
/// the canonical port names (`i<k>`/`z<k>` shared, `xv<k>`/`xu<k>` for the
/// unknown), so a KISS side pairs with a BLIF side only when the BLIF uses
/// those same names.  Widths for a KISS F are inferred from the two headers:
/// everything beyond S's inputs is v (minus any declared choice inputs w),
/// everything beyond S's outputs is u.
#pragma once

#include "net/network.hpp"
#include "net/parse_error.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>

namespace leq {

enum class equation_format { blif, kiss };

/// Detect a file's format: extension first (.blif / .kiss), then content
/// (a `.model` construct means BLIF; KISS has none).
[[nodiscard]] equation_format detect_format(const std::string& path,
                                            const std::string& text);

/// One side of an equation, as text plus its detected format.
struct equation_source {
    std::string path; ///< for error messages; may name an in-memory origin
    std::string text;
    equation_format format = equation_format::kiss;
};

/// Read a file into an `equation_source` (throws std::runtime_error when
/// the file cannot be opened).
[[nodiscard]] equation_source read_equation_source(const std::string& path);

/// Run `parse` over text read from `path`, attributing an input error to
/// that file: the rethrown parse_error reads "<path>:<line>: <message>", or
/// "<path>: <message>" when the error has no line.  Used for every input
/// file of a command, so an error names the side (F, S, --impl) it is in.
template <class Parse>
auto parse_from(const std::string& path, Parse&& parse) -> decltype(parse()) {
    try {
        return parse();
    } catch (const parse_error& e) {
        throw e.in(path);
    } catch (const std::runtime_error& e) {
        throw parse_error(path, 0, e.what());
    } catch (const std::invalid_argument& e) {
        throw parse_error(path, 0, e.what());
    }
}

/// Default record/job label for an F path: the basename without extension
/// and without a trailing `_f` ("examples/eqn/delay_f.blif" → "delay").
/// Shared by the single-run commands and the batch manifest reader so the
/// same pair gets the same name either way.
[[nodiscard]] std::string default_job_name(const std::string& f_path);

/// A loaded instance: two manager-independent networks ready for
/// `equation_problem(fixed, spec, num_choice_inputs)`.  Loading touches no
/// shared state, so distinct instances can be built and solved on distinct
/// threads (the batch mode's shared-nothing contract).
struct loaded_equation {
    network fixed;
    network spec;
    std::size_t num_choice_inputs = 0;
};

/// Build the instance from the two sources.  `num_choice_inputs` declares
/// how many trailing F inputs are footnote-2 choice inputs w.  Throws
/// parse_error naming the source's path on malformed input, and
/// std::invalid_argument on an interface mismatch (F must carry S's
/// inputs/outputs plus v/u/w).
[[nodiscard]] loaded_equation load_equation(const equation_source& fixed,
                                            const equation_source& spec,
                                            std::size_t num_choice_inputs = 0);

/// A generated-instance spec: `gen:FAMILY[:SEED[:SCALE]]` names a fuzz
/// scenario family (gen/scenario.hpp) instead of a file pair; the seed
/// defaults to `test_seed(1)`, so `LEQ_TEST_SEED` pins it the same way it
/// pins the randomized test suites, and the optional scale widens the
/// instance (one extra state bit per doubling — see make_scenario).
[[nodiscard]] bool is_gen_spec(const std::string& token);

/// Materialize a `gen:` spec as two in-memory BLIF sources plus the
/// scenario's choice-input count.  Deterministic for equal
/// (family, seed, scale).  Throws std::runtime_error on an unknown family
/// or malformed spec.
struct generated_pair {
    equation_source fixed;
    equation_source spec;
    std::size_t num_choice_inputs = 0;
};
[[nodiscard]] generated_pair make_gen_pair(const std::string& token);

} // namespace leq
