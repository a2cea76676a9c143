/// \file blif.hpp
/// \brief BLIF reader/writer for sequential networks.
///
/// Supports the subset used by the MCNC/ISCAS89 benchmark suite: .model,
/// .inputs, .outputs, .names (SOP covers), .latch (with optional init
/// value), '\' line continuation and '#' comments.  The closing .end is
/// required, so a file cut at a line boundary is an error rather than a
/// smaller network.
#pragma once

#include "net/network.hpp"

#include <iosfwd>
#include <string>

namespace leq {

/// Parse a BLIF description.  Throws parse_error (net/parse_error.hpp),
/// with a line number where one applies, on malformed input.
[[nodiscard]] network read_blif(std::istream& in);
[[nodiscard]] network read_blif_string(const std::string& text);
[[nodiscard]] network read_blif_file(const std::string& path);

/// Serialize a network to BLIF.
void write_blif(const network& net, std::ostream& out);
[[nodiscard]] std::string write_blif_string(const network& net);

} // namespace leq
