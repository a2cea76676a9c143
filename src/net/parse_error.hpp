/// \file parse_error.hpp
/// \brief The exception the text readers (BLIF, KISS2) throw on malformed
/// input, carrying the line apart from the message so a caller can name
/// the file the text came from.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

namespace leq {

/// Malformed input text.  `what()` reads "<origin>:<line>: <message>", or
/// "<origin>: <message>" when no line applies (line 0).  The readers name
/// their format as the origin ("blif:4: ..."); `in(path)` re-attributes the
/// error to the file the text was read from.
class parse_error : public std::runtime_error {
public:
    parse_error(const std::string& origin, std::size_t line,
                std::string message)
        : std::runtime_error(
              origin +
              (line != 0 ? ":" + std::to_string(line) : std::string()) +
              ": " + message),
          line_(line), message_(std::move(message)) {}

    [[nodiscard]] std::size_t line() const { return line_; }
    [[nodiscard]] const std::string& message() const { return message_; }

    /// The same error, attributed to `origin` (typically a file path).
    [[nodiscard]] parse_error in(const std::string& origin) const {
        return {origin, line_, message_};
    }

private:
    std::size_t line_;
    std::string message_;
};

} // namespace leq
