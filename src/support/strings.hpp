// Small string utilities shared by the frontend, code generators and tools.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace amsvp::support {

/// Remove leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Split on a separator character; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text, char separator);

/// Lower-case an ASCII string.
[[nodiscard]] std::string to_lower(std::string_view text);

/// Format a double the way our code generators print literals: shortest
/// round-trippable representation (e.g. "0.001", "5e-08").
[[nodiscard]] std::string format_double(double value);

}  // namespace amsvp::support
