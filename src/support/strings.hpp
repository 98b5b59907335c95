// Small string utilities shared across the library.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hcg {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Splits on `separator`, trimming each piece; empty pieces are kept.
std::vector<std::string> split(std::string_view text, char separator);

/// Splits on any amount of ASCII whitespace; empty pieces are dropped.
std::vector<std::string> split_whitespace(std::string_view text);

/// True if `text` begins with / ends with the given prefix or suffix.
bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Joins `pieces` with `separator` between elements.
std::string join(const std::vector<std::string>& pieces,
                 std::string_view separator);

/// Replaces every occurrence of `from` with `to`.
std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to);

/// Lower-cases ASCII letters.
std::string to_lower(std::string_view text);

/// Parses a decimal integer; throws hcg::ParseError on garbage.
long long parse_int(std::string_view text);

/// Parses a floating point number; throws hcg::ParseError on garbage.
double parse_double(std::string_view text);

/// True if `name` is a valid C identifier.
bool is_identifier(std::string_view name);

/// Mangles an arbitrary string into a valid C identifier (non-alphanumeric
/// characters become '_', a leading digit gets an extra '_' prefix).
std::string sanitize_identifier(std::string_view name);

}  // namespace hcg
