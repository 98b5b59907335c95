// Small string utilities shared across the library.
#pragma once

#include <functional>
#include <map>
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

/// Replaces occurrences of the identifier `from` with `to`, but only where
/// `from` is not part of a longer identifier (C token boundaries on both
/// sides), so renaming `buf1` leaves `buf10` and `sig_buf1` untouched.
std::string replace_identifier(std::string_view text, std::string_view from,
                               std::string_view to);

/// Renames in place every whole identifier token of `text` found in
/// `renames`, in one walk; returns whether anything changed.  Token
/// boundaries are those of replace_identifier(), and the renames apply
/// simultaneously, so a target name is never renamed again.
bool replace_identifiers(
    std::string& text,
    const std::map<std::string, std::string, std::less<>>& renames);

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
