#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace moteur {

/// Split on a single-character delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Join with a separator string.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strip leading and trailing ASCII whitespace.
std::string trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Render seconds as "Hh MMm SSs" (e.g. 9132 -> "2h 32m 12s").
std::string format_duration(double seconds);

/// Fixed-point formatting with the given number of decimals.
std::string format_fixed(double value, int decimals);

/// Integers without a fraction, the rest with ten significant digits, so the
/// text is stable across platforms.
std::string format_number(double value);

/// `text` escaped for the inside of a JSON string: quote, backslash and
/// control characters.
std::string json_escape(std::string_view text);

/// A JSON number in fixed point with six decimals; NaN and infinities print
/// as 0.
std::string json_number(double value);

/// Left/right pad with spaces to the given width (no truncation).
std::string pad_left(const std::string& s, std::size_t width);
std::string pad_right(const std::string& s, std::size_t width);

}  // namespace moteur
