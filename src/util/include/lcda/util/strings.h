#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lcda::util {

/// Removes ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on a single character delimiter; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Case-insensitive substring search (ASCII fold; other bytes must match
/// exactly).
[[nodiscard]] bool contains_icase(std::string_view haystack, std::string_view needle);

/// Lower-cases ASCII; every other byte is kept as is, whatever the locale.
[[nodiscard]] std::string to_lower(std::string_view s);

/// to_lower into `out`, reusing its storage (for callers that lower text
/// in a loop).
void to_lower(std::string_view s, std::string& out);

/// Parses a decimal integer; nullopt on any trailing garbage.
[[nodiscard]] std::optional<long long> parse_int(std::string_view s);

/// Parses a double; nullopt on any trailing garbage.
[[nodiscard]] std::optional<double> parse_double(std::string_view s);

/// Extracts every decimal integer appearing in `s`, in order.
/// "[ [32, 3], [64,3] ]" -> {32, 3, 64, 3}. Minus signs directly before a
/// digit are honoured. A digit run too long for `long long` saturates at
/// its maximum (its negation for a negative run) instead of overflowing.
[[nodiscard]] std::vector<long long> extract_ints(std::string_view s);

/// The same, into `out` (cleared first), so a caller that scans many
/// fields can reuse one buffer.
void extract_ints(std::string_view s, std::vector<long long>& out);

/// Joins items with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Replaces every occurrence of `from` (non-empty) with `to`.
[[nodiscard]] std::string replace_all(std::string_view s, std::string_view from,
                                      std::string_view to);

/// 16-digit zero-padded lowercase hex of a 64-bit value (no "0x" prefix)
/// — the one formatter behind cache file names and shard checksums, so a
/// writer and an independent verifier can never disagree on the shape.
[[nodiscard]] std::string hex_u64(std::uint64_t value);

}  // namespace lcda::util
