// Small string/formatting helpers shared by benches and reports, and the
// strict value parsing shared by CLI flags and INI keys.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace aurora {

/// Format `x` with `digits` decimal places.
std::string to_fixed(double x, int digits);

/// "12.3 KB" / "4.56 GB" style humanisation of a byte count.
std::string human_bytes(std::uint64_t bytes);

/// "1.23 M" / "45.6 K" humanisation of a plain count.
std::string human_count(double value);

/// Multiply suffix padding: pad `s` on the right to `width` columns.
std::string pad_right(const std::string& s, std::size_t width);

/// Pad `s` on the left to `width` columns.
std::string pad_left(const std::string& s, std::size_t width);

/// `s` as the body of a JSON string: `"` and `\` are backslash-escaped and
/// control characters become `\u00XX`; everything else, `/` included, is
/// kept as is.
[[nodiscard]] std::string json_escape(const std::string& s);

// Strict value parsing: the whole text must be the value. Each throws Error
// naming `what`, which says where the text came from (`--chips=-1`,
// `chip.ini:3: [chip] array_dim = 16x`).

/// Decimal digits only (no sign, whitespace or trailing characters), within
/// [min, max].
[[nodiscard]] std::uint32_t parse_uint(const std::string& text,
                                       const std::string& what,
                                       std::uint32_t min = 0,
                                       std::uint32_t max = UINT32_MAX);
/// A finite number within [min, max] (`1.5x`, `nan` and `inf` fail).
[[nodiscard]] double parse_double(
    const std::string& text, const std::string& what,
    double min = std::numeric_limits<double>::lowest(),
    double max = std::numeric_limits<double>::max());
/// `true|1|yes` or `false|0|no`; anything else (`on`, `ture`) fails.
[[nodiscard]] bool parse_bool(const std::string& text, const std::string& what);

}  // namespace aurora
