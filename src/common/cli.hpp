// Minimal --key=value command-line parsing for examples and bench binaries.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace aurora {

/// Parses flags of the form `--name=value` or boolean `--name`. Positional
/// arguments are rejected: every bench is fully flag-driven so runs are
/// self-describing.
///
/// Mains pass their accepted flag list so a typo (`--critpath-oot=x`)
/// errors with the accepted flags instead of silently no-opping — unknown
/// flags used to be stored and never read.
class CliArgs {
 public:
  /// Parse without a known-flag check (library/test use).
  CliArgs(int argc, const char* const* argv);
  /// Parse and reject any flag not in `known` (throws Error listing the
  /// accepted flags).
  CliArgs(int argc, const char* const* argv,
          std::initializer_list<const char*> known);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// Strict double flag: rejects non-numeric values, trailing garbage
  /// (`--rate=1.5x` used to parse as 1.5), NaN/infinity, and values outside
  /// [min, max]. Throws Error naming the offending flag. The fallback is
  /// range-checked too, so a main cannot ship an out-of-range default.
  [[nodiscard]] double get_double(
      const std::string& name, double fallback,
      double min = std::numeric_limits<double>::lowest(),
      double max = std::numeric_limits<double>::max()) const;
  /// Strict boolean flag: a bare `--name` or `true|1|yes` is true,
  /// `false|0|no` is false; anything else (`--critpath=on`) throws Error
  /// naming the flag, so a typo cannot silently switch a feature off.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// Strict unsigned flag (the parse_uint rules): rejects negatives (which
  /// used to wrap through static_cast<uint32_t>, e.g. `--chips=-1`),
  /// non-numeric values, and values outside [min, max]. Throws Error with
  /// the offending flag.
  [[nodiscard]] std::uint32_t get_uint(const std::string& name,
                                       std::uint32_t fallback,
                                       std::uint32_t min = 0,
                                       std::uint32_t max = UINT32_MAX) const;

  /// Flags present on the command line but absent from `known` (sorted).
  /// Exposed for tests; the checking constructor throws when non-empty.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      std::initializer_list<const char*> known) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Strict unsigned parse behind CliArgs::get_uint, for any unsigned text
/// (e.g. one entry of a comma-separated flag): decimal digits only — no
/// sign, whitespace or trailing characters — within [min, max]. Throws
/// Error naming `what`.
[[nodiscard]] std::uint32_t parse_uint(const std::string& text,
                                       const std::string& what,
                                       std::uint32_t min = 0,
                                       std::uint32_t max = UINT32_MAX);

}  // namespace aurora
