// Minimal --key=value command-line parsing for examples and bench binaries,
// and the error guard around their mains.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/strings.hpp"

namespace aurora {

/// Parses flags of the form `--name=value` or boolean `--name`. Positional
/// arguments are rejected: every bench is fully flag-driven so runs are
/// self-describing.
///
/// Mains pass their accepted flag list so a typo (`--critpath-oot=x`)
/// errors with the accepted flags instead of silently no-opping. Values go
/// through the strict parse_* rules of common/strings.hpp, the same rules
/// INI keys follow, and each error names the offending flag.
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
  /// parse_double within [min, max]. The fallback is range-checked too, so
  /// a main cannot ship an out-of-range default.
  [[nodiscard]] double get_double(
      const std::string& name, double fallback,
      double min = std::numeric_limits<double>::lowest(),
      double max = std::numeric_limits<double>::max()) const;
  /// A bare `--name` is true; a value follows parse_bool.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// parse_uint within [min, max]; the fallback is range-checked too.
  [[nodiscard]] std::uint32_t get_uint(const std::string& name,
                                       std::uint32_t fallback,
                                       std::uint32_t min = 0,
                                       std::uint32_t max = UINT32_MAX) const;

  /// Flags present on the command line but absent from `known` (sorted).
  /// Exposed for tests; the checking constructor throws when non-empty.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      std::initializer_list<const char*> known) const;

  /// Throws Error when a flag on the command line was never read by a
  /// get_*: "<path> does not use --faults". A main that picks one of
  /// several paths reads that path's flags, then calls this before running,
  /// so a flag the path ignores fails loudly.
  void reject_unread(const std::string& path) const;

 private:
  /// The flag's value, or nullptr when absent; marks the flag read.
  [[nodiscard]] const std::string* value(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

/// Runs a main's body; an aurora::Error from it (a bad flag, a bad INI
/// key, a failed analysis) becomes `error: <message>` and exit code 1.
/// Every example and bench main wraps its body in it.
int guarded_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace aurora
