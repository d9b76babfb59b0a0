#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace aurora {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    AURORA_CHECK_MSG(arg.rfind("--", 0) == 0,
                     "unexpected positional argument: " << arg);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg.substr(2)] = "true";
    } else {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::initializer_list<const char*> known)
    : CliArgs(argc, argv) {
  const std::vector<std::string> unknown = unknown_flags(known);
  if (unknown.empty()) return;
  std::string msg = "unknown flag";
  if (unknown.size() > 1) msg += 's';
  for (const std::string& f : unknown) msg += " --" + f;
  msg += "; accepted flags:";
  std::vector<std::string> sorted(known.begin(), known.end());
  std::sort(sorted.begin(), sorted.end());
  for (const std::string& f : sorted) msg += " --" + f;
  throw Error(msg);
}

std::vector<std::string> CliArgs::unknown_flags(
    std::initializer_list<const char*> known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    if (std::find_if(known.begin(), known.end(), [&](const char* k) {
          return name == k;
        }) == known.end()) {
      unknown.push_back(name);
    }
  }
  return unknown;
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double CliArgs::get_double(const std::string& name, double fallback,
                           double min, double max) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    AURORA_CHECK_MSG(fallback >= min && fallback <= max,
                     "--" << name << " default " << fallback
                          << " outside [" << min << ", " << max << "]");
    return fallback;
  }
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  AURORA_CHECK_MSG(end != text.c_str() && *end == '\0' && errno == 0,
                   "--" << name << "=" << text << " is not a number");
  AURORA_CHECK_MSG(std::isfinite(parsed),
                   "--" << name << "=" << text << " must be finite");
  AURORA_CHECK_MSG(parsed >= min && parsed <= max,
                   "--" << name << "=" << text << " outside [" << min << ", "
                        << max << "]");
  return parsed;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  throw Error("--" + name + "=" + text +
              " is not a boolean (accepted: true, false, 1, 0, yes, no)");
}

std::uint32_t CliArgs::get_uint(const std::string& name,
                                std::uint32_t fallback, std::uint32_t min,
                                std::uint32_t max) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    AURORA_CHECK_MSG(fallback >= min && fallback <= max,
                     "--" << name << " default " << fallback
                          << " outside [" << min << ", " << max << "]");
    return fallback;
  }
  return parse_uint(it->second, "--" + name + "=" + it->second, min, max);
}

std::uint32_t parse_uint(const std::string& text, const std::string& what,
                         std::uint32_t min, std::uint32_t max) {
  AURORA_CHECK_MSG(
      !text.empty() && text.find_first_not_of("0123456789") == std::string::npos,
      what << " is not an unsigned integer");
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), nullptr, 10);
  AURORA_CHECK_MSG(errno == 0 && parsed >= min && parsed <= max,
                   what << " outside [" << min << ", " << max << "]");
  return static_cast<std::uint32_t>(parsed);
}

}  // namespace aurora
