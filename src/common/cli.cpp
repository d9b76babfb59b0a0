#include "common/cli.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"

namespace aurora {

int guarded_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

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
  msg += known.size() == 0 ? "; this program takes no flags"
                           : "; accepted flags:";
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

void CliArgs::reject_unread(const std::string& path) const {
  std::string unread;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) unread += " --" + name;
  }
  if (!unread.empty()) throw Error(path + " does not use" + unread);
}

const std::string* CliArgs::value(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const std::string* text = value(name);
  return text == nullptr ? fallback : *text;
}

double CliArgs::get_double(const std::string& name, double fallback,
                           double min, double max) const {
  const std::string* text = value(name);
  if (text == nullptr) {
    AURORA_CHECK_MSG(fallback >= min && fallback <= max,
                     "--" << name << " default " << fallback
                          << " outside [" << min << ", " << max << "]");
    return fallback;
  }
  return parse_double(*text, "--" + name + "=" + *text, min, max);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const std::string* text = value(name);
  return text == nullptr ? fallback
                         : parse_bool(*text, "--" + name + "=" + *text);
}

std::uint32_t CliArgs::get_uint(const std::string& name,
                                std::uint32_t fallback, std::uint32_t min,
                                std::uint32_t max) const {
  const std::string* text = value(name);
  if (text == nullptr) {
    AURORA_CHECK_MSG(fallback >= min && fallback <= max,
                     "--" << name << " default " << fallback
                          << " outside [" << min << ", " << max << "]");
    return fallback;
  }
  return parse_uint(*text, "--" + name + "=" + *text, min, max);
}

}  // namespace aurora
