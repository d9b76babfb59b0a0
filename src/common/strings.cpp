#include "common/strings.hpp"

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace aurora {

std::string to_fixed(double x, int digits) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", digits, x);
  return buf.data();
}

std::string human_bytes(std::uint64_t bytes) {
  static constexpr std::array<const char*, 5> kUnits = {"B", "KB", "MB", "GB",
                                                        "TB"};
  double v = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (v >= 1024.0 && unit + 1 < kUnits.size()) {
    v /= 1024.0;
    ++unit;
  }
  const int digits = unit == 0 ? 0 : (v < 10 ? 2 : 1);
  return to_fixed(v, digits) + " " + kUnits[unit];
}

std::string human_count(double value) {
  static constexpr std::array<const char*, 4> kUnits = {"", " K", " M", " G"};
  double v = value;
  std::size_t unit = 0;
  while (v >= 1000.0 && unit + 1 < kUnits.size()) {
    v /= 1000.0;
    ++unit;
  }
  return to_fixed(v, v < 10 ? 2 : 1) + kUnits[unit];
}

std::string pad_right(const std::string& s, std::size_t width) {
  return s.size() >= width ? s : s + std::string(width - s.size(), ' ');
}

std::string pad_left(const std::string& s, std::size_t width) {
  return s.size() >= width ? s : std::string(width - s.size(), ' ') + s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::array<char, 8> buf{};
      std::snprintf(buf.data(), buf.size(), "\\u%04x",
                    static_cast<unsigned>(c));
      out += buf.data();
    } else {
      out += c;
    }
  }
  return out;
}

std::uint32_t parse_uint(const std::string& text, const std::string& what,
                         std::uint32_t min, std::uint32_t max) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw Error(what + " is not an unsigned integer");
  }
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0 || parsed < min || parsed > max) {
    throw Error(what + " outside [" + std::to_string(min) + ", " +
                std::to_string(max) + "]");
  }
  return static_cast<std::uint32_t>(parsed);
}

double parse_double(const std::string& text, const std::string& what,
                    double min, double max) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno != 0) {
    throw Error(what + " is not a number");
  }
  if (!std::isfinite(parsed)) throw Error(what + " must be finite");
  if (parsed < min || parsed > max) {
    std::ostringstream os;
    os << what << " outside [" << min << ", " << max << "]";
    throw Error(os.str());
  }
  return parsed;
}

bool parse_bool(const std::string& text, const std::string& what) {
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  throw Error(what +
              " is not a boolean (accepted: true, false, 1, 0, yes, no)");
}

}  // namespace aurora
