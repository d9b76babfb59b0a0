#include "common/ini.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace aurora {
namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

std::string strip_comment(const std::string& s) {
  const auto pos = s.find_first_of(";#");
  return pos == std::string::npos ? s : s.substr(0, pos);
}

}  // namespace

IniFile IniFile::parse(std::istream& in, const std::string& source) {
  IniFile ini;
  ini.source_ = source;
  std::string line;
  std::string section;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& msg) {
    throw Error(ini.at(line_no) + msg);
  };
  while (std::getline(in, line)) {
    ++line_no;
    const std::string body = trim(strip_comment(line));
    if (body.empty()) continue;
    if (body.front() == '[') {
      if (body.back() != ']') fail("unterminated section header");
      section = trim(body.substr(1, body.size() - 2));
      if (section.empty()) fail("empty section");
      ini.sections_.try_emplace(section, Section{line_no, {}});
      continue;
    }
    const auto eq = body.find('=');
    if (eq == std::string::npos) fail("expected key = value: '" + body + "'");
    const std::string key = trim(body.substr(0, eq));
    if (key.empty()) fail("empty key");
    auto& keys = ini.sections_.try_emplace(section, Section{line_no, {}})
                     .first->second.keys;
    const auto [it, inserted] =
        keys.try_emplace(key, Entry{trim(body.substr(eq + 1)), line_no});
    if (!inserted) {
      fail("[" + section + "] " + key + ": duplicate key (first set at line " +
           std::to_string(it->second.line) + ")");
    }
  }
  return ini;
}

IniFile IniFile::load(const std::string& path) {
  std::ifstream in(path);
  AURORA_CHECK_MSG(in.is_open(), "cannot open config file: " << path);
  return parse(in, path);
}

std::string IniFile::at(std::size_t line) const {
  return source_ + ":" + std::to_string(line) + ": ";
}

const IniFile::Entry* IniFile::find(const std::string& section,
                                    const std::string& key) const {
  const auto sit = sections_.find(section);
  if (sit == sections_.end()) return nullptr;
  sit->second.read = true;
  const auto kit = sit->second.keys.find(key);
  if (kit == sit->second.keys.end()) return nullptr;
  kit->second.read = true;
  return &kit->second;
}

bool IniFile::has(const std::string& section, const std::string& key) const {
  const auto sit = sections_.find(section);
  return sit != sections_.end() && sit->second.keys.count(key) > 0;
}

std::string IniFile::where(const std::string& section,
                           const std::string& key) const {
  const std::size_t line =
      has(section, key) ? sections_.at(section).keys.at(key).line : 0;
  return at(line) + "[" + section + "] " + key;
}

std::string IniFile::get_string(const std::string& section,
                                const std::string& key,
                                const std::string& fallback) const {
  const Entry* entry = find(section, key);
  return entry == nullptr ? fallback : entry->value;
}

std::uint32_t IniFile::get_uint(const std::string& section,
                                const std::string& key, std::uint32_t fallback,
                                std::uint32_t min, std::uint32_t max) const {
  const Entry* e = find(section, key);
  return e == nullptr ? fallback
                      : parse_uint(e->value,
                                   where(section, key) + " = " + e->value, min,
                                   max);
}

double IniFile::get_double(const std::string& section, const std::string& key,
                           double fallback) const {
  const Entry* e = find(section, key);
  return e == nullptr ? fallback
                      : parse_double(e->value,
                                     where(section, key) + " = " + e->value);
}

bool IniFile::get_bool(const std::string& section, const std::string& key,
                       bool fallback) const {
  const Entry* e = find(section, key);
  return e == nullptr
             ? fallback
             : parse_bool(e->value, where(section, key) + " = " + e->value);
}

void IniFile::reject_unread() const {
  for (const auto& [name, section] : sections_) {
    const std::string problem =
        section.read ? ": unknown key" : ": unknown section";
    if (section.keys.empty() && !section.read) {
      throw Error(at(section.line) + "[" + name + "]" + problem);
    }
    for (const auto& [key, entry] : section.keys) {
      if (!entry.read) {
        throw Error(at(entry.line) + "[" + name + "] " + key + problem);
      }
    }
  }
}

}  // namespace aurora
