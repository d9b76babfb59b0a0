// Minimal INI parsing for accelerator configuration files.
//
//   [section]
//   key = value      ; or # starts a comment
//
// Values are strings; the typed getters convert on demand with the strict
// parse_* rules that CLI flags use (common/strings.hpp). Every error names
// the source, the line and `[section] key`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace aurora {

class IniFile {
 public:
  /// Parse from a stream; throws on malformed lines and duplicate keys.
  /// `source` names the input in errors (load() passes the path).
  static IniFile parse(std::istream& in, const std::string& source = "<ini>");
  static IniFile load(const std::string& path);

  [[nodiscard]] bool has(const std::string& section,
                         const std::string& key) const;
  [[nodiscard]] std::string get_string(const std::string& section,
                                       const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] std::uint32_t get_uint(
      const std::string& section, const std::string& key,
      std::uint32_t fallback, std::uint32_t min = 0,
      std::uint32_t max = UINT32_MAX) const;
  [[nodiscard]] double get_double(const std::string& section,
                                  const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& section,
                              const std::string& key, bool fallback) const;

  /// "<source>:<line>: [section] key" for error messages about a value.
  [[nodiscard]] std::string where(const std::string& section,
                                  const std::string& key) const;

  /// Throws Error for a key no getter read: an unknown section when no
  /// getter asked about its section, else an unknown key. A reader that
  /// gets every key it knows and then calls this rejects misspellings.
  void reject_unread() const;

  [[nodiscard]] std::size_t num_sections() const { return sections_.size(); }

 private:
  struct Entry {
    std::string value;
    std::size_t line = 0;
    mutable bool read = false;
  };
  struct Section {
    std::size_t line = 0;
    std::map<std::string, Entry> keys;
    mutable bool read = false;
  };

  /// The key's entry, or nullptr when absent; marks it (and its section)
  /// read.
  [[nodiscard]] const Entry* find(const std::string& section,
                                  const std::string& key) const;
  /// "<source>:<line>: ", the prefix of every error.
  [[nodiscard]] std::string at(std::size_t line) const;

  std::string source_;
  std::map<std::string, Section> sections_;
};

}  // namespace aurora
