// Minimal INI reader for scenario files. Deliberately tiny and
// dependency-free: sections in brackets, `key = value` pairs, `#` or `;`
// comments (whole-line or trailing), no quoting or escapes. Section and
// key order is preserved so error messages and sweeps can reference the
// file the user wrote.
#ifndef UNICC_SCENARIO_INI_H_
#define UNICC_SCENARIO_INI_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace unicc {

struct IniEntry {
  std::string key;
  std::string value;
  int line = 0;  // 1-based line in the source text, for diagnostics
  // Set by IniFile::Set: the value is an override, not the file's.
  bool overridden = false;
};

struct IniSection {
  std::string name;
  int line = 0;
  std::vector<IniEntry> entries;

  // Last value for `key`, or nullptr when absent.
  const IniEntry* Find(const std::string& key) const;
};

class IniFile {
 public:
  // Parses `text`. Rejects entries before the first section header,
  // unterminated headers, empty keys and lines without '='.
  static StatusOr<IniFile> Parse(const std::string& text);
  static StatusOr<IniFile> ReadFile(const std::string& path);

  const std::vector<IniSection>& sections() const { return sections_; }

  // First section with this exact name, or nullptr.
  const IniSection* Find(const std::string& name) const;

  // Sets `key` in the first section named `section` (appending the entry,
  // or overwriting the first existing one); creates the section when
  // missing. The entry is marked overridden. Used to apply unicc_sim --set
  // and sweep_runner --sweep overrides to a scenario file.
  void Set(const std::string& section, const std::string& key,
           const std::string& value);

 private:
  std::vector<IniSection> sections_;
};

// One `SECTION.KEY=VALUE` override. SECTION may contain spaces and dots:
// KEY is what follows the last '.' before the first '=', and VALUE (which
// may contain '=') is everything after that '='.
struct IniOverride {
  std::string section;
  std::string key;
  std::string value;
};

// Splits `text` into *out; false when it has no '=', no '.' before the
// '=', or an empty SECTION or KEY.
bool ParseIniOverride(const std::string& text, IniOverride* out);

}  // namespace unicc

#endif  // UNICC_SCENARIO_INI_H_
