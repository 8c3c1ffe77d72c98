#include "scenario/ini.h"

#include <fstream>
#include <sstream>

namespace unicc {

namespace {

// Strips leading/trailing whitespace.
std::string Trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// Removes a trailing comment. Comments start at '#' or ';' at the start of
// the line or preceded by whitespace (so values may contain '#' mid-word).
std::string StripComment(const std::string& s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if ((s[i] == '#' || s[i] == ';') &&
        (i == 0 || s[i - 1] == ' ' || s[i - 1] == '\t')) {
      return s.substr(0, i);
    }
  }
  return s;
}

Status ParseError(int line, const std::string& what) {
  return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                 what);
}

}  // namespace

const IniEntry* IniSection::Find(const std::string& key) const {
  const IniEntry* found = nullptr;
  for (const IniEntry& e : entries) {
    if (e.key == key) found = &e;
  }
  return found;
}

StatusOr<IniFile> IniFile::Parse(const std::string& text) {
  IniFile ini;
  std::istringstream lines(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(lines, raw)) {
    ++lineno;
    const std::string line = Trim(StripComment(raw));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        return ParseError(lineno, "unterminated section header");
      }
      IniSection section;
      section.name = Trim(line.substr(1, line.size() - 2));
      section.line = lineno;
      if (section.name.empty()) {
        return ParseError(lineno, "empty section name");
      }
      ini.sections_.push_back(std::move(section));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return ParseError(lineno, "expected 'key = value' or '[section]'");
    }
    IniEntry entry;
    entry.key = Trim(line.substr(0, eq));
    entry.value = Trim(line.substr(eq + 1));
    entry.line = lineno;
    if (entry.key.empty()) return ParseError(lineno, "empty key");
    if (ini.sections_.empty()) {
      return ParseError(lineno, "entry before any [section]");
    }
    ini.sections_.back().entries.push_back(std::move(entry));
  }
  return ini;
}

StatusOr<IniFile> IniFile::ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str());
}

const IniSection* IniFile::Find(const std::string& name) const {
  for (const IniSection& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void IniFile::Set(const std::string& section, const std::string& key,
                  const std::string& value) {
  for (IniSection& s : sections_) {
    if (s.name != section) continue;
    for (IniEntry& e : s.entries) {
      if (e.key == key) {
        e.value = value;
        e.overridden = true;
        return;
      }
    }
    s.entries.push_back({key, value, 0, true});
    return;
  }
  IniSection fresh;
  fresh.name = section;
  fresh.entries.push_back({key, value, 0, true});
  sections_.push_back(std::move(fresh));
}

bool ParseIniOverride(const std::string& text, IniOverride* out) {
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos) return false;
  const std::size_t dot = text.rfind('.', eq);
  if (dot == std::string::npos || dot == 0 || dot + 1 == eq) return false;
  out->section = text.substr(0, dot);
  out->key = text.substr(dot + 1, eq - dot - 1);
  out->value = text.substr(eq + 1);
  return true;
}

}  // namespace unicc
