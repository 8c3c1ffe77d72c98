// Command-line flags shared by unicc_sim and sweep_runner, all written
// `--name=VALUE`. A numeric VALUE must parse strictly (common/parse.h);
// anything else names the flag on stderr and exits 2, so a typo never
// runs as 0.
#ifndef UNICC_TOOLS_FLAGS_H_
#define UNICC_TOOLS_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/parse.h"
#include "common/types.h"

namespace unicc::flags {

// True when `arg` is `name=VALUE`; stores VALUE in *out.
inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

[[noreturn]] inline void BadFlag(const char* name, const std::string& value,
                                 const char* expected) {
  std::fprintf(stderr, "bad %s '%s' (expected %s)\n", name, value.c_str(),
               expected);
  std::exit(2);
}

// ParseFlag for a number; a value ParseNumber rejects is fatal.
template <typename T>
bool ParseNumberFlag(const char* arg, const char* name, T* out) {
  std::string v;
  if (!ParseFlag(arg, name, &v)) return false;
  if (!ParseNumber(v, out)) {
    BadFlag(name, v,
            std::is_floating_point_v<T> ? "a finite number"
                                        : "an unsigned integer in range");
  }
  return true;
}

// ParseFlag for milliseconds, stored as a simulated Duration.
inline bool ParseMsFlag(const char* arg, const char* name, Duration* out) {
  std::string v;
  if (!ParseFlag(arg, name, &v)) return false;
  if (!ParseMillis(v, out)) {
    BadFlag(name, v, "milliseconds >= 0 within the simulated-time range");
  }
  return true;
}

}  // namespace unicc::flags

#endif  // UNICC_TOOLS_FLAGS_H_
