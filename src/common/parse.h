// Strict number parsing for outside input: scenario files, text traces and
// command-line flags. The whole string must be the number and the value
// must fit its type, so a typo, a sign, NaN or an overflow is an error
// instead of a silently different value.
#ifndef UNICC_COMMON_PARSE_H_
#define UNICC_COMMON_PARSE_H_

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

#include "common/types.h"

namespace unicc {

// Parses all of `text` as a T: decimal digits only (no sign or space) for
// an unsigned T, with a value that fits T; a finite number for a
// floating-point T. Leaves *out alone and returns false otherwise.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  if (text.empty()) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isspace(static_cast<unsigned char>(text[0]))) return false;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v)) return false;
    *out = static_cast<T>(v);
  } else {
    static_assert(std::is_unsigned_v<T>, "counts are unsigned");
    std::uint64_t v = 0;
    for (char c : text) {
      if (c < '0' || c > '9') return false;
      const auto digit = static_cast<std::uint64_t>(c - '0');
      if (v > (std::numeric_limits<T>::max() - digit) / 10) return false;
      v = v * 10 + digit;
    }
    *out = static_cast<T>(v);
  }
  return true;
}

// Parses `text` as milliseconds (fractional allowed) into a simulated
// Duration: a finite value >= 0 whose microseconds fit.
inline bool ParseMillis(const std::string& text, Duration* out) {
  double ms = 0;
  if (!ParseNumber(text, &ms) || ms < 0 || ms * 1000 >= 0x1p64) return false;
  *out = static_cast<Duration>(ms * 1000);
  return true;
}

}  // namespace unicc

#endif  // UNICC_COMMON_PARSE_H_
