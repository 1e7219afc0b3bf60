// Strict parsing of numeric flag values, shared by every command-line
// and request-option surface (machine flags, schema flags, the ctdf
// CLI, the replay harness).
#pragma once

#include <cerrno>
#include <cstdlib>
#include <string>

namespace ctdf::support {

/// Strict unsigned parse: rejects empty strings, signs (std::stoul
/// silently wraps "-1"), embedded junk ("8x"), and overflow, so a typo
/// is a flag error instead of a silent misconfiguration.
[[nodiscard]] inline bool parse_unsigned(const std::string& v,
                                         unsigned long long& out) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(v.c_str(), &end, 10);
  return errno == 0 && end == v.c_str() + v.size();
}

}  // namespace ctdf::support
