// Test helper: this process's resident set size, read from
// /proc/self/status (VmRSS). Used to check that simulated device backing
// commits host memory only where it is written.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

namespace sdm {

/// ThreadSanitizer keeps several shadow bytes per application byte the
/// program writes, so resident-size bounds on written heap memory (not on
/// untouched mappings) do not hold in that build.
#if defined(__SANITIZE_THREAD__)
inline constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kThreadSanitizer = true;
#else
inline constexpr bool kThreadSanitizer = false;
#endif
#else
inline constexpr bool kThreadSanitizer = false;
#endif

/// VmRSS in bytes, or -1 when /proc/self/status has no VmRSS line.
inline int64_t ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6)) * 1024;
  }
  return -1;
}

}  // namespace sdm
