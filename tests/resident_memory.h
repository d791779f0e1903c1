// Test helper: this process's resident set size, read from
// /proc/self/status (VmRSS). Used to check that simulated device backing
// commits host memory only where it is written.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

namespace sdm {

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
