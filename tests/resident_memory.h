// Test helpers: how much host memory is resident, for the checks that
// simulated device backing commits host memory only where it is written.
//
// ResidentBytes reads this process's resident set size (VmRSS in
// /proc/self/status). Under ThreadSanitizer VmRSS also counts the shadow
// pages TSan maps for every byte the test touches, so a bound on it does
// not hold there; MappedResidentBytes asks the kernel (mincore(2)) about one
// mapping's own pages and holds in every build.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

namespace sdm {

/// True in a ThreadSanitizer build, where VmRSS includes shadow memory.
#if defined(__SANITIZE_THREAD__)
inline constexpr bool kRssCountsSanitizerShadow = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kRssCountsSanitizerShadow = true;
#else
inline constexpr bool kRssCountsSanitizerShadow = false;
#endif
#else
inline constexpr bool kRssCountsSanitizerShadow = false;
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

/// Bytes of the pages spanned by `bytes` that are resident, or -1 when
/// mincore(2) fails.
inline int64_t MappedResidentBytes(std::span<const uint8_t> bytes) {
  const auto page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t begin = reinterpret_cast<uintptr_t>(bytes.data()) & ~(page - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(bytes.data()) + bytes.size();
  std::vector<unsigned char> resident((end - begin + page - 1) / page);
  if (mincore(reinterpret_cast<void*>(begin), end - begin, resident.data()) != 0) return -1;
  int64_t n = 0;
  for (const unsigned char r : resident) n += r & 1;
  return n * static_cast<int64_t>(page);
}

}  // namespace sdm
