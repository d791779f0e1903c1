// Zero-initialised byte buffer that commits host memory only where written.
//
// The store is one anonymous private mapping. The kernel zero-fills each
// page on first write (reads of an untouched page see the shared zero
// page), so a large simulated device costs host memory and time in
// proportion to the bytes placed on it, not to its size. `calloc` would
// not do: glibc skips the zeroing memset only for chunks above its dynamic
// mmap threshold, which rises after every large free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace sdm {

class ZeroedBuffer {
 public:
  /// Maps `size` zero bytes; throws std::bad_alloc if the mapping fails.
  explicit ZeroedBuffer(size_t size);
  ~ZeroedBuffer();

  ZeroedBuffer(const ZeroedBuffer&) = delete;
  ZeroedBuffer& operator=(const ZeroedBuffer&) = delete;

  [[nodiscard]] uint8_t* data() { return data_; }
  [[nodiscard]] const uint8_t* data() const { return data_; }
  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] std::span<const uint8_t> span() const { return {data_, size_}; }

 private:
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace sdm
