#include "common/zeroed_buffer.h"

#include <sys/mman.h>

#include <new>

namespace sdm {

ZeroedBuffer::ZeroedBuffer(size_t size) : size_(size) {
  if (size == 0) return;  // mmap rejects empty mappings
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<uint8_t*>(p);
}

ZeroedBuffer::~ZeroedBuffer() {
  if (data_ != nullptr) munmap(data_, size_);
}

}  // namespace sdm
