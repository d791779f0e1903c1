// Reusable block-buffer arena for the coalesced IO path.
//
// The per-row IO path used to heap-allocate a fresh bounce buffer for every
// device read — allocation churn that a real io_uring serving stack avoids
// with registered/pooled buffers. The arena keeps a free list of previously
// used buffers and hands them out by capacity; buffers return to the pool
// automatically when the last reference to the handle drops (completion
// closures are std::function, hence copyable shared ownership).
//
// Single-threaded by design: all acquire/release happens on the EventLoop
// thread, like everything else on the IO path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"

namespace sdm {

struct BufferArenaStats {
  uint64_t acquires = 0;
  uint64_t allocations = 0;  ///< acquires that had to malloc (pool miss)
  uint64_t reuses = 0;       ///< acquires served from the free list
  uint64_t discarded = 0;    ///< returned buffers dropped (pool full)
};

class BufferArena {
 public:
  /// `max_pooled_buffers` bounds the free list so a burst doesn't pin
  /// memory forever; extra returns are simply freed.
  explicit BufferArena(size_t max_pooled_buffers = 64);

  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;
  ~BufferArena();

  /// A pooled buffer. `size()` is the requested size; capacity may be
  /// larger (recycled from a bigger request).
  using Buffer = std::vector<uint8_t>;

  /// Returns a buffer of exactly `bytes` size, recycling a pooled one when
  /// possible. The handle is copyable; the buffer returns to the pool when
  /// the last copy is destroyed.
  [[nodiscard]] std::shared_ptr<Buffer> Acquire(Bytes bytes);

  [[nodiscard]] const BufferArenaStats& stats() const { return stats_; }
  [[nodiscard]] size_t pooled_buffers() const { return free_list_.size(); }
  [[nodiscard]] Bytes pooled_bytes() const;

 private:
  void Recycle(Buffer* buf);

  size_t max_pooled_buffers_;
  std::vector<std::unique_ptr<Buffer>> free_list_;
  BufferArenaStats stats_;
  // Deleters hold a weak reference to detect arena teardown with buffers
  // still in flight (they then free instead of recycling).
  std::shared_ptr<BufferArena*> self_;
};

}  // namespace sdm
