// FM-tier (DRAM) byte store.
//
// Tables placed directly in fast memory and the software cache's storage
// both live here. Access is synchronous from the simulator's point of view;
// the (tiny) access latency is returned so callers can account CPU time.
#pragma once

#include <cstdint>
#include <span>

#include "common/result.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/zeroed_buffer.h"
#include "device/device_spec.h"

namespace sdm {

class DramDevice {
 public:
  explicit DramDevice(Bytes size, DeviceSpec spec = MakeDramSpec());

  DramDevice(const DramDevice&) = delete;
  DramDevice& operator=(const DramDevice&) = delete;

  [[nodiscard]] Bytes size() const { return store_.size(); }
  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  /// Copies `data` into the store.
  Status Write(Bytes offset, std::span<const uint8_t> data);

  /// Copies from the store into `dest`; returns the modeled access latency.
  Result<SimDuration> Read(Bytes offset, std::span<uint8_t> dest);

  /// Zero-copy view of a range (valid until the next Write to it). The
  /// modeled latency is the same as Read's; callers on the simulated path
  /// should account it.
  [[nodiscard]] Result<std::span<const uint8_t>> View(Bytes offset, Bytes length) const;

  /// Latency model: base cacheline latency plus bandwidth term.
  [[nodiscard]] SimDuration AccessLatency(Bytes length) const;

  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }

 private:
  DeviceSpec spec_;
  ZeroedBuffer store_;  ///< virtual until written
  StatsRegistry stats_;
  Counter* reads_ = nullptr;
  Counter* read_bytes_ = nullptr;
  Counter* writes_ = nullptr;
};

}  // namespace sdm
