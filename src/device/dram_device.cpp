#include "device/dram_device.h"

#include <cstring>

namespace sdm {

DramDevice::DramDevice(Bytes size, DeviceSpec spec) : spec_(std::move(spec)), store_(size) {
  reads_ = stats_.GetCounter("reads");
  read_bytes_ = stats_.GetCounter("read_bytes");
  writes_ = stats_.GetCounter("writes");
}

Status DramDevice::Write(Bytes offset, std::span<const uint8_t> data) {
  if (offset > store_.size() || data.size() > store_.size() - offset) {
    return OutOfRangeError("DRAM write beyond store");
  }
  std::memcpy(store_.data() + offset, data.data(), data.size());
  writes_->Add(1);
  return Status::Ok();
}

Result<SimDuration> DramDevice::Read(Bytes offset, std::span<uint8_t> dest) {
  if (offset > store_.size() || dest.size() > store_.size() - offset) {
    return OutOfRangeError("DRAM read beyond store");
  }
  std::memcpy(dest.data(), store_.data() + offset, dest.size());
  reads_->Add(1);
  read_bytes_->Add(dest.size());
  return AccessLatency(dest.size());
}

Result<std::span<const uint8_t>> DramDevice::View(Bytes offset, Bytes length) const {
  if (offset > store_.size() || length > store_.size() - offset) {
    return OutOfRangeError("DRAM view beyond store");
  }
  reads_->Add(1);
  read_bytes_->Add(length);
  return std::span<const uint8_t>(store_.data() + offset, length);
}

SimDuration DramDevice::AccessLatency(Bytes length) const {
  const double bw_term = static_cast<double>(length) / spec_.bus_bw_bytes_per_sec;
  return spec_.base_read_latency + Seconds(bw_term);
}

}  // namespace sdm
