#include "device/nvme_device.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "fault/fault_injector.h"

namespace sdm {

NvmeDevice::NvmeDevice(DeviceSpec spec, Bytes backing_size, EventLoop* loop, uint64_t seed)
    : spec_(std::move(spec)),
      loop_(loop),
      latency_(spec_, seed),
      wear_(spec_.capacity, spec_.endurance_dwpd),
      fault_rng_(seed ^ 0xfa'017'0000ULL),
      store_(backing_size) {
  assert(loop != nullptr);
  reads_ = stats_.GetCounter("reads");
  read_errors_ = stats_.GetCounter("read_errors");
  bus_bytes_ = stats_.GetCounter("bus_bytes");
  useful_bytes_ = stats_.GetCounter("useful_bytes");
  sub_block_reads_ = stats_.GetCounter("sub_block_reads");
  writes_ = stats_.GetCounter("writes");
  written_bytes_ = stats_.GetCounter("written_bytes");
  checksum_failed_reads_ = stats_.GetCounter("checksum_failed_reads");
  blocks_corrupt_ = stats_.GetCounter("blocks_corrupt");
}

// Collision quality is ample for detecting single-byte rot; speed matters
// more (stamped per write).
uint32_t NvmeDevice::BlockCrc(std::span<const uint8_t> block) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint8_t b : block) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

void NvmeDevice::set_checksums(bool enabled) {
  if (!enabled) {
    block_crc_.clear();
    return;
  }
  assert(writes_->value() == 0 && "checksums must be enabled before the first write");
  static const uint32_t kZeroBlockCrc = [] {
    const std::array<uint8_t, kBlockSize> zero{};
    return BlockCrc(zero);
  }();
  block_crc_.assign(store_.size() / kBlockSize, kZeroBlockCrc);
}

Result<SimDuration> NvmeDevice::Write(Bytes offset, std::span<const uint8_t> data) {
  if (offset > store_.size() || data.size() > store_.size() - offset) {
    return OutOfRangeError("write beyond device backing store");
  }
  std::memcpy(store_.data() + offset, data.data(), data.size());
  if (!block_crc_.empty()) {
    // Re-stamp every full block the write touched from the backing store,
    // so the CRCs are always consistent with what a clean read returns.
    const size_t first = offset / kBlockSize;
    const size_t last = (offset + data.size() - 1) / kBlockSize;
    for (size_t b = first; b <= last && b < block_crc_.size(); ++b) {
      block_crc_[b] = BlockCrc({store_.data() + b * kBlockSize, kBlockSize});
    }
  }
  wear_.RecordWrite(data.size());
  writes_->Add(1);
  written_bytes_->Add(data.size());
  return Seconds(static_cast<double>(data.size()) / spec_.write_bw_bytes_per_sec);
}

Bytes NvmeDevice::BusBytes(Bytes offset, Bytes length, bool sub_block) {
  if (length == 0) return 0;
  if (sub_block) {
    // DWORD-aligned window covering [offset, offset + length).
    const Bytes begin = offset & ~(kDwordBytes - 1);
    const Bytes end = (offset + length + kDwordBytes - 1) & ~(kDwordBytes - 1);
    return end - begin;
  }
  const Bytes first_block = offset / kBlockSize;
  const Bytes last_block = (offset + length - 1) / kBlockSize;
  return (last_block - first_block + 1) * kBlockSize;
}

void NvmeDevice::SubmitRead(ReadRequest req) {
  // Validate, reporting errors through the normal completion path.
  Status error;
  if (req.length == 0) {
    error = InvalidArgumentError("zero-length read");
  } else if (req.offset > store_.size() || req.length > store_.size() - req.offset) {
    error = OutOfRangeError("read beyond device backing store");
  } else if (req.sub_block && !spec_.supports_sub_block) {
    error = FailedPreconditionError("device lacks SGL bit-bucket sub-block support");
  } else if (req.dest.size() != BusBytes(req.offset, req.length, req.sub_block)) {
    error = InvalidArgumentError("dest buffer size != bus bytes for request");
  }
  if (!error.ok()) {
    read_errors_->Add(1);
    loop_->ScheduleAfter(SimDuration(0),
                         [cb = std::move(req.on_complete), error]() mutable {
                           if (cb) cb(error, SimDuration(0));
                         });
    return;
  }

  const Bytes bus = req.dest.size();
  const SimTime now = loop_->Now();
  SimTime done = latency_.CompleteRead(now, bus);
  if (injector_ != nullptr) {
    // Stall windows freeze completions until they close: the read is not
    // lost, it is (very) late — which is what deadlines must rescue.
    done = injector_->DeferCompletion(device_index_, done);
  }
  const SimDuration lat = done - now;

  // Fault injection: the error surfaces at completion time, after the
  // device has burned the service slot (as a real media error would).
  if (spec_.read_error_probability > 0 &&
      fault_rng_.NextBernoulli(spec_.read_error_probability)) {
    read_errors_->Add(1);
    loop_->ScheduleAt(done, [cb = std::move(req.on_complete), lat]() mutable {
      if (cb) cb(UnavailableError("uncorrectable media read error"), lat);
    });
    return;
  }

  // Scripted error bursts draw from the injector's own Rng (after the
  // spec's organic draw above, whose stream stays untouched).
  if (injector_ != nullptr && injector_->DrawReadError(device_index_)) {
    read_errors_->Add(1);
    loop_->ScheduleAt(done, [cb = std::move(req.on_complete), lat]() mutable {
      if (cb) cb(UnavailableError("injected media error burst"), lat);
    });
    return;
  }

  reads_->Add(1);
  bus_bytes_->Add(bus);
  useful_bytes_->Add(req.length);
  if (req.sub_block) sub_block_reads_->Add(1);
  read_latency_.Record(lat);

  // Copy the data now (deterministic; the store is logically immutable
  // between updates) but deliver the completion at the simulated time.
  const Bytes first_block = req.offset / kBlockSize;
  if (req.sub_block) {
    const Bytes begin = req.offset & ~(kDwordBytes - 1);
    std::memcpy(req.dest.data(), store_.data() + begin, req.dest.size());
  } else {
    const Bytes begin = first_block * kBlockSize;
    const Bytes avail = store_.size() - begin;
    const Bytes n = std::min<Bytes>(req.dest.size(), avail);
    std::memcpy(req.dest.data(), store_.data() + begin, n);
    if (n < req.dest.size()) {
      // Tail of the last block extends past the backing store: zero-fill,
      // as a real device would return zeroes for never-written space.
      std::memset(req.dest.data() + n, 0, req.dest.size() - n);
    }
  }

  // Bit-rot windows mutate the PAYLOAD copy, never the backing store —
  // silent corruption in flight. With checksums off this serves garbage
  // (the motivating failure); with them on the block verify below catches
  // it at bounce-buffer fill.
  bool rotted = false;
  if (injector_ != nullptr) {
    rotted = injector_->CorruptReadPayload(device_index_, req.dest);
  }
  if (rotted && !req.sub_block && !block_crc_.empty()) {
    uint64_t bad = 0;
    const size_t blocks = req.dest.size() / kBlockSize;
    for (size_t i = 0; i < blocks; ++i) {
      const size_t b = first_block + i;
      if (b >= block_crc_.size()) break;  // unstamped partial/backing tail
      if (BlockCrc(req.dest.subspan(i * kBlockSize, kBlockSize)) != block_crc_[b]) {
        ++bad;
      }
    }
    if (bad > 0) {
      checksum_failed_reads_->Add(1);
      blocks_corrupt_->Add(bad);
      loop_->ScheduleAt(done, [cb = std::move(req.on_complete), lat]() mutable {
        if (cb) cb(DataLossError("block checksum mismatch (bit rot)"), lat);
      });
      return;
    }
  }

  loop_->ScheduleAt(done, [cb = std::move(req.on_complete), lat]() mutable {
    if (cb) cb(Status::Ok(), lat);
  });
}

double NvmeDevice::ReadAmplification() const {
  const uint64_t useful = useful_bytes_->value();
  if (useful == 0) return 1.0;
  return static_cast<double>(bus_bytes_->value()) / static_cast<double>(useful);
}

}  // namespace sdm
