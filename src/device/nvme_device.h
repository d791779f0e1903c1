// Simulated NVMe block device.
//
// Holds *real bytes* in a backing store (so the embedding data path is
// bit-exact end to end) while read latency is produced by the calibrated
// LatencyModel in virtual time on an EventLoop.
//
// Two read paths, matching paper §4.1.1:
//  - Block reads: the host receives every 4KB block overlapping the request;
//    bus traffic is block-rounded (read amplification) and the caller must
//    memcpy the useful sub-range out of the bounce buffer.
//  - Sub-block (SGL bit-bucket) reads: only the DWORD-rounded byte range
//    crosses the bus and lands directly in the caller's buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/event_loop.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/zeroed_buffer.h"
#include "device/device_spec.h"
#include "device/endurance.h"
#include "device/latency_model.h"

namespace sdm {

class FaultInjector;

class NvmeDevice {
 public:
  /// `backing_size` is the actual byte store (experiments run scaled down;
  /// the spec's nominal capacity is used for cost/endurance math). It is
  /// virtual until written: host memory is committed page by page.
  NvmeDevice(DeviceSpec spec, Bytes backing_size, EventLoop* loop, uint64_t seed);

  NvmeDevice(const NvmeDevice&) = delete;
  NvmeDevice& operator=(const NvmeDevice&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] Bytes backing_size() const { return store_.size(); }

  // -- Write path (model load / update) -------------------------------------

  /// Synchronously writes `data` at `offset` into the backing store and
  /// charges wear. Returns the virtual time the transfer occupies (callers
  /// schedule it if they care about update duration).
  Result<SimDuration> Write(Bytes offset, std::span<const uint8_t> data);

  // -- Read path -------------------------------------------------------------

  struct ReadRequest {
    Bytes offset = 0;  ///< Logical byte offset of the useful data.
    Bytes length = 0;  ///< Useful bytes wanted by the application.
    /// Use the SGL bit-bucket sub-block path (requires spec support).
    bool sub_block = false;
    /// Destination. Must hold exactly BusBytes(offset, length, sub_block).
    /// For block reads, data lands block-aligned: the useful range begins at
    /// `offset % kBlockSize` within dest. For sub-block reads it begins at
    /// `offset % kDwordBytes` (0 for the DWORD-aligned rows the embedding
    /// layout guarantees).
    std::span<uint8_t> dest;
    /// Completion callback, invoked on the event loop at completion time
    /// with the device-observed latency of this IO.
    std::function<void(Status, SimDuration)> on_complete;
  };

  /// Number of bytes that will cross the bus for a request. Block path:
  /// whole blocks spanning the range. Sub-block path: DWORD-rounded range.
  [[nodiscard]] static Bytes BusBytes(Bytes offset, Bytes length, bool sub_block);

  /// Submits an asynchronous read. Validation failures surface through the
  /// callback (scheduled immediately) so callers have one error path.
  void SubmitRead(ReadRequest req);

  /// Enables per-4KB-block checksums (TuningConfig::enable_checksums):
  /// every backing block gets a CRC stamped at (re)write time, and every
  /// BLOCK-path read verifies its payload after the DMA copy — i.e. at
  /// bounce-buffer fill, after any bit-rot window mutated it. A mismatch
  /// completes the read with kDataLoss (transient: the backing media is
  /// intact, so retries redraw the corruption) instead of serving garbage.
  /// Sub-block (SGL) payloads are not block-shaped and stay unverified.
  /// Off (the default) leaves reads byte-identical: verification of a
  /// clean payload has no timing or RNG footprint either way.
  /// Enabling must precede the first Write: every block is still zero
  /// then, so each is stamped with the one zero-block CRC.
  void set_checksums(bool enabled);
  [[nodiscard]] bool checksums() const { return !block_crc_.empty(); }
  /// Per-4KB-block stamps (empty with checksums off).
  [[nodiscard]] std::span<const uint32_t> block_crcs() const { return block_crc_; }
  /// The block checksum: FNV-1a over the bytes, folded to 32 bits.
  [[nodiscard]] static uint32_t BlockCrc(std::span<const uint8_t> block);

  /// Direct view of the backing store for OFFLINE copies — replication
  /// staging and refresh-time FM migration read source bytes here instead
  /// of modeling serving-path IO (the same convention as load-time writes,
  /// which are offline too). Never used on the serving path.
  [[nodiscard]] std::span<const uint8_t> backing() const { return store_.span(); }

  /// Installs (or clears, with nullptr) a scripted fault injector
  /// (src/fault): error-burst windows fail reads at completion time, stall
  /// windows defer completions, fail-slow windows stretch service time
  /// (via the LatencyModel hook, installed here too). The injector draws
  /// from its OWN Rng, so a null injector — or one with an empty plan —
  /// leaves every device RNG stream and completion byte-identical.
  void set_fault_injector(FaultInjector* injector, int device_index) {
    injector_ = injector;
    device_index_ = device_index;
    latency_.set_fault_injector(injector, device_index);
  }

  // -- Introspection ----------------------------------------------------------

  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }
  [[nodiscard]] StatsRegistry& stats() { return stats_; }
  [[nodiscard]] const Histogram& read_latency() const { return read_latency_; }
  [[nodiscard]] const WearTracker& wear() const { return wear_; }
  [[nodiscard]] LatencyModel& latency_model() { return latency_; }

  /// bus bytes / useful bytes over the device lifetime (>= 1).
  [[nodiscard]] double ReadAmplification() const;

 private:
  DeviceSpec spec_;
  EventLoop* loop_;
  LatencyModel latency_;
  WearTracker wear_;
  Rng fault_rng_;
  FaultInjector* injector_ = nullptr;
  int device_index_ = -1;
  ZeroedBuffer store_;
  /// Per-4KB-block CRCs over the backing store; empty = checksums off.
  /// A partial tail block (backing not block-multiple) stays unstamped.
  std::vector<uint32_t> block_crc_;
  StatsRegistry stats_;
  Histogram read_latency_;

  Counter* reads_ = nullptr;
  Counter* read_errors_ = nullptr;
  Counter* bus_bytes_ = nullptr;
  Counter* useful_bytes_ = nullptr;
  Counter* sub_block_reads_ = nullptr;
  Counter* writes_ = nullptr;
  Counter* written_bytes_ = nullptr;
  Counter* checksum_failed_reads_ = nullptr;
  Counter* blocks_corrupt_ = nullptr;
};

}  // namespace sdm
