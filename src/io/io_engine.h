// Asynchronous IO engine modeled on io_uring (paper §4.1).
//
// Submission/completion queue semantics over one NvmeDevice:
//  - bounded device queue depth with FIFO spill queue (the paper's "limit
//    maximum outstanding requests to the SSD" tuning knob for Nand);
//  - per-IO CPU cost accounting, with *interrupt* vs *polling* completion
//    modes — polling removes IRQ overhead and delivers ~1.5x IOPS/core
//    (paper Appendix A.1);
//  - sub-block (SGL bit-bucket) or block read per request;
//  - an optional fabric hop (src/fabric) in front of every submission for
//    disaggregated, fabric-attached devices: the doorbell crosses the link
//    before SQEs reach the device queue, and each completion's payload
//    crosses back before its callback runs. Instant links (zero latency,
//    unlimited bandwidth) deliver synchronously, keeping the local path
//    byte-identical.
//
// CPU time is tracked as virtual nanoseconds of a single submission thread,
// which is how the paper reports IOPS/core.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>

#include "common/event_loop.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "device/nvme_device.h"
#include "obs/observability.h"

namespace sdm {

class FabricLink;

enum class CompletionMode : uint8_t {
  kInterrupt,  ///< IRQ per completion: extra latency + CPU per IO.
  kPolling,    ///< Busy-poll the CQ: lower CPU/IO, no IRQ delay.
};

[[nodiscard]] inline const char* ToString(CompletionMode m) {
  return m == CompletionMode::kInterrupt ? "interrupt" : "polling";
}

struct IoEngineConfig {
  CompletionMode completion_mode = CompletionMode::kInterrupt;

  /// Max IOs outstanding at the device. Excess submissions queue in the
  /// engine. Smaller values smooth Nand latency under bursts (§4.1).
  int queue_depth = 256;

  /// CPU cost to build + submit one SQE (io_uring syscall amortized).
  /// For batched submission this is charged once per ring doorbell.
  SimDuration cpu_submit_cost = Nanos(800);

  /// CPU cost of each additional SQE in a batched submission: building the
  /// SQE itself is cheap once the io_uring_enter syscall is shared.
  SimDuration cpu_submit_cost_batch_sqe = Nanos(150);

  /// CPU cost to reap one CQE in interrupt mode (IRQ + context switch share).
  SimDuration cpu_complete_cost_interrupt = Nanos(1600);

  /// CPU cost to reap one CQE when busy-polling.
  SimDuration cpu_complete_cost_polling = Nanos(800);

  /// Added completion-delivery latency in interrupt mode.
  SimDuration interrupt_delay = Micros(2);
};

class IoEngine {
 public:
  using Callback = std::function<void(Status, SimDuration)>;

  IoEngine(NvmeDevice* device, EventLoop* loop, IoEngineConfig config);

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  /// Submits an async read of [offset, offset+length). `dest` must follow
  /// NvmeDevice::ReadRequest sizing (BusBytes). The callback receives the
  /// end-to-end latency: engine queueing + device + completion delivery.
  void SubmitRead(Bytes offset, Bytes length, bool sub_block, std::span<uint8_t> dest,
                  Callback cb);

  /// One read in a batched submission. `merged_reads` / `bytes_saved`
  /// describe how many logical (per-row) reads this op coalesces and how
  /// many bus bytes that saved versus issuing them individually — the
  /// engine only aggregates them into its counters.
  struct ReadOp {
    Bytes offset = 0;
    Bytes length = 0;
    bool sub_block = false;
    std::span<uint8_t> dest;
    Callback cb;
    uint32_t merged_reads = 1;
    Bytes bytes_saved = 0;
    /// Both endpoints of this op live on the device side (re-replication
    /// copy chunks): when the engine sits behind a fabric link, the op
    /// dispatches locally instead of paying — and being counted as — host
    /// fabric traffic.
    bool service_local = false;
  };

  /// Submits `ops` as one ring doorbell: the first SQE pays the full
  /// `cpu_submit_cost`, each further SQE only `cpu_submit_cost_batch_sqe`
  /// (amortized io_uring_enter). Ops beyond `queue_depth` spill to the
  /// engine's FIFO queue exactly like single submissions.
  void SubmitBatch(std::span<ReadOp> ops);

  /// Attaches (or detaches, with nullptr) the fabric hop of a disaggregated
  /// device: submissions traverse `link`'s request direction before entering
  /// the device queue, completion payloads its response direction before the
  /// callback. The link must outlive the engine. Callback latency covers
  /// both hops.
  void set_fabric_link(FabricLink* link) { fabric_ = link; }
  [[nodiscard]] FabricLink* fabric_link() const { return fabric_; }

  [[nodiscard]] int outstanding() const { return outstanding_; }
  [[nodiscard]] size_t queued() const { return pending_.size(); }
  [[nodiscard]] const IoEngineConfig& config() const { return config_; }
  [[nodiscard]] NvmeDevice* device() { return device_; }
  [[nodiscard]] EventLoop* loop() { return loop_; }

  /// Total CPU time charged to the IO thread.
  [[nodiscard]] SimDuration cpu_time() const { return SimDuration(cpu_ns_->value()); }

  /// Completed IOs per CPU-second of IO-thread work (paper A.1 metric).
  [[nodiscard]] double IopsPerCore() const;

  /// End-to-end (submit -> callback) latency distribution.
  [[nodiscard]] const Histogram& latency() const { return latency_; }

  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }

  /// Observability (src/obs): taps the counters and latency into windowed
  /// series under `<name>io/` and registers one device-service trace track.
  /// Null obs attaches nothing.
  void set_obs(Observability* obs, const std::string& name);

 private:
  struct Pending {
    Bytes offset;
    Bytes length;
    bool sub_block;
    std::span<uint8_t> dest;
    Callback cb;
    SimTime enqueued_at;
  };

  void Dispatch(Pending p);
  void OnDeviceComplete(SimTime submitted_at, Status status, Callback cb);
  void SubmitReadLocal(Bytes offset, Bytes length, bool sub_block,
                       std::span<uint8_t> dest, Callback cb);
  void SubmitBatchLocal(std::span<ReadOp> ops);
  /// Wraps `cb` so the read payload traverses the fabric's response
  /// direction before delivery; the reported latency restarts from
  /// `accepted_at` (submission entry) so it covers both hops.
  [[nodiscard]] Callback WrapFabricCompletion(Bytes payload, SimTime accepted_at,
                                              Callback cb);

  NvmeDevice* device_;
  EventLoop* loop_;
  IoEngineConfig config_;
  FabricLink* fabric_ = nullptr;
  int outstanding_ = 0;
  std::deque<Pending> pending_;

  StatsRegistry stats_;
  Histogram latency_;
  Counter* submitted_ = nullptr;
  Counter* completed_ = nullptr;
  Counter* errors_ = nullptr;
  Counter* cpu_ns_ = nullptr;
  Counter* spilled_ = nullptr;
  Counter* batches_ = nullptr;
  Counter* batch_sqes_ = nullptr;
  Counter* coalesced_reads_ = nullptr;
  Counter* bytes_saved_ = nullptr;

  // ---- Observability (src/obs): counters and latency_ feed their series
  // through taps; spans are null when off ----
  SpanRecorder* obs_spans_ = nullptr;
  SpanRecorder::TrackId obs_track_ = 0;
};

}  // namespace sdm
