// ReplicationManager — heat-ranked extent re-replication off sick devices.
//
// When the HealthMonitor condemns an SM endpoint, this manager copies the
// endpoint's hottest extents (demand heat from the service's registry) onto
// the least-filled healthy device, then publishes the replica route so
// lookup engines fail over, schedulers hedge cross-replica, and checksum-
// failed reads repair instead of zero-filling.
//
// The copy itself is modelled honestly but cheaply:
//   - READ time rides the source device's scheduler on the byte-budgeted
//     background lane (kBackground), so re-replication competes with —
//     and parks behind — demand traffic exactly like any background work.
//   - The BYTES come from the source device's backing store (ground
//     truth). In-flight bit rot never reaches a replica: a real scrubber
//     re-reads until each block verifies, and modelling those extra reads
//     would only add noise to the lane accounting.
//   - WRITE time is the target device's streaming write cost; the route is
//     published only after the write completes, so a replica is never
//     routable before its bytes exist.
// Chunks that keep failing (a sick device can be erroring, not just slow)
// are retried a few times and the extent is then abandoned — degraded mode
// remains the backstop, exactly as before this layer existed.
//
// One copy job runs at a time; sickness transitions queue behind it. Each
// transition replicates at most tuning.replication_hot_extents extents and
// tuning.replication_byte_budget bytes. Deterministic: all scheduling is
// virtual-time, all ordering heat-then-id.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/event_loop.h"
#include "common/result.h"
#include "common/stats.h"
#include "tenant/shared_device_service.h"

namespace sdm {

class ReplicationManager {
 public:
  /// `service` owns the devices and must outlive this.
  ReplicationManager(SharedDeviceService* service, EventLoop* loop);

  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  /// Healthy->sick edge on `endpoint`: queue its hottest extents for
  /// re-replication. Safe to call mid-copy (jobs run one at a time).
  void OnEndpointSick(size_t endpoint);

  [[nodiscard]] uint64_t extents_replicated() const {
    return extents_replicated_->value();
  }
  [[nodiscard]] uint64_t extents_abandoned() const {
    return extents_abandoned_->value();
  }
  [[nodiscard]] uint64_t bytes_copied() const { return bytes_copied_->value(); }
  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }

  /// Observability (src/obs): taps the counters into windowed series under
  /// `<name>repl/` and records replicate/abandon trace instants. Null obs
  /// attaches nothing.
  void set_obs(Observability* obs, const std::string& name);

 private:
  struct CopyJob {
    uint64_t extent = 0;
    size_t source = 0;
  };

  void Pump();                      ///< start the next queued job if idle
  void CopyChunk(Bytes done, int attempts_left);
  void FinishExtent(bool copied);   ///< write + publish, or abandon

  /// Lane billing identity, registered on first use — registering in the
  /// constructor would shift host/tenant ids handed out after the service
  /// is built.
  TenantId BillingTenant();

  SharedDeviceService* service_;
  EventLoop* loop_;
  std::deque<CopyJob> queue_;
  bool running_ = false;
  CopyJob job_;                                     ///< current job
  SharedDeviceService::ExtentSpan span_;            ///< current job's source span
  SharedDeviceService::ReplicaLocation replica_;    ///< current job's target
  bool tenant_registered_ = false;
  TenantId tenant_ = 0;

  StatsRegistry stats_;
  Counter* extents_replicated_ = nullptr;
  Counter* extents_abandoned_ = nullptr;
  Counter* bytes_copied_ = nullptr;
  Counter* chunk_retries_ = nullptr;

  // ---- Observability (src/obs): the counters feed their series through
  // taps; spans are null when off ----
  SpanRecorder* obs_spans_ = nullptr;
  SpanRecorder::TrackId obs_track_ = 0;
};

}  // namespace sdm
