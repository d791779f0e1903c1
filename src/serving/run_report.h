// Run reports, and the one meter that fills them.
//
// Every counter a report reads is cumulative across runs: the engine and
// lookup counters, the caches, the prefetcher and the fair-share ledger of
// each host, and the devices, IO engines, schedulers, replication manager
// and fabric links of each device stack. A RunMeter snapshots all of them
// when a run starts and turns the deltas into a ClusterRunReport when it
// ends. ClusterSimulation::Run returns the whole report; HostSimulation::Run,
// a cluster of one, returns that host's `run`.
//
// A host on a private stack owns that stack's counters, so its `run`
// carries them (SM IOPS, read amplification, scheduler effectiveness, IO
// errors, IO-engine CPU, ...). On a stack every host shares they belong to
// no host, so they stay in the report's stack section only.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fabric/fabric_attached_service.h"
#include "serving/arrival_loop.h"

namespace sdm {

struct HostRunReport {
  uint64_t queries_completed = 0;
  /// Arrivals this host's engine admitted in the run (completed counts only
  /// the ones that finished OK). Stays 0 for an IDLE host (the router never
  /// picked it), which is how cluster aggregation tells it from a host that
  /// served traffic and achieved nothing.
  uint64_t queries_served = 0;
  double offered_qps = 0;
  double achieved_qps = 0;
  SimDuration p50;
  SimDuration p95;
  SimDuration p99;
  SimDuration mean;
  double row_cache_hit_rate = 0;
  double pooled_hit_rate = 0;
  double sm_iops = 0;               ///< sustained IOs/sec against SM
  double sm_read_amplification = 1;
  // ---- Cross-request batch scheduling (src/sched), this run only ----
  uint64_t cross_request_merges = 0;  ///< spans fused across concurrent queries
  uint64_t singleflight_hits = 0;     ///< runs served by another query's read
  double batch_occupancy = 0;         ///< mean SQEs per ring doorbell
  // ---- Speculative prefetch (src/prefetch), this run only ----
  uint64_t prefetch_issued = 0;       ///< rows read ahead of demand
  double prefetch_hit_rate = 0;       ///< issued rows later claimed by demand
  uint64_t prefetch_wasted_bytes = 0; ///< speculative bus bytes with no demand hit
  // ---- Robustness / fault tolerance (src/fault), this run only ----
  uint64_t io_errors = 0;         ///< device-level read errors (IoEngine)
  uint64_t io_retries = 0;        ///< transient-error re-reads of lookup runs
  uint64_t deadline_expired = 0;  ///< scheduler reads settled by io_deadline
  uint64_t hedges_issued = 0;     ///< tail-latency hedge reads submitted
  uint64_t hedges_won = 0;        ///< hedges that beat the original read
  uint64_t queries_degraded = 0;  ///< completed queries with zero-filled rows
  uint64_t rows_failed = 0;       ///< zero-filled rows across those queries
  uint64_t lookups_shed = 0;      ///< lookups short-circuited by the health monitor
  // ---- Self-healing storage (src/fault), this run only ----
  uint64_t blocks_corrupt = 0;      ///< 4KB blocks failing their checksum (bit rot)
  uint64_t replica_reads = 0;       ///< demand reads failed over to an extent replica
  uint64_t read_repairs = 0;        ///< terminally-failed reads served from a replica
  uint64_t extents_replicated = 0;  ///< extents re-replicated off sick endpoints
  SimDuration avg_cpu_per_query;
  /// Max QPS one host CPU-second supports (1 / cpu_per_query); the compute
  /// term of Eq. 5.
  double cpu_qps_bound = 0;

  [[nodiscard]] std::string Summary() const;
};

/// One cluster host's slice of a run.
struct ClusterHostReport {
  std::string model_name;
  TenantClass cls = TenantClass::kForeground;
  HostRunReport run;
  /// This host's fair-share ledger, this run only: lane bus bytes of the
  /// reads it owned, and single-flight hits. On a shared stack
  /// `share.cross_tenant_hits` counts runs served by reads OTHER hosts paid
  /// for (cross-host hits).
  TenantIoShare share;
  SimDuration throttle_queue_time;  ///< virtual time queued for IO slots
  Bytes fm_used = 0;
  Bytes sm_used = 0;  ///< logical footprint (shared extents counted)

  [[nodiscard]] std::string Summary() const;
};

struct ClusterRunReport {
  std::vector<ClusterHostReport> hosts;
  /// Mean row-cache hit rate weighted by each host's served queries (idle
  /// hosts contribute nothing instead of deflating the mean).
  double mean_hit_rate = 0;
  double aggregate_qps = 0;
  // ---- Device stacks (the shared one, or every private one), this run only ----
  uint64_t sm_device_reads = 0;  ///< physical device reads
  CrossRequestIoStats io;        ///< scheduler effectiveness
  uint64_t cross_host_hits = 0;  ///< runs served by another HOST's read
  Bytes cross_host_bytes_saved = 0;
  FabricLinkStats fabric;  ///< zeroes on private stacks
  // ---- Model bytes (replicas of one model dedup to one extent set) ----
  Bytes sm_logical_bytes = 0;  ///< sum of host footprints
  Bytes sm_unique_bytes = 0;   ///< device bytes after cross-host dedup
  // ---- Robustness (src/fault), this run only ----
  uint64_t queries_degraded = 0;  ///< completed queries with zero-filled rows
  uint64_t rows_failed = 0;       ///< zero-filled rows across the cluster
  uint64_t blocks_corrupt = 0;      ///< 4KB blocks failing their checksum
  uint64_t replica_reads = 0;       ///< demand reads failed over to a replica
  uint64_t read_repairs = 0;        ///< terminally-failed reads served from a replica
  uint64_t extents_replicated = 0;  ///< extents re-replicated off sick endpoints
  // ---- §5.3 capacity: the host FM pool the hosts' FM shares come from ----
  Bytes fm_total = 0;     ///< FM the hosts use
  Bytes fm_capacity = 0;  ///< the pool
  bool fits_in_fm = false;  ///< would the host set fit in the pool without SM?

  [[nodiscard]] std::string Summary() const;
};

/// One host a RunMeter watches.
struct MeteredHost {
  SdmStore* store = nullptr;
  InferenceEngine* engine = nullptr;
  int cores = 1;  ///< HostRunReport::cpu_qps_bound's numerator
};

class RunMeter {
 public:
  /// Snapshots every host and its device stack: `fabric` when every host
  /// attaches to it, else each host's private stack.
  RunMeter(std::vector<MeteredHost> hosts, FabricAttachedService* fabric);
  ~RunMeter();

  /// Report of the run since construction: `arrivals[i]` is host i's
  /// arrival tally and `offered_qps` each host's offered rate.
  [[nodiscard]] ClusterRunReport Finish(std::span<const ArrivalStats> arrivals,
                                        double offered_qps) const;

 private:
  struct HostCounters;
  struct StackCounters;

  [[nodiscard]] std::vector<SharedDeviceService*> Stacks() const;

  std::vector<MeteredHost> hosts_;
  FabricAttachedService* fabric_;
  SimTime begin_;
  std::vector<HostCounters> hosts0_;
  std::vector<StackCounters> stacks0_;
  FabricLinkStats fabric0_;
};

}  // namespace sdm
