// The SDM tuning API (paper §4, "Tuning API" paragraphs).
//
// Every knob the paper exposes for deployment-time tuning is collected here
// so an auto-tuner (or the benches) can sweep them:
//   §4.1  outstanding IOs per table, concurrent tables, queue depth,
//         completion mode, sub-block reads on/off
//   §4.3  cache sizes and partitions
//   §4.4  pooled-embedding-cache LenThreshold
//   §4.5  de-pruning / de-quantization at load
//   §4.6  placement policy and DRAM budget
#pragma once

#include <set>
#include <string>

#include "cache/block_cache.h"
#include "cache/dual_cache.h"
#include "cache/pooled_cache.h"
#include "common/result.h"
#include "io/io_engine.h"
#include "io/throttle.h"
#include "obs/obs_config.h"
#include "prefetch/prefetch_predictor.h"

namespace sdm {

/// Placement strategies (paper Table 5).
enum class PlacementPolicy : uint8_t {
  /// All candidate (user) tables on SM; FM holds only the cache.
  kSmOnlyWithCache,
  /// A DRAM budget direct-maps the highest-benefit tables to FM; the rest
  /// go to SM with cache.
  kFixedFmSmWithCache,
  /// Like kSmOnlyWithCache, but low-temporal-locality tables bypass the
  /// cache ("per table cache enablement").
  kPerTableCacheEnablement,
};

[[nodiscard]] const char* ToString(PlacementPolicy p);

/// How LookupEngine turns SM misses into device reads (§4.1). Every mode
/// runs the one planned-run path (IoPlanner -> BatchScheduler); the two
/// ablation modes only configure it.
enum class IoBatching : uint8_t {
  /// One device read per missing row: no intra-request dedup, no merging,
  /// and the scheduler in bypass (ablation baseline).
  kPerRow,
  /// Duplicate indices dedup and misses group into block runs per request;
  /// the scheduler runs in bypass, so requests never share or fuse reads
  /// (ablation).
  kPerRequest,
  /// kPerRequest plus cross-request batching in the BatchScheduler:
  /// single-flight on pending and in-flight reads, cross-request merges,
  /// and doorbells shared by every concurrent lookup (default).
  kCrossRequest,
};

struct TuningConfig {
  // ---- Fast IO (§4.1) ----
  ThrottleConfig throttle;
  int io_queue_depth = 256;
  CompletionMode completion_mode = CompletionMode::kInterrupt;
  /// Use SGL bit-bucket sub-block reads when the device supports them.
  bool sub_block_reads = true;

  // ---- Coalesced, cross-request batched IO (§4.1 extension, src/sched) ----
  /// Dedup duplicate indices within a request, group misses by 4KB block
  /// (N rows in one block cost one device read, a row straddling a block
  /// boundary reads both), merge adjacent blocks, and combine the planned
  /// reads of every concurrent lookup in the per-device BatchScheduler:
  /// requests missing the same block share one device read (single-flight),
  /// overlapping/adjacent spans from different requests fuse into one SQE,
  /// and batches flush as one host-wide ring doorbell. kPerRequest keeps the
  /// per-request planning with the scheduler in bypass (no read is shared
  /// across requests); kPerRow issues one read per missing row. Both are
  /// ablation baselines.
  IoBatching io_batching = IoBatching::kCrossRequest;
  /// Upper bound on the byte span of one merged multi-block read.
  Bytes max_coalesce_bytes = 64 * kKiB;
  /// In sub-block (SGL) mode, the largest dead gap (bytes) a merged read
  /// may bridge between consecutive rows; larger gaps split the read so
  /// scattered rows don't inflate bus traffic (block-layer request-merging
  /// semantics). Block-mode reads ignore this: whole blocks cross the bus
  /// either way, so same-block rows always share one read.
  Bytes coalesce_gap_bytes = 512;
  /// Flush the accumulating batch once it holds this many SQEs.
  int max_batch_sqes = 64;
  /// Flush deadline, armed by the first run of a batch. Zero adds no
  /// latency (runs submitted at the same virtual instant still share a
  /// doorbell); raising it widens the cross-request merge window at the
  /// cost of up to that much added IO latency.
  SimDuration max_batch_delay{0};

  // ---- Speculative prefetch (src/prefetch; §4.2's locality data) ----
  /// Predict hot/next rows from the demand stream and read them ahead of
  /// demand through the BatchScheduler's low-priority lane. Exploits the
  /// temporal skew of Fig. 4 (most accesses concentrate in few rows) to
  /// convert demand SM latency into background bandwidth. Off by default:
  /// the paper's deployment does not prefetch, so every paper-reproduction
  /// bench keeps its baseline; bench_prefetch sweeps the knobs.
  bool enable_prefetch = false;
  /// kHotSet rides Fig. 4's temporal locality (decayed top-K histogram);
  /// kNextBlock is classic stride readahead on the miss-block stream — it
  /// needs the spatial locality Fig. 5 says production lacks, and exists
  /// for scan-shaped workloads and as the ablation partner.
  PrefetchStrategy prefetch_strategy = PrefetchStrategy::kHotSet;
  /// Max candidate rows issued per prediction opportunity. Deeper issues
  /// convert more misses but with falling precision (bench_prefetch's depth
  /// sweep); 8 balances hit rate against wasted bytes at Fig. 4 skews.
  int prefetch_depth = 8;
  /// Byte budget of speculative reads (pending + in-flight bus bytes);
  /// candidates beyond it are dropped, never queued — speculation must not
  /// compete with §4.1's outstanding-IO budget for demand.
  Bytes prefetch_max_inflight_bytes = 256 * kKiB;
  /// Candidates below this predictor confidence (share of recent traffic
  /// for kHotSet, stride agreement for kNextBlock) are not issued — the
  /// floor cuts the ranking's noise tail. Raising it makes speculation
  /// more conservative (fewer wasted bytes, fewer hits).
  double prefetch_min_confidence = 1e-5;

  // ---- Multi-tenant QoS lanes (src/tenant; §5.3 co-location) ----
  /// Byte budget of the scheduler's background lane (pending + in-flight
  /// bus bytes of background-tenant demand reads). Over-budget runs are
  /// PARKED until budget releases — background demand is never dropped —
  /// so this caps the device occupancy background tenants hold at once.
  Bytes background_max_inflight_bytes = 256 * kKiB;
  /// Starvation bound of the background lane: a background SQE that keeps
  /// missing doorbell room (foreground batches run full) gets its own
  /// doorbell after at most this long.
  SimDuration background_flush_delay = Micros(10);

  // ---- Disaggregated fabric (src/fabric; §5.2's scale-out made real) ----
  /// One-way propagation latency of the fabric hop in front of a
  /// fabric-attached device stack. Zero (with unlimited bandwidth) makes
  /// the fabric instant: disaggregated mode becomes byte-identical to a
  /// local shared device.
  SimDuration fabric_latency{0};
  /// Per-direction fabric bandwidth (bytes/sec; 0 = unlimited). Doorbells
  /// pay 64B per SQE on the request direction, read payloads their bus
  /// bytes on the response direction.
  double fabric_bandwidth_bytes_per_sec = 0;
  /// Model per-hop FIFO queueing: transfers in one direction serialize
  /// behind each other (needs a finite bandwidth to matter).
  bool fabric_queueing = true;

  // ---- Fault tolerance / robustness (src/fault) ----
  /// Deadline on one scheduler device read (demand lanes). When the read
  /// has not completed this long after its doorbell, every joined request
  /// gets kDeadlineExceeded and can retry/degrade instead of wedging on a
  /// stalled device or a dropped fabric transfer. Zero disables deadlines
  /// (byte-identical to pre-deadline behavior).
  SimDuration io_deadline{0};
  /// Base of the exponential backoff between transient-error retry attempts
  /// (lookup runs, replication copy chunks). Attempt k waits base * 2^k.
  /// Zero keeps the legacy immediate re-read.
  SimDuration retry_backoff_base{0};
  /// Hedged reads: when an in-flight demand read exceeds
  /// `hedge_latency_factor * p99` of the device's observed demand-read
  /// latency, a duplicate read is submitted and the first completion wins.
  /// Zero disables hedging.
  double hedge_latency_factor = 0;
  /// Completed demand reads observed before the adaptive hedge threshold
  /// arms (the p99 estimate needs a population).
  uint64_t hedge_min_samples = 64;
  /// Score device/endpoint health from IO outcomes and shed lookups to
  /// degraded mode while an endpoint is sick (probing for recovery).
  bool enable_health_monitor = false;
  /// Error fraction of the health window at which an endpoint is sick.
  double health_sick_threshold = 0.5;
  /// IO outcomes per endpoint in the sliding health window.
  int health_window = 64;
  /// While sick, every Nth lookup is admitted as a probe to detect recovery.
  int health_probe_interval = 16;

  // ---- Self-healing storage (src/fault; PR 8) ----
  /// Per-4KB-block checksums on every SM device: stamped at write, verified
  /// at bounce-buffer fill, so bit-rot windows surface as kDataLoss
  /// (transient, feeding retries/health) instead of serving garbage. Off by
  /// default — byte-identical when off OR when on without corruption.
  bool enable_checksums = false;
  /// Let a ReplicationManager watch HealthMonitor sickness transitions and
  /// re-replicate a sick device's hottest extents onto a healthy device via
  /// the scheduler's background lane; the extent registry gains replica
  /// sets, and lookups/hedges route to the healthiest replica. Requires
  /// enable_health_monitor (transitions drive it).
  bool enable_replication = false;
  /// Hottest extents re-replicated per sickness transition.
  int replication_hot_extents = 2;
  /// Byte budget per sickness transition: extents beyond it wait for the
  /// next transition (bounded background work per event).
  Bytes replication_byte_budget = 8 * kMiB;
  /// Chunk size of replication staging reads on the background lane.
  Bytes replication_chunk_bytes = 64 * kKiB;
  /// Feed per-table degradation (zero-filled rows, shed lookups) back into
  /// placement: a chronically degraded SM table migrates to FM at the next
  /// ModelUpdater refresh (if FM headroom allows).
  bool degraded_placement_feedback = false;
  /// rows_failed + sheds a table must accumulate to count as chronically
  /// degraded for the placement feedback above.
  uint64_t degraded_rows_min = 64;

  // ---- Observability (src/obs) ----
  /// Windowed time-series metrics, sampled query tracing, and SLO watchdog
  /// rules. All default off (no Observability object is created); when on,
  /// observation is timing-inert — serving results stay byte-identical.
  ObsConfig obs;

  // ---- Cache organization (§4.3) ----
  bool enable_row_cache = true;
  /// capacity == 0 (the default) auto-sizes the cache to whatever FM the
  /// direct tables and mapping tensors leave free (see SdmStore).
  DualCacheConfig row_cache = AutoSizedRowCache();

  [[nodiscard]] static DualCacheConfig AutoSizedRowCache() {
    DualCacheConfig c;
    c.capacity = 0;
    return c;
  }

  // ---- Pooled embedding cache (§4.4) ----
  bool enable_pooled_cache = false;
  PooledCacheConfig pooled_cache;

  // ---- Multi-level cache (§4.3, evaluated and rejected by the paper) ----
  /// Back the row cache with a block cache. Kept as an ablation: with the
  /// low spatial locality of Fig. 5 it wastes FM (see bench_ablation_multilevel).
  bool enable_block_cache = false;
  /// Share of the FM cache budget diverted to the block layer.
  double block_cache_fraction = 0.5;
  BlockCacheConfig block_cache;

  // ---- SM vs FM capacity trades (§4.5, A.5) ----
  bool deprune_at_load = false;
  bool dequantize_at_load = false;

  // ---- Placement (§4.6) ----
  PlacementPolicy placement = PlacementPolicy::kSmOnlyWithCache;
  /// FM bytes the placement may spend on direct-mapped tables. The row
  /// cache's capacity is separate (row_cache.capacity).
  Bytes placement_dram_budget = 0;
  /// Tables that must not be placed on SM (offline placement escape hatch).
  std::set<std::string> never_on_sm;
  /// Zipf-alpha below which kPerTableCacheEnablement disables the cache.
  double cache_enable_min_alpha = 0.4;

  /// Item tables stay on FM/accelerator in all the paper's deployments;
  /// placement only considers user tables for SM unless this is false.
  bool user_tables_only_on_sm = true;

  [[nodiscard]] Status Validate() const;

  /// Validation for a store ATTACHED to a SharedDeviceService (src/tenant).
  /// Cross-store single-flight and the tenant QoS lanes live in the batch
  /// scheduler's cross-request mode, so the bypass ablation modes (fine for
  /// single-tenant runs) are inconsistent on a shared device and are
  /// rejected here instead of asserting at runtime.
  [[nodiscard]] Status ValidateForSharedDevice() const;

  /// Validation for cluster hosts attached to a fabric-attached device
  /// stack (src/fabric): everything a shared device requires, plus sane
  /// fabric knobs. The disaggregated run loop rejects inconsistent configs
  /// with a Status at LoadModel instead of asserting mid-run.
  [[nodiscard]] Status ValidateForDisaggregated() const;
};

}  // namespace sdm
