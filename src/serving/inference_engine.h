// InferenceEngine — executes DLRM inference queries on one host (paper §2).
//
// Per query:
//   - every embedding operator (one per table) runs through the SDM's
//     LookupEngine; user tables typically resolve via cache/SM IO, item
//     tables via FM/accelerator memory;
//   - with inter-op parallelism (Appendix A.2) all operators are in flight
//     at once and IO overlaps compute; without it they chain serially —
//     the paper's ~20% latency / QPS delta reproduces from this switch;
//   - the top MLP depends on both sides (Eq. 3), so query latency is
//     max(user path, item path) + dense time. SM latency is hidden while
//     it stays under the item path (Eq. 4's budget).
//
// Host capacity: a bounded number of in-flight queries (admission queue)
// and a shared CPU modeled as a processor with `cpu_time_per_query` derived
// from the measured operator costs; both throttle throughput at high QPS.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "common/histogram.h"
#include "core/lookup_engine.h"
#include "dlrm/dlrm_model.h"
#include "obs/observability.h"
#include "trace/trace_gen.h"

namespace sdm {

struct InferenceConfig {
  /// Run embedding operators concurrently (A.2). Off = serial chaining.
  bool inter_op_parallelism = true;

  /// Admission limit: queries executing concurrently on the host.
  /// <= 0 means "one per core" (HostInferenceConfig fills it from the
  /// HostSpec); direct InferenceEngine constructions must set it explicitly.
  int max_concurrent_queries = 0;

  /// Dense-side compute model (top+bottom MLP over the item batch).
  DenseCostModel dense;

  /// When true the dense work runs on an accelerator: dense.flops_per_sec
  /// is the accelerator's rate and dense time is not charged to host CPU.
  bool accelerator = false;
};

struct QueryTrace {
  SimDuration user_path;    ///< slowest user-table operator
  SimDuration item_path;    ///< slowest item-table operator
  SimDuration dense_time;   ///< MLP time charged after both paths
  SimDuration queue_time;   ///< admission queueing
  SimDuration total;
  uint32_t sm_rows = 0;
  uint32_t cache_hits = 0;
  uint32_t pooled_hits = 0;
  /// Embedding rows that pooled as zeros after their IO exhausted retries
  /// or was shed from a sick endpoint (graceful degradation, src/fault).
  uint32_t rows_failed = 0;
  /// Any operator of this query completed degraded.
  bool degraded = false;
};

using QueryCallback = std::function<void(Status, const QueryTrace&)>;

class InferenceEngine {
 public:
  /// `store` must be sealed and contain one runtime table per entry of
  /// `model.tables` (ModelLoader guarantees this).
  InferenceEngine(SdmStore* store, const ModelConfig& model, InferenceConfig config);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Submits one query; callback fires on the event loop at completion.
  void Submit(Query query, QueryCallback cb);

  [[nodiscard]] int in_flight() const { return in_flight_; }
  [[nodiscard]] size_t queued() const { return admission_queue_.size(); }

  [[nodiscard]] const Histogram& user_path_latency() const { return user_path_; }
  [[nodiscard]] const Histogram& item_path_latency() const { return item_path_; }
  [[nodiscard]] LookupEngine& lookups() { return *lookup_engine_; }
  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }
  /// Speculative-readahead effectiveness (src/prefetch): rows issued ahead
  /// of demand, how many demand later claimed, and the wasted bus bytes.
  /// Zeroes when tuning.enable_prefetch is off.
  [[nodiscard]] PrefetchStats prefetch_stats() const {
    return store_->prefetch_stats();
  }
  [[nodiscard]] const InferenceConfig& config() const { return config_; }
  [[nodiscard]] const ModelConfig& model() const { return model_; }

 private:
  struct QueryState;

  void Start(std::shared_ptr<QueryState> st);
  void LaunchOperator(const std::shared_ptr<QueryState>& st, size_t table_idx);
  void OnOperatorDone(const std::shared_ptr<QueryState>& st, size_t table_idx,
                      const LookupTrace& trace);
  void FinishQuery(const std::shared_ptr<QueryState>& st);
  void AdmitFromQueue();

  SdmStore* store_;
  ModelConfig model_;
  InferenceConfig config_;
  EventLoop* loop_;
  std::unique_ptr<LookupEngine> lookup_engine_;

  int in_flight_ = 0;
  std::deque<std::shared_ptr<QueryState>> admission_queue_;

  Histogram user_path_;
  Histogram item_path_;
  StatsRegistry stats_;
  Counter* queries_ = nullptr;
  Counter* errors_ = nullptr;
  Counter* cpu_ns_ = nullptr;

  // ---- Observability (src/obs). queries_ feeds query/requests through
  // its tap; the series below have no cumulative twin and are recorded
  // here, all null when off. Handles resolve from the store's
  // Observability in the ctor; query tracing samples every
  // SpanRecorder::sample_every()'th submission (by stable submit sequence,
  // so the sample set is identical run to run) and marks its lookups
  // `traced` so the engine records their spans too. ----
  WindowedCounter* obs_degraded_ = nullptr;
  WindowedGauge* obs_queue_depth_ = nullptr;
  WindowedHistogram* obs_lat_ = nullptr;
  SpanRecorder* obs_spans_ = nullptr;
  SpanRecorder::TrackId obs_track_ = 0;
  uint64_t submit_seq_ = 0;
};

}  // namespace sdm
