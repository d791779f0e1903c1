// Host types (paper Table 7) and the single-host serving simulation.
//
// HostSpec captures what distinguishes the paper's deployment platforms:
// CPU sockets, DRAM, attached SSDs, accelerator, and (normalized) power.
// HostSimulation assembles the full stack on one EventLoop — SdmStore,
// ModelLoader, InferenceEngine, QueryGenerator — and drives an open-loop
// Poisson arrival process (serving/arrival_loop.h, one participant) to
// measure QPS/latency/hit-rate, the quantities Tables 8/9/10/11 build
// their fleet arithmetic on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/model_loader.h"
#include "obs/observability.h"
#include "serving/run_report.h"

namespace sdm {

struct HostSpec {
  std::string name;
  int cpu_sockets = 1;
  Bytes dram = 64 * kGiB;            ///< nominal production DRAM
  std::vector<DeviceSpec> ssds;      ///< SM devices (empty = DRAM-only host)
  bool accelerator = false;
  /// Host power normalized so HW-L == 1.0 (paper reports normalized power).
  double power = 1.0;
  /// Dense execution rate for one query: per-core flops/s on CPU hosts
  /// (a query's MLP work occupies one core), whole-device flops/s when an
  /// accelerator runs the dense part.
  double dense_flops = 2.0e10;

  /// Usable cores (the admission limit and Eq. 5's compute denominator).
  [[nodiscard]] int cores() const { return 20 * cpu_sockets; }
};

/// Table 7 host types.
[[nodiscard]] HostSpec MakeHwL();   ///< 2x Xeon, 256GB, no SSD
[[nodiscard]] HostSpec MakeHwS();   ///< 1x Xeon, 64GB (scale-out helper)
[[nodiscard]] HostSpec MakeHwSS();  ///< 1x Xeon, 64GB, 2x 2TB Nand
[[nodiscard]] HostSpec MakeHwAN();  ///< accelerator + 2x 1TB Nand
[[nodiscard]] HostSpec MakeHwAO();  ///< accelerator + 2x 0.4TB Optane
/// M3-era platforms (§5.3): big accelerator host, optionally with Optane.
[[nodiscard]] HostSpec MakeHwF();
[[nodiscard]] HostSpec MakeHwFAO(int num_optane_ssds = 9);

struct HostSimConfig {
  HostSpec host;
  /// FM the SDM may use (scaled-down experiments use far less than the
  /// host's nominal DRAM).
  Bytes fm_capacity = 128 * kMiB;
  /// Backing bytes per SSD (scaled). Virtual until written: host memory
  /// is committed page by page as tables are placed.
  Bytes sm_backing_per_device = 256 * kMiB;
  TuningConfig tuning;
  LoaderOptions loader;
  WorkloadConfig workload;
  InferenceConfig inference;
  uint64_t seed = 7;
};

/// The engine config a host of `config` runs: its accelerator, dense rate,
/// and (unless set) one admitted query per core.
[[nodiscard]] InferenceConfig HostInferenceConfig(const HostSimConfig& config);

class HostSimulation {
 public:
  explicit HostSimulation(HostSimConfig config);

  /// Loads the model onto the host's SDM. Must be called once before Run.
  Status LoadModel(const ModelConfig& model);

  /// Runs `num_queries` open-loop Poisson arrivals at `target_qps`
  /// (virtual time) and reports. Callable repeatedly; histograms reset per
  /// run, caches stay warm across runs (matching steady-state measurement
  /// after a warmup run).
  [[nodiscard]] HostRunReport Run(double target_qps, uint64_t num_queries);

  /// Convenience: warm the caches with `n` queries (no measurement).
  void Warmup(uint64_t n, double qps = 1000.0);

  [[nodiscard]] SdmStore& store() { return *store_; }
  [[nodiscard]] InferenceEngine& engine() { return *engine_; }
  [[nodiscard]] QueryGenerator& workload() { return *workload_; }
  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] const HostSimConfig& config() const { return config_; }

  /// Observability (src/obs): non-null iff tuning.obs.enabled() at
  /// LoadModel. Metric names carry the "host0/" source prefix.
  [[nodiscard]] Observability* obs() { return obs_.get(); }
  /// Exports close open metric windows first (idempotent); empty documents
  /// when the corresponding subsystem is off.
  [[nodiscard]] std::string ObsMetricsJson();
  [[nodiscard]] std::string ObsTraceJson();
  [[nodiscard]] std::string ObsSloJson();

  /// Finds the highest QPS whose p-latency stays under `sla` (binary
  /// search over Run; `use_p99` picks the percentile — §2.3's p95 vs p99).
  [[nodiscard]] double FindMaxQps(SimDuration sla, bool use_p99, uint64_t queries_per_probe,
                                  double qps_lo = 50, double qps_hi = 100000);

 private:
  HostSimConfig config_;
  EventLoop loop_;
  std::unique_ptr<Observability> obs_;  ///< must outlive store_/engine_
  std::unique_ptr<SdmStore> store_;
  std::unique_ptr<InferenceEngine> engine_;
  std::unique_ptr<QueryGenerator> workload_;
  ModelConfig model_;
  bool loaded_ = false;
};

}  // namespace sdm
