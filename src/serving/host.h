// Host types (paper Table 7) and the config one serving host is built from.
//
// HostSpec captures what distinguishes the paper's deployment platforms:
// CPU sockets, DRAM, attached SSDs, accelerator, and (normalized) power.
// HostSimConfig adds the scaled-down FM/SM budgets, tuning, workload and
// seed that ClusterSimulation builds every host from. The serving drivers,
// ClusterSimulation and the one-host HostSimulation, are in
// serving/cluster.h.
#pragma once

#include <string>
#include <vector>

#include "core/model_loader.h"
#include "serving/inference_engine.h"

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

}  // namespace sdm
