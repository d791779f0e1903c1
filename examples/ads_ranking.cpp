// Ads-ranking serving simulation: an M1-class CTR model on an HW-SS host
// (the paper's §5.1 deployment), driven at increasing load until the p95
// SLA breaks — the workflow a capacity engineer runs before enabling SDM
// for a use case.
//
//   $ ./examples/ads_ranking [target_qps]
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "dlrm/model_zoo.h"
#include "serving/cluster.h"
#include "serving/power_model.h"

using namespace sdm;

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarn);
  const double target_qps = argc > 1 ? std::atof(argv[1]) : 0;  // 0 = sweep

  // The ads model: M1 ratios at 1/4096 scale (~35 MiB).
  const ModelConfig model = MakeM1(1.0 / 4096);
  std::printf("ads model: %zu tables, %.1f MiB (%zu user tables, avg PF %.0f)\n",
              model.tables.size(), AsMiB(model.TotalBytes()),
              model.CountFor(TableRole::kUser), model.AvgPoolingFactor(TableRole::kUser));

  HostSimConfig cfg;
  cfg.host = MakeHwSS();  // single socket + 2x Nand Flash
  cfg.fm_capacity = 24 * kMiB;
  cfg.sm_backing_per_device = 48 * kMiB;
  cfg.workload.num_users = 2000;
  cfg.workload.user_index_churn = 0.02;
  cfg.workload.pooling_scale = 0.25;
  HostSimulation host(cfg);
  if (Status s = host.LoadModel(model); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("warming the SM cache (the paper reaches steady state in minutes)...\n");
  host.Warmup(4000);

  if (target_qps > 0) {
    const HostRunReport r = host.Run(target_qps, 3000);
    std::printf("@ %.0f QPS: %s\n", target_qps, r.Summary().c_str());
    return 0;
  }

  std::printf("\n%-10s %-10s %-10s %-10s %-12s %-10s\n", "QPS", "p50 ms", "p95 ms",
              "p99 ms", "hit %", "SM IOPS");
  for (const double qps : {60.0, 120.0, 240.0, 480.0, 960.0}) {
    const HostRunReport r = host.Run(qps, 2500);
    std::printf("%-10.0f %-10.2f %-10.2f %-10.2f %-12.1f %-10.0f\n", qps, r.p50.millis(),
                r.p95.millis(), r.p99.millis(), r.row_cache_hit_rate * 100, r.sm_iops);
  }

  const double max_qps = host.FindMaxQps(Millis(15), /*use_p99=*/false, 1200, 30, 50'000);
  std::printf("\nmax QPS at p95 <= 15ms: %.0f\n", max_qps);

  // What this host earns at fleet scale versus DRAM-only serving.
  const FleetEstimate dram_fleet = EvaluateFleet(
      {"HW-L", max_qps * 1000, max_qps * 2.0, MakeHwL().power, 0, 0});
  const FleetEstimate sdm_fleet =
      EvaluateFleet({"HW-SS + SDM", max_qps * 1000, max_qps, MakeHwSS().power, 0, 0});
  std::printf("fleet projection (HW-L at ~2x per-host QPS): %s vs %s -> %.0f%% power "
              "saving with SDM\n",
              dram_fleet.Summary().c_str(), sdm_fleet.Summary().c_str(),
              PowerSaving(dram_fleet, sdm_fleet) * 100);
  return 0;
}
