// Model-update loop: serve a model while refreshing it on a cadence,
// watching hit-rate dips, write endurance, and the online/offline update
// trade-off (paper Appendix A.3/A.4).
//
//   $ ./examples/model_update_loop [cycles]
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "core/model_updater.h"
#include "dlrm/model_zoo.h"
#include "serving/cluster.h"

using namespace sdm;

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarn);
  const int cycles = argc > 1 ? std::atoi(argv[1]) : 4;

  const ModelConfig model = MakeTinyUniformModel(32, 4, 1, 20'000);
  HostSimConfig cfg;
  cfg.host = MakeHwSS();
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_backing_per_device = 32 * kMiB;
  cfg.workload.num_users = 2000;
  cfg.workload.user_index_churn = 0.03;
  HostSimulation host(cfg);
  if (Status s = host.LoadModel(model); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  host.Warmup(4000);
  ModelUpdater updater(&host.store());

  std::printf("serving at 200 QPS with a refresh every cycle "
              "(incremental 20%% online vs full offline)\n\n");
  std::printf("%-7s %-22s %-10s %-10s %-12s %-14s %-12s\n", "cycle", "update kind",
              "rows", "write ms", "hit % after", "p95 ms after", "drive writes");

  for (int c = 0; c < cycles; ++c) {
    // Alternate: incremental online refresh, then a full offline one.
    UpdateOptions opts;
    opts.online = (c % 2 == 0);
    opts.row_fraction = opts.online ? 0.2 : 1.0;
    opts.seed = 1000 + c;
    const auto update = updater.Update(opts);
    if (!update.ok()) {
      std::fprintf(stderr, "update failed: %s\n", update.status().ToString().c_str());
      return 1;
    }
    const HostRunReport after = host.Run(200, 1200);
    std::printf("%-7d %-22s %-10llu %-10.2f %-12.1f %-14.2f %-12.3f\n", c,
                opts.online ? "incremental (online)" : "full (offline)",
                static_cast<unsigned long long>(update.value().rows_updated),
                update.value().write_time.millis(), after.row_cache_hit_rate * 100,
                after.p95.millis(), update.value().sm_drive_writes);
    if (!opts.online) {
      // Cold caches: warm back up before the next cycle, like the fleet's
      // rolling-update over-provisioning absorbs (A.4).
      host.Warmup(4000);
    }
  }

  // Endurance summary: how often could this drive sustain full refreshes?
  const auto& spec = host.store().sm_device(0).spec();
  WearTracker rated(spec.capacity, spec.endurance_dwpd);
  std::printf("\nendurance: %s rated %.0f DWPD -> a %.0fGB model could refresh every "
              "%.1f minutes at most\n",
              ToString(spec.technology), spec.endurance_dwpd, 143.0,
              rated.MinUpdateIntervalMinutes(143 * kGiB));
  std::printf("warmup roofline (A.4): r=10%%, w=5min, p=50%%, t=30min -> %.1f%% extra "
              "capacity\n",
              ModelUpdater::WarmupCapacityOverhead(0.10, 5, 0.50, 30) * 100);
  return 0;
}
