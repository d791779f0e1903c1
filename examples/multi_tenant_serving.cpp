// Multi-tenant serving on one shared SM device stack (§5.3 + src/tenant):
// a latency-sensitive recommender (foreground) co-locates with a batch
// scorer replaying the same model offline (background). Both hosts of one
// ClusterSimulation attach to ONE device stack (an instant fabric), so:
//
//   - the scorer's byte-identical tables dedup to the recommender's device
//     extents (no second copy on SM);
//   - overlapping hot-block misses single-flight across the two stores;
//   - the scorer's demand reads ride the scheduler's byte-budgeted
//     background lane — parked under pressure, promoted when the
//     recommender overlaps them — so it cannot starve the foreground p99.
//
//   $ ./examples/multi_tenant_serving [qps_per_tenant]
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "dlrm/model_zoo.h"
#include "serving/cluster.h"

using namespace sdm;

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarn);
  const double qps = argc > 1 ? std::atof(argv[1]) : 4000;

  // One base model served twice: the online recommender and its offline
  // batch scorer (an A/B or replay tenant sees identical table bytes).
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.name = "recsys-base";
  std::printf("model: %zu tables, %.1f MiB\n", model.tables.size(),
              AsMiB(model.TotalBytes()));

  HostSimConfig base;
  base.host = MakeHwFAO(2);  // accelerator + 2x Optane (Table 11's platform)
  base.fm_capacity = 24 * kMiB;
  base.sm_backing_per_device = 64 * kMiB;
  base.workload.num_users = 2000;
  base.tuning.max_batch_delay = Micros(50);
  base.seed = 0x5e;

  ClusterSimulation host(2, base, RoutingPolicy::kLocal, DisaggregatedConfig{.enabled = true});
  const HostRole roles[] = {{model, 4 * kMiB, TenantClass::kForeground},
                            {model, 4 * kMiB, TenantClass::kBackground}};
  if (Status s = host.LoadModels(roles); !s.ok()) {
    std::fprintf(stderr, "tenant load failed: %s\n", s.ToString().c_str());
    return 1;
  }

  const ClusterRunReport r = host.Run(2 * qps, 2 * 4000);
  std::printf("\n%s\n\n", r.Summary().c_str());
  for (const auto& t : r.hosts) {
    std::printf("  %s\n", t.Summary().c_str());
  }

  std::printf(
      "\nthe scorer reused %.1f MiB of the recommender's device extents and %llu of\n"
      "its in-flight reads; its own reads rode the background lane (%llu parked,\n"
      "%llu promoted on foreground overlap), keeping the recommender's p99 at\n"
      "%.2f ms while both tenants run from one device stack.\n",
      AsMiB(r.sm_logical_bytes - r.sm_unique_bytes),
      static_cast<unsigned long long>(r.hosts[1].share.cross_tenant_hits),
      static_cast<unsigned long long>(r.io.background_parked),
      static_cast<unsigned long long>(r.io.background_promoted),
      r.hosts[0].run.p99.millis());
  return 0;
}
