// Ablation (§3): the same serving workload across every Table 1 technology.
//
// Paper: "The choice of technology for SM depends on specific usecase and
// model characteristics... Nand Flash and Optane SSD enable tiered memory
// for a wide range of DLRM models... As the model's capacity and BW scale
// overtime, CXL based solution would become more relevant."
#include <cstdio>

#include "bench_util.h"
#include "dlrm/model_zoo.h"
#include "serving/cluster.h"

using namespace sdm;

namespace {

ModelConfig ServingModel() {
  // IOPS-heavy: 6 user tables at PF 40 = 240 raw SM lookups per query, so
  // the devices (not CPU) decide the outcome.
  ModelConfig model = MakeTinyUniformModel(64, 6, 1, 30'000);
  model.tables.back().num_rows = 2000;
  for (auto& t : model.tables) {
    if (t.role == TableRole::kUser) t.avg_pooling_factor = 40;
  }
  return model;
}

}  // namespace

int main() {
  bench::QuietLogs quiet;
  const ModelConfig model = ServingModel();
  bench::Section("§3 ablation — one workload, every SM technology (2 devices each)");
  bench::Table t({"technology", "max QPS @ p95<=2ms", "p95 ms @ 400qps", "hit %",
                  "SM IOPS", "cost vs DRAM"});

  for (const DeviceSpec& spec : Table1Specs()) {
    HostSimConfig cfg;
    cfg.host.name = spec.name;
    cfg.host.cpu_sockets = 1;
    cfg.host.ssds = {spec, spec};
    cfg.host.dense_flops = 2.0e10;
    cfg.fm_capacity = 4 * kMiB;
    cfg.sm_backing_per_device = 64 * kMiB;
    cfg.workload.num_users = 20'000;  // wide working set: devices matter
    cfg.workload.user_index_churn = 0.15;
    cfg.workload.seed = 29;
    cfg.seed = 29;
    HostSimulation sim(cfg);
    if (Status s = sim.LoadModel(model); !s.ok()) {
      bench::Note(bench::Fmt("%s: load failed: %s", ToString(spec.technology),
                             s.ToString().c_str()));
      continue;
    }
    sim.Warmup(5000);
    const HostRunReport fixed = sim.Run(400, 2500);
    const double qps = sim.FindMaxQps(Millis(2), /*use_p99=*/false, 1200, 25, 300'000);
    t.Row(ToString(spec.technology), qps, fixed.p95.millis(),
          fixed.row_cache_hit_rate * 100, fixed.sm_iops,
          bench::Fmt("1/%.0f", 1.0 / spec.cost_per_gb_rel_dram));
  }
  t.Print();
  bench::Note("paper shape: Nand/ZSSD trail on latency-sensitive QPS; Optane covers");
  bench::Note("the high-BW frontier; DIMM/CXL 3DXP approach DRAM-class behaviour and");
  bench::Note("become relevant as models outscale SSD IOPS (§3's closing remark).");
  return 0;
}
