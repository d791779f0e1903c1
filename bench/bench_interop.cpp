// Appendix A.2 reproduction: inter-op parallelism.
//
// Paper: "we have observed 20% reduction in latency per query through
// inter-Op parallelism, resulting in 20% more QPS per host at the desired
// latency for model M1."
#include <cstdio>

#include "bench_util.h"
#include "dlrm/model_zoo.h"
#include "serving/cluster.h"

using namespace sdm;

namespace {

ModelConfig M1Mini() {
  ModelConfig model;
  model.name = "m1-mini";
  model.item_batch_size = 10;
  model.user_batch_size = 1;
  model.num_mlp_layers = 31;
  model.avg_mlp_width = 300;
  Rng rng(0xa2);
  for (int i = 0; i < 12; ++i) {
    TableConfig t;
    t.name = bench::Fmt("u%d", i);
    t.role = TableRole::kUser;
    t.dtype = DataType::kInt8Rowwise;
    t.dim = 120;
    t.num_rows = 20'000;
    t.avg_pooling_factor = 8;
    t.zipf_alpha = rng.NextDouble(0.65, 0.9);
    model.tables.push_back(t);
  }
  for (int i = 0; i < 6; ++i) {
    TableConfig t;
    t.name = bench::Fmt("i%d", i);
    t.role = TableRole::kItem;
    t.dtype = DataType::kInt8Rowwise;
    t.dim = 120;
    t.num_rows = 8'000;
    t.avg_pooling_factor = 4;
    t.zipf_alpha = 1.0;
    model.tables.push_back(t);
  }
  return model;
}

struct InterOpResult {
  HostRunReport fixed_load;
  double max_qps;
};

InterOpResult Run(bool inter_op) {
  HostSimConfig cfg;
  cfg.host = MakeHwSS();
  cfg.fm_capacity = 6 * kMiB;
  cfg.sm_backing_per_device = 64 * kMiB;
  cfg.inference.inter_op_parallelism = inter_op;
  cfg.workload.num_users = 4000;
  cfg.workload.user_index_churn = 0.04;
  cfg.workload.seed = 20;
  cfg.seed = 20;
  HostSimulation sim(cfg);
  if (Status s = sim.LoadModel(M1Mini()); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return {};
  }
  sim.Warmup(5000);
  InterOpResult r;
  r.fixed_load = sim.Run(120, 2000);
  r.max_qps = sim.FindMaxQps(Millis(10), /*use_p99=*/false, 500, 25, 20'000);
  return r;
}

}  // namespace

int main() {
  bench::QuietLogs quiet;
  const InterOpResult serial = Run(false);
  const InterOpResult parallel = Run(true);

  bench::Section("A.2 — inter-op parallelism (M1-mini on HW-SS, fixed 120 QPS)");
  bench::Table t({"execution", "p50 ms", "p95 ms", "p99 ms", "max QPS @ p95<=10ms"});
  t.Row("serial operators", serial.fixed_load.p50.millis(), serial.fixed_load.p95.millis(),
        serial.fixed_load.p99.millis(), serial.max_qps);
  t.Row("inter-op parallel", parallel.fixed_load.p50.millis(),
        parallel.fixed_load.p95.millis(), parallel.fixed_load.p99.millis(),
        parallel.max_qps);
  t.Print();

  const double lat_cut =
      1.0 - static_cast<double>(parallel.fixed_load.p50.nanos()) /
                static_cast<double>(serial.fixed_load.p50.nanos());
  const double qps_gain = parallel.max_qps / std::max(1.0, serial.max_qps) - 1.0;
  bench::Note(bench::Fmt("latency reduction: %.0f%% (paper: 20%%); QPS gain at SLA: "
                         "%+.0f%% (paper: +20%%)",
                         lat_cut * 100, qps_gain * 100));
  bench::Note("mechanism: concurrent operators discover IOs earlier and overlap IO");
  bench::Note("with compute, so per-query latency drops and the host sustains more");
  bench::Note("QPS at the same latency target.");
  return 0;
}
