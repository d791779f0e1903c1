// Table 2 reproduction: the two use cases the stack must serve well.
//
//   Inference      user batch = 1, item batch O(100); latency sensitive.
//   InferenceEval  user batch == item batch > 1; accuracy validation after
//                  inference-specific transformation.
//
// Paper §4: "we evaluate the design choices ... by evaluating a wide range
// of target models ... We also consider both Inference as well as
// Inference Eval ... to avoid over designing for a particular usecase."
// InferenceEval multiplies the user-side (SM) traffic by the batch size and
// destroys per-query stickiness, so it is the configuration most sensitive
// to cache size and placement (Fig. 6's bottom-right panel runs it).
#include <cstdio>

#include "bench_util.h"
#include "dlrm/model_zoo.h"
#include "serving/cluster.h"

using namespace sdm;

namespace {

struct UsecaseResult {
  HostRunReport report;
  double sm_lookups_per_query = 0;
};

UsecaseResult Run(int user_batch, int item_batch, double qps) {
  ModelConfig model = MakeTinyUniformModel(32, 4, 2, 20'000);
  model.user_batch_size = user_batch;
  model.item_batch_size = item_batch;
  HostSimConfig cfg;
  cfg.host = MakeHwAO();
  cfg.fm_capacity = 6 * kMiB;
  cfg.sm_backing_per_device = 32 * kMiB;
  cfg.workload.num_users = 4000;
  cfg.workload.user_index_churn = 0.05;
  cfg.workload.seed = 31;
  cfg.seed = 31;
  HostSimulation sim(cfg);
  if (Status s = sim.LoadModel(model); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return {};
  }
  sim.Warmup(4000);
  UsecaseResult r;
  r.report = sim.Run(qps, 2000);
  const uint64_t sm_rows =
      sim.engine().lookups().stats().CounterValue("rows_sm_read") +
      sim.engine().lookups().stats().CounterValue("rows_cache_hit");
  r.sm_lookups_per_query =
      static_cast<double>(sm_rows) /
      std::max<uint64_t>(1, sim.engine().stats().CounterValue("queries"));
  return r;
}

}  // namespace

int main() {
  bench::QuietLogs quiet;
  bench::Section("Table 2 — Inference vs InferenceEval on the same SDM host");
  bench::Table t({"usecase", "user batch", "item batch", "SM lookups/query", "hit %",
                  "p95 ms", "p99 ms"});
  const UsecaseResult inference = Run(/*user_batch=*/1, /*item_batch=*/16, 300);
  const UsecaseResult eval = Run(/*user_batch=*/16, /*item_batch=*/16, 300);
  t.Row("Inference", 1, 16, inference.sm_lookups_per_query,
        inference.report.row_cache_hit_rate * 100, inference.report.p95.millis(),
        inference.report.p99.millis());
  t.Row("InferenceEval", 16, 16, eval.sm_lookups_per_query,
        eval.report.row_cache_hit_rate * 100, eval.report.p95.millis(),
        eval.report.p99.millis());
  t.Print();
  bench::Note(bench::Fmt(
      "InferenceEval multiplies user-side SM traffic ~%.0fx (hit rate %.1f -> %.1f%%, "
      "p95 %.2f -> %.2fms): the design must hold up under both (paper §4).",
      eval.sm_lookups_per_query / std::max(1.0, inference.sm_lookups_per_query),
      inference.report.row_cache_hit_rate * 100, eval.report.row_cache_hit_rate * 100,
      inference.report.p95.millis(), eval.report.p95.millis()));
  bench::Note("this is why Fig. 6's placement study runs InferenceEval — it is the");
  bench::Note("configuration most sensitive to cache capacity and table placement.");
  return 0;
}
