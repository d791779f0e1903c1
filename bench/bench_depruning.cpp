// §4.5 reproduction: de-pruning at load time.
//
// Paper: serving pruned tables from SM keeps per-table mapping tensors in
// FM — memory taken away from the SM cache. De-pruning at load frees the
// mapping tensors ("allowing for up to 2x cache size in some
// configurations") at the cost of ~2.5% extra SM requests (previously-
// pruned rows are now fetched) and more SM capacity; net effect: "up to 48%
// increase in performance for cases where performance is bounded by user
// embeddings in SM."
#include <cstdio>

#include <memory>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "dlrm/model_zoo.h"
#include "serving/cluster.h"
#include "trace/trace_gen.h"

using namespace sdm;

namespace {

ModelConfig PrunableModel() {
  // Large user tables (big mapping tensors) + one small FM item table.
  ModelConfig model = MakeTinyUniformModel(64, 4, 1, 60'000);
  model.tables.back().num_rows = 2'000;
  for (auto& t : model.tables) {
    if (t.role == TableRole::kUser) t.avg_pooling_factor = 12;
  }
  return model;
}

struct Variant {
  HostRunReport report;
  Bytes cache_budget = 0;
  Bytes mapping_bytes = 0;
  Bytes sm_bytes = 0;
  double max_qps = 0;
  uint64_t sm_requests = 0;
};

Variant Run(bool deprune) {
  const ModelConfig model = PrunableModel();
  HostSimConfig cfg;
  cfg.host = MakeHwSS();
  cfg.fm_capacity = 1536 * kKiB;  // tight FM: mapping tensors matter
  cfg.sm_backing_per_device = 64 * kMiB;
  cfg.tuning.deprune_at_load = deprune;
  cfg.workload.num_users = 4000;
  cfg.workload.user_index_churn = 0.04;
  cfg.workload.seed = 17;
  cfg.seed = 17;

  // Production pruning removes *cold* rows. Keep each user table's hottest
  // 50% of popularity ranks — the same streams the workload will draw from
  // (QueryGenerator is deterministic in (model, workload config)).
  QueryGenerator reference(model, cfg.workload);
  auto keep_sets = std::make_shared<std::vector<std::unordered_set<RowIndex>>>();
  for (size_t t = 0; t < model.tables.size(); ++t) {
    std::unordered_set<RowIndex> kept;
    if (model.tables[t].role == TableRole::kUser) {
      const uint64_t keep_rows = model.tables[t].num_rows / 2;
      for (uint64_t r = 0; r < keep_rows; ++r) {
        kept.insert(reference.stream(t).IndexAtRank(r));
      }
    }
    keep_sets->push_back(std::move(kept));
  }
  cfg.loader.prune_keep_predicate = [keep_sets](size_t table, RowIndex row) {
    return table < keep_sets->size() && (*keep_sets)[table].contains(row);
  };

  HostSimulation sim(cfg);
  const Status s = sim.LoadModel(model);
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return {};
  }
  sim.Warmup(5000);
  Variant v;
  v.max_qps = sim.FindMaxQps(Millis(5), /*use_p99=*/false, 1000, 25, 60'000);
  v.report = sim.Run(std::max(25.0, v.max_qps * 0.9), 2000);
  v.cache_budget = sim.store().fm_cache_budget();
  v.mapping_bytes = sim.store().fm_mapping_bytes();
  v.sm_bytes = sim.store().sm_used_bytes();
  v.sm_requests = sim.engine().lookups().stats().CounterValue("rows_sm_read") +
                  sim.engine().lookups().stats().CounterValue("rows_cache_hit");
  return v;
}

}  // namespace

int main() {
  bench::QuietLogs quiet;
  const Variant mapping = Run(/*deprune=*/false);
  const Variant depruned = Run(/*deprune=*/true);

  bench::Section("§4.5 — pruned tables: FM mapping tensor vs de-pruning at load");
  bench::Table t({"variant", "mapping KiB in FM", "cache KiB", "SM MiB", "hit %",
                  "SM rows/query", "max QPS"});
  auto row = [&](const char* name, const Variant& v) {
    const double rows_per_q =
        static_cast<double>(v.report.sm_iops) / std::max(1.0, v.report.achieved_qps);
    t.Row(name, static_cast<uint64_t>(v.mapping_bytes / kKiB),
          static_cast<uint64_t>(v.cache_budget / kKiB), AsMiB(v.sm_bytes),
          v.report.row_cache_hit_rate * 100, rows_per_q, v.max_qps);
  };
  row("pruned + FM mapping", mapping);
  row("de-pruned at load", depruned);
  t.Print();

  bench::Note(bench::Fmt("cache grew %.2fx (paper: up to 2x in some configurations)",
                         static_cast<double>(depruned.cache_budget) /
                             std::max<double>(1.0, static_cast<double>(mapping.cache_budget))));
  bench::Note(bench::Fmt("total row requests: %+.1f%% (paper: +2.5%% — de-pruned zero "
                         "rows now get fetched and cached)",
                         100.0 * (static_cast<double>(depruned.sm_requests) /
                                      std::max<uint64_t>(1, mapping.sm_requests) -
                                  1.0)));
  bench::Note(bench::Fmt("max QPS: %+.0f%% (paper: up to +48%% when bounded by user "
                         "embeddings in SM)",
                         100.0 * (depruned.max_qps / std::max(1.0, mapping.max_qps) - 1.0)));
  return 0;
}
