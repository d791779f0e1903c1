// Coalesced batch IO: per-row IO vs dedup + block coalescing + batched SQE
// submission (the TuningConfig::io_batching = kPerRow ablation).
//
// Setup mirrors bench_fig5_spatial_locality: Zipf-over-permuted-rows access
// streams against an M2 user table, served from SM at the standard 1/1024
// capacity scale every serving bench runs at. At that scale windows touch a
// large share of each table, so misses share 4KB blocks and coalescing
// collapses them into merged reads; a second section re-runs the same
// stream against a production-sized index space (the paper's low-locality
// regime, Fig. 5) where dedup and amortized submission are the only wins.
//
// Reports, for both paths: device reads per query, bus bytes per query,
// IO-thread CPU, modeled IOPS/core (completed device IOs per IO-core
// second), row fetches per IO-core second, and request latency.
// `--json=FILE` writes the same numbers machine-readably to FILE for the
// perf trajectory.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "core/lookup_engine.h"
#include "core/model_loader.h"
#include "core/sdm_store.h"
#include "dlrm/model_zoo.h"
#include "trace/locality.h"
#include "trace/trace_gen.h"

using namespace sdm;

namespace {

struct RunResult {
  uint64_t queries = 0;
  uint64_t rows_from_sm = 0;
  uint64_t rows_deduped = 0;
  uint64_t device_reads = 0;
  uint64_t bus_bytes = 0;
  uint64_t batches = 0;
  uint64_t io_bytes_saved = 0;
  double io_cpu_s = 0;
  double lookup_cpu_s = 0;
  double iops_per_core = 0;
  double mean_latency_us = 0;
  double p99_latency_us = 0;

  [[nodiscard]] double ReadsPerQuery() const {
    return queries == 0 ? 0 : static_cast<double>(device_reads) / static_cast<double>(queries);
  }
  [[nodiscard]] double BusBytesPerQuery() const {
    return queries == 0 ? 0 : static_cast<double>(bus_bytes) / static_cast<double>(queries);
  }
  /// Row fetches completed per second of IO-thread CPU — the per-row vs
  /// coalesced comparison that matters for QPS/host (same rows served,
  /// less IO-core time).
  [[nodiscard]] double RowsPerIoCoreSec() const {
    return io_cpu_s <= 0 ? 0 : static_cast<double>(rows_from_sm) / io_cpu_s;
  }
};

/// Replays `bags` against a fresh single-table store and collects the IO
/// counters. Row/pooled caches are off so every query exercises the IO
/// path (cache organization is benched elsewhere).
RunResult RunWorkload(const TableConfig& table, const std::vector<std::vector<RowIndex>>& bags,
                      IoBatching mode) {
  EventLoop loop;
  SdmStoreConfig cfg;
  cfg.fm_capacity = 32 * kMiB;
  cfg.sm_specs = {MakeOptaneSsdSpec()};
  cfg.sm_backing_bytes = {table.total_bytes() + kMiB};
  cfg.tuning.io_batching = mode;
  cfg.tuning.enable_row_cache = false;
  // Serve whatever table we're given from SM — including item tables (the
  // M3 / multi-tenant scenario where the item side outgrows FM).
  cfg.tuning.user_tables_only_on_sm = false;
  SdmStore store(cfg, &loop);

  ModelConfig model;
  model.name = "coalescing";
  model.tables = {table};
  if (!ModelLoader::Load(model, {}, &store).ok()) {
    std::fprintf(stderr, "model load failed\n");
    std::abort();
  }
  LookupEngine engine(&store);

  for (const auto& bag : bags) {
    LookupRequest req;
    req.table = MakeTableId(0);
    req.indices = bag;
    engine.Lookup(std::move(req),
                  [](Status s, std::vector<float>, const LookupTrace&) {
                    if (!s.ok()) std::abort();
                  });
    loop.RunUntilIdle();
  }

  RunResult r;
  r.queries = bags.size();
  r.rows_from_sm = engine.stats().CounterValue("rows_sm_read");
  r.rows_deduped = engine.stats().CounterValue("rows_deduped");
  r.device_reads = engine.stats().CounterValue("device_reads");
  r.io_bytes_saved = engine.stats().CounterValue("io_bytes_saved");
  r.bus_bytes = store.sm_device(0).stats().CounterValue("bus_bytes");
  r.batches = store.io_engine(0).stats().CounterValue("batches");
  r.io_cpu_s = store.io_engine(0).cpu_time().seconds();
  r.lookup_cpu_s = engine.cpu_time().seconds();
  r.iops_per_core = store.io_engine(0).IopsPerCore();
  r.mean_latency_us = engine.latency().mean() / 1e3;
  r.p99_latency_us = static_cast<double>(engine.latency().P99()) / 1e3;
  return r;
}

std::vector<std::vector<RowIndex>> MakeBags(const TableConfig& table, int queries,
                                            int bag_len, uint64_t seed) {
  TableAccessStream stream(table, seed);
  Rng rng(seed ^ 0x9d2c5680ULL);
  std::vector<std::vector<RowIndex>> bags(queries);
  for (auto& bag : bags) {
    bag.reserve(bag_len);
    for (int k = 0; k < bag_len; ++k) bag.push_back(stream.Next(rng));
  }
  return bags;
}

/// Median-sized M2 table of `role` (the fig5 population).
TableConfig PickTable(TableRole role) {
  const ModelConfig m2 = MakeM2();  // 1/1024 scale, as in the serving benches
  std::vector<const TableConfig*> picks;
  for (const auto& t : m2.tables) {
    if (t.role == role) picks.push_back(&t);
  }
  std::sort(picks.begin(), picks.end(), [](const TableConfig* a, const TableConfig* b) {
    return a->total_bytes() < b->total_bytes();
  });
  return *picks[picks.size() / 2];
}

void Compare(const char* title, const TableConfig& table, int queries, int bag_len,
             uint64_t seed, const char* json_prefix, bench::JsonReporter& json) {
  const auto bags = MakeBags(table, queries, bag_len, seed);

  // Fig. 5's metric for this exact stream: how packed accessed rows are
  // within 4KB blocks (1.0 = perfectly packed).
  std::vector<RowIndex> flat;
  for (const auto& b : bags) flat.insert(flat.end(), b.begin(), b.end());
  const SpatialLocality loc =
      AnalyzeSpatialLocality(flat, table.row_bytes(), /*window=*/50'000);

  const RunResult per_row = RunWorkload(table, bags, IoBatching::kPerRow);
  const RunResult coal = RunWorkload(table, bags, IoBatching::kCrossRequest);

  bench::Section(bench::Fmt("%s — table %s: %llu rows x %llu B (%llu rows/4KB), "
                            "bag %d, zipf %.2f, spatial ratio %.3f",
                            title, table.name.c_str(),
                            static_cast<unsigned long long>(table.num_rows),
                            static_cast<unsigned long long>(table.row_bytes()),
                            static_cast<unsigned long long>(kBlockSize / table.row_bytes()),
                            bag_len, table.zipf_alpha, loc.mean_ratio));

  bench::Table t({"path", "reads/query", "bus B/query", "io cpu ms", "IOPS/core",
                  "row-fetch/core-s", "mean us", "p99 us"});
  t.Row("per-row", per_row.ReadsPerQuery(), per_row.BusBytesPerQuery(),
        per_row.io_cpu_s * 1e3, per_row.iops_per_core, per_row.RowsPerIoCoreSec(),
        per_row.mean_latency_us, per_row.p99_latency_us);
  t.Row("coalesced", coal.ReadsPerQuery(), coal.BusBytesPerQuery(), coal.io_cpu_s * 1e3,
        coal.iops_per_core, coal.RowsPerIoCoreSec(), coal.mean_latency_us,
        coal.p99_latency_us);
  t.Print();

  const double read_reduction =
      coal.device_reads == 0 ? 0
                             : static_cast<double>(per_row.device_reads) /
                                   static_cast<double>(coal.device_reads);
  const double iops_gain = per_row.iops_per_core <= 0
                               ? 0
                               : coal.iops_per_core / per_row.iops_per_core;
  const double row_throughput_gain =
      per_row.RowsPerIoCoreSec() <= 0 ? 0
                                      : coal.RowsPerIoCoreSec() / per_row.RowsPerIoCoreSec();
  bench::Note(bench::Fmt(
      "device reads: %.2fx fewer; IOPS/core: %.2fx; row fetches per IO-core-second: %.2fx",
      read_reduction, iops_gain, row_throughput_gain));
  bench::Note(bench::Fmt(
      "deduped %.1f%% of SM rows; %llu ring doorbells for %llu reads; %.1f KiB bus saved/query",
      100.0 * static_cast<double>(coal.rows_deduped) /
          static_cast<double>(std::max<uint64_t>(1, coal.rows_from_sm + coal.rows_deduped)),
      static_cast<unsigned long long>(coal.batches),
      static_cast<unsigned long long>(coal.device_reads),
      static_cast<double>(coal.io_bytes_saved) / 1024.0 / static_cast<double>(queries)));

  json.Metric(bench::Fmt("%s_spatial_ratio", json_prefix), loc.mean_ratio);
  json.Metric(bench::Fmt("%s_perrow_reads_per_query", json_prefix), per_row.ReadsPerQuery());
  json.Metric(bench::Fmt("%s_coalesced_reads_per_query", json_prefix), coal.ReadsPerQuery());
  json.Metric(bench::Fmt("%s_read_reduction_x", json_prefix), read_reduction);
  json.Metric(bench::Fmt("%s_perrow_iops_per_core", json_prefix), per_row.iops_per_core);
  json.Metric(bench::Fmt("%s_coalesced_iops_per_core", json_prefix), coal.iops_per_core);
  json.Metric(bench::Fmt("%s_perrow_rowfetch_per_core_s", json_prefix),
              per_row.RowsPerIoCoreSec());
  json.Metric(bench::Fmt("%s_coalesced_rowfetch_per_core_s", json_prefix),
              coal.RowsPerIoCoreSec());
  json.Metric(bench::Fmt("%s_coalesced_p99_us", json_prefix), coal.p99_latency_us);
  json.Metric(bench::Fmt("%s_perrow_p99_us", json_prefix), per_row.p99_latency_us);
}

}  // namespace

int main(int argc, char** argv) {
  bench::QuietLogs quiet;
  bench::JsonReporter json(argc, argv, "coalescing");
  const int item_batch = 150;  // M2's B_I

  // Item table, one query = the flattened item-side bag (PF x B_I, how the
  // inference engine issues it). Hundreds of indices over a small hot set:
  // heavy duplication and dense block sharing — coalescing's home turf.
  const TableConfig item = PickTable(TableRole::kItem);
  Compare("item path (PF x B_I bag)", item, /*queries=*/300,
          static_cast<int>(item.avg_pooling_factor) * item_batch, /*seed=*/77, "item",
          json);

  // User table at serving scale: small per-query bags with the Fig. 5
  // scatter — mostly dedup + amortized submission.
  const TableConfig user = PickTable(TableRole::kUser);
  Compare("user path", user, /*queries=*/2000,
          static_cast<int>(user.avg_pooling_factor), /*seed=*/78, "user", json);

  // Production-sized index space: Fig. 5's low-spatial-locality regime —
  // block sharing disappears; dedup + batched submission remain.
  TableConfig prod = user;
  prod.num_rows *= 256;
  Compare("user path, production-scale index space", prod, /*queries=*/2000,
          static_cast<int>(user.avg_pooling_factor), /*seed=*/79, "prod", json);

  bench::Note("");
  bench::Note("paper tie-in: coalescing wins scale with Fig. 5 spatial locality (item >>");
  bench::Note("user); per-row IO stays available via TuningConfig::io_batching=kPerRow");
  bench::Note("for ablation.");
  return 0;
}
