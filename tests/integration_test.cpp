// End-to-end integration tests: the full pipeline (model zoo -> loader ->
// SDM -> inference -> fleet math) wired together the way the benches use it,
// with numeric correctness checked against the deterministic table images.
#include <gtest/gtest.h>

#include <cmath>

#include "core/model_updater.h"
#include "dlrm/dlrm_model.h"
#include "dlrm/model_zoo.h"
#include "io/direct_reader.h"
#include "io/mmap_reader.h"
#include "serving/cluster.h"
#include "serving/host.h"

namespace sdm {
namespace {

HostSimConfig BaseConfig(HostSpec host = MakeHwSS()) {
  HostSimConfig cfg;
  cfg.host = std::move(host);
  cfg.fm_capacity = 16 * kMiB;
  cfg.sm_backing_per_device = 64 * kMiB;
  cfg.workload.num_users = 3000;
  cfg.workload.user_index_churn = 0.05;
  cfg.workload.seed = 21;
  cfg.seed = 21;
  return cfg;
}

// ---------------------------------------------------------------------------
// Numeric correctness through the whole serving stack.
// ---------------------------------------------------------------------------

TEST(EndToEnd, ServedPooledValuesMatchImages) {
  const ModelConfig model = MakeTinyUniformModel(16, 3, 1, 3000);
  HostSimConfig cfg = BaseConfig();
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(model).ok());

  // Issue one controlled lookup per table and verify against references.
  LookupEngine& engine = sim.engine().lookups();
  for (size_t t = 0; t < model.tables.size(); ++t) {
    const std::vector<RowIndex> indices = {1, 7, 2049 % model.tables[t].num_rows};
    std::vector<float> pooled;
    bool done = false;
    LookupRequest req;
    req.table = MakeTableId(static_cast<uint32_t>(t));
    req.indices = indices;
    engine.Lookup(std::move(req), [&](Status s, std::vector<float> out, const LookupTrace&) {
      ASSERT_TRUE(s.ok());
      pooled = std::move(out);
      done = true;
    });
    sim.loop().RunUntilIdle();
    ASSERT_TRUE(done);

    const uint64_t seed = cfg.loader.seed ^ (0xabcdef12345678ULL * (t + 1));
    const auto image = EmbeddingTableImage::GenerateRandom(model.tables[t], seed);
    std::vector<float> ref(model.tables[t].dim, 0.0f);
    for (const RowIndex idx : indices) {
      const auto row = image.DequantizedRow(idx);
      for (size_t i = 0; i < ref.size(); ++i) ref[i] += row[i];
    }
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(pooled[i], ref[i], 1e-4f) << "table " << t;
    }
  }
}

TEST(EndToEnd, DlrmScoresFromServedEmbeddings) {
  // Full real-math query: SDM-served pooled embeddings feed the actual
  // bottom/top MLPs and produce a CTR in (0, 1).
  const ModelConfig model = MakeTinyUniformModel(16, 3, 1, 3000);
  HostSimConfig cfg = BaseConfig();
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(model).ok());

  DlrmArchitecture arch;
  arch.dense_features = 13;
  arch.bottom_widths = {32};
  arch.top_widths = {32};
  arch.embedding_dim = 16;
  DlrmModel dlrm(arch, model);

  QueryGenerator& workload = sim.workload();
  const Query q = workload.Next();
  std::vector<std::vector<float>> pooled(model.tables.size());
  size_t remaining = model.tables.size();
  for (size_t t = 0; t < model.tables.size(); ++t) {
    LookupRequest req;
    req.table = MakeTableId(static_cast<uint32_t>(t));
    req.indices = q.indices[t];
    sim.engine().lookups().Lookup(
        std::move(req), [&pooled, &remaining, t](Status s, std::vector<float> out,
                                                 const LookupTrace&) {
          ASSERT_TRUE(s.ok());
          pooled[t] = std::move(out);
          --remaining;
        });
  }
  sim.loop().RunUntilIdle();
  ASSERT_EQ(remaining, 0u);

  std::vector<float> dense(13, 0.4f);
  const auto score = dlrm.Score(dense, pooled);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(score.value(), 0.0f);
  EXPECT_LT(score.value(), 1.0f);
}

TEST(EndToEnd, ValuesSurviveModelUpdate) {
  const ModelConfig model = MakeTinyUniformModel(16, 2, 1, 1000);
  HostSimulation sim(BaseConfig());
  ASSERT_TRUE(sim.LoadModel(model).ok());
  sim.Warmup(500);

  ModelUpdater updater(&sim.store());
  UpdateOptions opts;
  opts.row_fraction = 1.0;
  opts.online = true;
  opts.seed = 1234;
  ASSERT_TRUE(updater.Update(opts).ok());

  // After the update the served values must match a freshly generated
  // update stream (same deterministic seeding as ModelUpdater).
  Rng rng(opts.seed);
  // Reconstruct updated row values: ModelUpdater sweeps tables in order,
  // rows sequentially, drawing dim floats per row.
  for (size_t t = 0; t < model.tables.size(); ++t) {
    const TableRuntime& rt = sim.store().table(MakeTableId(static_cast<uint32_t>(t)));
    std::vector<std::vector<float>> expected(rt.config.num_rows,
                                             std::vector<float>(rt.config.dim));
    for (uint64_t r = 0; r < rt.config.num_rows; ++r) {
      for (auto& v : expected[r]) v = static_cast<float>(rng.NextDouble(-1.0, 1.0));
    }
    // Spot-check a few rows through the engine.
    for (const RowIndex probe : {RowIndex{0}, RowIndex{499}, RowIndex{999}}) {
      std::vector<float> pooled;
      bool done = false;
      LookupRequest req;
      req.table = rt.id;
      req.indices = {probe};
      sim.engine().lookups().Lookup(
          std::move(req),
          [&](Status s, std::vector<float> out, const LookupTrace&) {
            ASSERT_TRUE(s.ok());
            pooled = std::move(out);
            done = true;
          });
      sim.loop().RunUntilIdle();
      ASSERT_TRUE(done);
      for (size_t i = 0; i < pooled.size(); ++i) {
        EXPECT_NEAR(pooled[i], expected[probe][i], 2.0f / 255.0f + 1e-4f)
            << "table " << t << " row " << probe;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Design-choice comparisons at system level.
// ---------------------------------------------------------------------------

TEST(EndToEnd, MmapSlowerThanDirectIoWithRowCache) {
  // §4.1's design decision, at the application level: same FM budget spent
  // on a page cache (mmap) versus an application row cache (DIRECT_IO).
  // 128B rows with no spatial locality waste ~32x of every cached page, so
  // the row cache converts the same bytes into a far higher hit rate; the
  // paper observed ~3x higher access latency for mmap.
  EventLoop loop;
  NvmeDevice mmap_dev(MakeOptaneSsdSpec(), 8 * kMiB, &loop, 3);
  NvmeDevice direct_dev(MakeOptaneSsdSpec(), 8 * kMiB, &loop, 3);
  std::vector<uint8_t> init(8 * kMiB, 7);
  ASSERT_TRUE(mmap_dev.Write(0, init).ok());
  ASSERT_TRUE(direct_dev.Write(0, init).ok());
  IoEngine mmap_engine(&mmap_dev, &loop, {});
  IoEngine direct_engine(&direct_dev, &loop, {});

  const Bytes kFmBudget = 1 * kMiB;
  MmapReader mmap(&mmap_engine, MmapReaderConfig{kFmBudget});
  DirectIoReader direct(&direct_engine, DirectReaderConfig{});
  CpuOptimizedCacheConfig row_cfg;
  row_cfg.capacity = kFmBudget;
  CpuOptimizedCache row_cache(row_cfg);

  constexpr Bytes kRowBytes = 128;
  const uint64_t kRows = 8 * kMiB / kRowBytes;
  ZipfSampler zipf(kRows, 0.9);
  IndexPermuter perm(kRows, 9);
  Rng rng(4);
  SimDuration mmap_total;
  SimDuration direct_total;
  const int kReads = 4000;
  for (int i = 0; i < kReads; ++i) {
    const RowIndex row = perm.Permute(zipf.Sample(rng));
    const Bytes offset = row * kRowBytes;
    std::vector<uint8_t> out(kRowBytes);
    mmap.Read(offset, out, [&](Status s, SimDuration lat) {
      ASSERT_TRUE(s.ok());
      mmap_total += lat;
    });
    loop.RunUntilIdle();

    // DIRECT_IO path: row cache first, device on miss, insert on return.
    const RowKey key{MakeTableId(0), row};
    size_t len = 0;
    if (row_cache.Lookup(key, out, &len)) {
      direct_total += row_cfg.lookup_cpu;
    } else {
      direct.ReadRow(offset, out, [&](Status s, SimDuration lat) {
        ASSERT_TRUE(s.ok());
        direct_total += lat;
        row_cache.Insert(key, out);
      });
      loop.RunUntilIdle();
    }
  }
  EXPECT_GT(static_cast<double>(mmap_total.nanos()),
            1.5 * static_cast<double>(direct_total.nanos()));
}

TEST(EndToEnd, DepruningBoostsCacheBudgetAndHitRate) {
  // §4.5: freeing mapping tensors grows the cache; with a tight FM the hit
  // rate (and SM-bound throughput) improves despite +2.5% extra requests.
  // Build a model whose mapping tensors are a large share of FM: big user
  // tables (mapping 4B/row), small item table.
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 60'000);
  model.tables.back().num_rows = 2000;  // small FM-resident item table
  HostSimConfig base = BaseConfig();
  base.fm_capacity = 1536 * kKiB;  // tight FM so mapping tensors matter
  base.sm_backing_per_device = 64 * kMiB;
  base.loader.prune_keep_fraction = 0.5;

  HostSimConfig mapping_cfg = base;
  HostSimConfig deprune_cfg = base;
  deprune_cfg.tuning.deprune_at_load = true;

  HostSimulation with_mapping(mapping_cfg);
  HostSimulation depruned(deprune_cfg);
  ASSERT_TRUE(with_mapping.LoadModel(model).ok());
  ASSERT_TRUE(depruned.LoadModel(model).ok());
  EXPECT_GT(depruned.store().fm_cache_budget(), with_mapping.store().fm_cache_budget());

  with_mapping.Warmup(2000);
  depruned.Warmup(2000);
  const HostRunReport rm = with_mapping.Run(300, 1000);
  const HostRunReport rd = depruned.Run(300, 1000);
  EXPECT_GT(rd.row_cache_hit_rate, rm.row_cache_hit_rate);
}

TEST(EndToEnd, PooledCacheReducesRowTraffic) {
  ModelConfig model = MakeTinyUniformModel(16, 3, 1, 5000);
  HostSimConfig off_cfg = BaseConfig();
  off_cfg.workload.user_index_churn = 0.0;  // identical workloads both sides
  HostSimConfig on_cfg = off_cfg;
  on_cfg.tuning.enable_pooled_cache = true;
  on_cfg.tuning.pooled_cache.capacity = 2 * kMiB;
  on_cfg.tuning.pooled_cache.len_threshold = 1;

  HostSimulation off(off_cfg);
  HostSimulation on(on_cfg);
  ASSERT_TRUE(off.LoadModel(model).ok());
  ASSERT_TRUE(on.LoadModel(model).ok());
  off.Warmup(2000);
  on.Warmup(2000);
  (void)off.Run(300, 1500);
  const HostRunReport r_on = on.Run(300, 1500);
  EXPECT_GT(r_on.pooled_hit_rate, 0.0);
  // Pooled hits skip row-cache probes entirely.
  const uint64_t probes_on = on.engine().lookups().stats().CounterValue("rows_cache_hit") +
                             on.engine().lookups().stats().CounterValue("rows_sm_read");
  const uint64_t probes_off =
      off.engine().lookups().stats().CounterValue("rows_cache_hit") +
      off.engine().lookups().stats().CounterValue("rows_sm_read");
  EXPECT_LT(probes_on, probes_off);
}

TEST(EndToEnd, M1ScaledModelServesWithHighHitRate) {
  // A scaled-down M1 on HW-SS: the §5.1 configuration. Steady-state cache
  // hit rate should be high (paper: >96%) and the p95 well-behaved.
  const ModelConfig m1 = MakeM1(1.0 / 4096);  // ~35MB
  HostSimConfig cfg = BaseConfig(MakeHwSS());
  cfg.fm_capacity = 24 * kMiB;
  cfg.sm_backing_per_device = 48 * kMiB;
  cfg.workload.num_users = 1000;
  cfg.workload.user_index_churn = 0.01;
  cfg.workload.pooling_scale = 0.25;  // keep runtimes test-friendly
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(m1).ok());
  sim.Warmup(2000);
  const HostRunReport r = sim.Run(120, 800);
  EXPECT_GT(r.row_cache_hit_rate, 0.80);
  EXPECT_EQ(r.queries_completed, 800u);
  EXPECT_LT(r.p95.millis(), 50.0);
}

TEST(EndToEnd, WarmupRecoversWithinMinutes) {
  // A.4: after a full offline update the cache refills in a bounded number
  // of queries (minutes at production QPS).
  const ModelConfig model = MakeTinyUniformModel(16, 3, 1, 3000);
  HostSimulation sim(BaseConfig());
  ASSERT_TRUE(sim.LoadModel(model).ok());
  sim.Warmup(3000);
  const HostRunReport steady = sim.Run(300, 500);

  ModelUpdater updater(&sim.store());
  UpdateOptions opts;
  opts.online = false;  // cold caches
  ASSERT_TRUE(updater.Update(opts).ok());
  const HostRunReport cold = sim.Run(300, 500);
  EXPECT_LT(cold.row_cache_hit_rate, steady.row_cache_hit_rate);

  sim.Warmup(3000);
  const HostRunReport recovered = sim.Run(300, 500);
  EXPECT_NEAR(recovered.row_cache_hit_rate, steady.row_cache_hit_rate, 0.08);
}

}  // namespace
}  // namespace sdm
