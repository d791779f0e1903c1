// Tests for src/trace: Feistel permuter, table access streams, query
// generation (stickiness, churn), and the locality analyzers.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <unordered_set>

#include "dlrm/model_zoo.h"
#include "reference_index_permuter.h"
#include "trace/locality.h"
#include "trace/trace_gen.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// IndexPermuter.
// ---------------------------------------------------------------------------

class PermuterBijection : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PermuterBijection, IsBijectionOnDomain) {
  const uint64_t n = GetParam();
  IndexPermuter perm(n, 17);
  std::set<uint64_t> image;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t y = perm.Permute(i);
    EXPECT_LT(y, n);
    image.insert(y);
  }
  EXPECT_EQ(image.size(), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermuterBijection,
                         ::testing::Values(1, 2, 3, 16, 100, 1023, 4096, 10'000));

TEST(Permuter, DifferentSeedsGiveDifferentPermutations) {
  IndexPermuter a(1000, 1);
  IndexPermuter b(1000, 2);
  int same = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    if (a.Permute(i) == b.Permute(i)) ++same;
  }
  EXPECT_LT(same, 50);
}

TEST(Permuter, ScattersNeighbours) {
  // Consecutive ranks should not stay consecutive (that would fabricate
  // spatial locality).
  IndexPermuter perm(100'000, 3);
  int adjacent = 0;
  for (uint64_t i = 0; i + 1 < 1000; ++i) {
    const int64_t d = static_cast<int64_t>(perm.Permute(i + 1)) -
                      static_cast<int64_t>(perm.Permute(i));
    if (d == 1 || d == -1) ++adjacent;
  }
  EXPECT_LT(adjacent, 10);
}

// The memo keeps ranks below kMemoRanks; each size sits below, at or just
// past that edge, or spans many memo pages. Every rank is drawn twice, cold
// and then as a memo hit, and both must equal the un-memoised permuter.
class PermuterMemo : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(PermuterMemo, MatchesTheUnmemoisedPermuterColdAndHot) {
  const auto [n, seed] = GetParam();
  const IndexPermuter perm(n, seed);
  const ReferenceIndexPermuter reference(n, seed);
  for (uint64_t x = 0; x < n; ++x) {
    const uint64_t want = reference.Permute(x);
    ASSERT_EQ(perm.Permute(x), want) << "cold, rank " << x;
    ASSERT_EQ(perm.Permute(x), want) << "hot, rank " << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PermuterMemo,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 4095, 4096, 4097, 30'000, 65'536, 65'537),
                       ::testing::Values(1, 17, 0xdecafbad)));

// ---------------------------------------------------------------------------
// TableAccessStream.
// ---------------------------------------------------------------------------

TableConfig StreamConfig(double alpha, uint64_t rows = 100'000) {
  TableConfig cfg;
  cfg.name = "s";
  cfg.num_rows = rows;
  cfg.dim = 16;
  cfg.zipf_alpha = alpha;
  return cfg;
}

TEST(AccessStream, IndicesWithinDomain) {
  TableAccessStream stream(StreamConfig(0.9), 5);
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(stream.Next(rng), 100'000u);
}

TEST(AccessStream, HigherAlphaConcentrates) {
  Rng rng(2);
  auto unique_fraction = [&](double alpha) {
    TableAccessStream stream(StreamConfig(alpha), 7);
    std::unordered_set<RowIndex> uniq;
    for (int i = 0; i < 50'000; ++i) uniq.insert(stream.Next(rng));
    return static_cast<double>(uniq.size()) / 50'000.0;
  };
  EXPECT_LT(unique_fraction(1.1), unique_fraction(0.6));
  EXPECT_LT(unique_fraction(0.6), unique_fraction(0.0));
}

TEST(AccessStream, HottestIndexIsPermutedRankZero) {
  TableAccessStream stream(StreamConfig(1.2, 1000), 9);
  Rng rng(3);
  std::vector<uint64_t> counts(1000, 0);
  for (int i = 0; i < 200'000; ++i) ++counts[stream.Next(rng)];
  const RowIndex hottest_expected = stream.IndexAtRank(0);
  const auto hottest_actual = static_cast<RowIndex>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  EXPECT_EQ(hottest_actual, hottest_expected);
}

// ---------------------------------------------------------------------------
// QueryGenerator.
// ---------------------------------------------------------------------------

WorkloadConfig BaseWorkload(double churn = 0.0) {
  WorkloadConfig w;
  w.num_users = 1000;
  w.user_zipf_alpha = 0.8;
  w.user_index_churn = churn;
  w.seed = 99;
  return w;
}

TEST(QueryGen, ShapesMatchModel) {
  const ModelConfig model = MakeTinyUniformModel(16, 3, 2, 10'000);
  QueryGenerator gen(model, BaseWorkload());
  const Query q = gen.Next();
  ASSERT_EQ(q.indices.size(), model.tables.size());
  for (size_t t = 0; t < model.tables.size(); ++t) {
    EXPECT_FALSE(q.indices[t].empty());
    for (const RowIndex idx : q.indices[t]) {
      EXPECT_LT(idx, model.tables[t].num_rows);
    }
  }
}

TEST(QueryGen, ItemTablesCarryBatchedLookups) {
  ModelConfig model = MakeTinyUniformModel(16, 1, 1, 10'000);
  model.item_batch_size = 8;
  QueryGenerator gen(model, BaseWorkload());
  const Query q = gen.Next();
  // Item table (index 1): pf 4 * batch 8 = 32 lookups; user table ~pf 8.
  EXPECT_EQ(q.indices[1].size(), 32u);
  EXPECT_LT(q.indices[0].size(), 32u);
}

TEST(QueryGen, SameUserWithoutChurnRepeatsIndices) {
  const ModelConfig model = MakeTinyUniformModel(16, 2, 1, 10'000);
  QueryGenerator gen(model, BaseWorkload(0.0));
  const Query a = gen.ForUser(42);
  const Query b = gen.ForUser(42);
  for (size_t t = 0; t < model.tables.size(); ++t) {
    if (model.tables[t].role == TableRole::kUser) {
      EXPECT_EQ(a.indices[t], b.indices[t]) << "table " << t;
    }
  }
}

TEST(QueryGen, DifferentUsersDiffer) {
  const ModelConfig model = MakeTinyUniformModel(16, 2, 1, 10'000);
  QueryGenerator gen(model, BaseWorkload(0.0));
  const Query a = gen.ForUser(1);
  const Query b = gen.ForUser(2);
  EXPECT_NE(a.indices[0], b.indices[0]);
}

TEST(QueryGen, ChurnPerturbsSomeIndices) {
  const ModelConfig model = MakeTinyUniformModel(16, 2, 1, 10'000);
  QueryGenerator gen(model, BaseWorkload(0.3));
  const Query a = gen.ForUser(42);
  const Query b = gen.ForUser(42);
  // With churn the sticky sets mostly overlap but are not identical.
  size_t common = 0;
  size_t total = 0;
  for (size_t t = 0; t < model.tables.size(); ++t) {
    if (model.tables[t].role != TableRole::kUser) continue;
    std::multiset<RowIndex> sa(a.indices[t].begin(), a.indices[t].end());
    for (const RowIndex idx : b.indices[t]) {
      if (const auto it = sa.find(idx); it != sa.end()) {
        ++common;
        sa.erase(it);
      }
      ++total;
    }
  }
  EXPECT_GT(common, total / 3);  // substantial overlap
  EXPECT_LT(common, total);      // but not identical
}

TEST(QueryGen, PopularUsersRecur) {
  const ModelConfig model = MakeTinyUniformModel(16, 1, 1, 1000);
  WorkloadConfig w = BaseWorkload();
  w.user_zipf_alpha = 1.1;
  QueryGenerator gen(model, w);
  std::unordered_set<UserId> uniq;
  const int n = 5000;
  for (int i = 0; i < n; ++i) uniq.insert(gen.Next().user);
  // Zipf users: far fewer unique users than queries.
  EXPECT_LT(uniq.size(), static_cast<size_t>(n) / 3);
}

TEST(QueryGen, InferenceEvalBatchesUserSide) {
  // Table 2: InferenceEval runs user batch == item batch > 1, multiplying
  // the user-side lookups by the batch (samples come from distinct users).
  ModelConfig model = MakeTinyUniformModel(16, 1, 1, 10'000);
  QueryGenerator single(model, BaseWorkload(0.0));
  const size_t single_len = single.ForUser(42).indices[0].size();

  model.user_batch_size = 8;
  QueryGenerator batched(model, BaseWorkload(0.0));
  const size_t batched_len = batched.ForUser(42).indices[0].size();
  // ~8x the indices (per-user sticky lengths vary a little).
  EXPECT_GT(batched_len, 4 * single_len);
  EXPECT_LT(batched_len, 16 * single_len);
}

TEST(QueryGen, InferenceEvalStillStartsWithTheRoutedUser) {
  ModelConfig model = MakeTinyUniformModel(16, 1, 0, 10'000);
  QueryGenerator plain(model, BaseWorkload(0.0));
  const auto base = plain.ForUser(42).indices[0];

  model.user_batch_size = 4;
  QueryGenerator eval(model, BaseWorkload(0.0));
  const auto batched = eval.ForUser(42).indices[0];
  // The routed user's own sticky set leads the batch.
  ASSERT_GE(batched.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) EXPECT_EQ(batched[i], base[i]);
}

// The first 10^4 queries of three workload shapes, pinned by digest: the
// M1-mini and M2-mini models and the replicated model of the 16-host
// disaggregated cluster, with the user populations, churn and seeds the
// end-to-end benchmark gives them. Any change to what the generator draws
// (sampler, permutation, memo, stickiness) moves a digest.
// Row width does not change what is drawn, so the shapes leave it default.
ModelConfig MiniModel(uint64_t alpha_seed, size_t user_tables, uint64_t user_rows,
                      double user_pf, size_t item_tables, uint64_t item_rows, int item_batch) {
  ModelConfig model;
  model.item_batch_size = item_batch;
  Rng rng(alpha_seed);
  for (size_t i = 0; i < user_tables + item_tables; ++i) {
    const bool user = i < user_tables;
    TableConfig t;
    t.name = (user ? "user." : "item.") + std::to_string(i);
    t.role = user ? TableRole::kUser : TableRole::kItem;
    t.num_rows = user ? user_rows : item_rows;
    t.avg_pooling_factor = user ? user_pf : 4;
    t.zipf_alpha = user ? rng.NextDouble(0.65, 0.9) : rng.NextDouble(0.9, 1.15);
    model.tables.push_back(t);
  }
  return model;
}

/// FNV-1a over each query's user, per-table index count and indices.
uint64_t DigestOfFirstQueries(const ModelConfig& model, uint64_t users, double churn,
                              uint64_t seed) {
  WorkloadConfig w;
  w.num_users = users;
  w.user_index_churn = churn;
  w.seed = seed;
  QueryGenerator gen(model, w);
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (int q = 0; q < 10'000; ++q) {
    const Query query = gen.Next();
    mix(query.user);
    for (const auto& indices : query.indices) {
      mix(indices.size());
      for (const RowIndex idx : indices) mix(idx);
    }
  }
  return h;
}

TEST(QueryGen, FirstQueriesOfM1ShapeArePinned) {
  const ModelConfig m1 = MiniModel(0x81, 12, 30'000, 10, 6, 2'000, 10);
  EXPECT_EQ(DigestOfFirstQueries(m1, 1500, 0.02, 8), 0x6a80c3358529f7f8ULL);
}

TEST(QueryGen, FirstQueriesOfM2ShapeArePinned) {
  const ModelConfig m2 = MiniModel(0x92, 30, 25'000, 8, 15, 3'000, 30);
  EXPECT_EQ(DigestOfFirstQueries(m2, 6000, 0.05, 9), 0xc143b26eb60d33f8ULL);
}

TEST(QueryGen, FirstQueriesOfDisagg16ShapeArePinned) {
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;
  for (auto& t : model.tables) {
    if (t.role == TableRole::kUser) t.zipf_alpha = 1.1;
  }
  EXPECT_EQ(DigestOfFirstQueries(model, 2000, WorkloadConfig{}.user_index_churn, 11),
            0x4172ec537590070aULL);
}

// ---------------------------------------------------------------------------
// Temporal locality analysis (Fig. 4).
// ---------------------------------------------------------------------------

std::vector<RowIndex> Trace(double alpha, int n, uint64_t rows = 100'000) {
  TableAccessStream stream(StreamConfig(alpha, rows), 31);
  Rng rng(32);
  std::vector<RowIndex> t;
  t.reserve(n);
  for (int i = 0; i < n; ++i) t.push_back(stream.Next(rng));
  return t;
}

TEST(TemporalLocality, PowerLawTraceConcentrates) {
  const auto trace = Trace(1.0, 200'000);
  const auto result = AnalyzeTemporalLocality(trace);
  EXPECT_EQ(result.total_accesses, 200'000u);
  // Top 10% of unique rows should cover well over half the accesses.
  EXPECT_GT(result.ShareOfTopRows(0.10), 0.5);
  // And the CDF is monotone, ending at 1.
  for (size_t i = 1; i < result.cumulative.size(); ++i) {
    EXPECT_GE(result.cumulative[i], result.cumulative[i - 1]);
  }
  EXPECT_NEAR(result.cumulative.back(), 1.0, 1e-9);
}

TEST(TemporalLocality, UniformTraceDoesNot) {
  const auto trace = Trace(0.0, 200'000);
  const auto result = AnalyzeTemporalLocality(trace);
  EXPECT_LT(result.ShareOfTopRows(0.10), 0.25);
}

TEST(TemporalLocality, ItemAlphaBeatsUserAlpha) {
  // The Fig. 4 (a)-vs-(b) comparison: item tables (higher alpha) show more
  // concentration than user tables.
  const auto user = AnalyzeTemporalLocality(Trace(0.7, 100'000));
  const auto item = AnalyzeTemporalLocality(Trace(1.05, 100'000));
  EXPECT_GT(item.ShareOfTopRows(0.05), user.ShareOfTopRows(0.05));
}

TEST(TemporalLocality, EmptyTrace) {
  const auto result = AnalyzeTemporalLocality({});
  EXPECT_EQ(result.total_accesses, 0u);
  EXPECT_EQ(result.unique_rows, 0u);
  EXPECT_DOUBLE_EQ(result.ShareOfTopRows(0.5), 0.0);
}

// Per-host view under sticky routing shows more locality than under random
// routing (Fig. 4c): sticky keeps all of a user's repeats on one host, so
// that host re-sees the user's index set; random routing scatters them.
TEST(TemporalLocality, StickyRoutedHostMoreLocalThanRandomRouted) {
  const ModelConfig model = MakeTinyUniformModel(16, 1, 0, 50'000);
  WorkloadConfig w = BaseWorkload(0.05);
  w.num_users = 10'000;
  QueryGenerator gen(model, w);
  Rng route_rng(7);
  std::vector<RowIndex> sticky_host;
  std::vector<RowIndex> random_host;
  const size_t kHosts = 8;
  for (int i = 0; i < 40'000; ++i) {
    const Query q = gen.Next();
    const bool to_sticky_host = (q.user % kHosts) == 0;
    const bool to_random_host = route_rng.NextBounded(kHosts) == 0;
    for (const RowIndex idx : q.indices[0]) {
      if (to_sticky_host) sticky_host.push_back(idx);
      if (to_random_host) random_host.push_back(idx);
    }
  }
  const auto s = AnalyzeTemporalLocality(sticky_host);
  const auto r = AnalyzeTemporalLocality(random_host);
  // The sticky host needs fewer unique rows for the same traffic share and
  // concentrates more of its accesses in its hottest rows.
  EXPECT_LT(static_cast<double>(s.unique_rows) / static_cast<double>(s.total_accesses),
            static_cast<double>(r.unique_rows) / static_cast<double>(r.total_accesses));
  EXPECT_GT(s.ShareOfTopRows(0.1), r.ShareOfTopRows(0.1) * 0.98);
}

// ---------------------------------------------------------------------------
// Spatial locality analysis (Fig. 5).
// ---------------------------------------------------------------------------

TEST(SpatialLocality, PermutedZipfTraceIsLow) {
  const auto trace = Trace(0.8, 100'000);
  const auto result = AnalyzeSpatialLocality(trace, 128, 10'000);
  EXPECT_GT(result.windows, 0u);
  EXPECT_EQ(result.rows_per_block, kBlockSize / 128);
  // Fig. 5: production access is spatially cold.
  EXPECT_LT(result.mean_ratio, 0.3);
}

TEST(SpatialLocality, SequentialTraceIsHigh) {
  std::vector<RowIndex> seq;
  for (int r = 0; r < 3; ++r) {
    for (RowIndex i = 0; i < 32'000; ++i) seq.push_back(i);
  }
  const auto result = AnalyzeSpatialLocality(seq, 128, 32'000);
  EXPECT_GT(result.mean_ratio, 0.99);
}

TEST(SpatialLocality, BigRowsFillBlocksTrivially) {
  // 4KB rows: every row is its own block; ratio is always 1.
  const auto trace = Trace(0.8, 10'000);
  const auto result = AnalyzeSpatialLocality(trace, kBlockSize, 5'000);
  EXPECT_EQ(result.rows_per_block, 1u);
  EXPECT_NEAR(result.mean_ratio, 1.0, 1e-9);
}

TEST(SpatialLocality, EmptyTraceHandled) {
  const auto result = AnalyzeSpatialLocality({}, 128, 1000);
  EXPECT_EQ(result.windows, 0u);
  EXPECT_DOUBLE_EQ(result.mean_ratio, 0.0);
}

}  // namespace
}  // namespace sdm
