// Tests for QueryGenerator's lookahead worker (src/trace/trace_gen.h): the
// pipelined stream equals the sequential generator kept in
// tests/reference_query_generator.h query for query, across any sequence
// of Next, ForUser and stream calls; the worker starts only on the first
// Next and at most once; a generator can be destroyed in any worker state.
// CI runs these under ASan+UBSan and TSan too.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "reference_query_generator.h"
#include "trace/trace_gen.h"
#include "workload_shapes.h"

namespace sdm {
namespace {

::testing::AssertionResult SameQuery(const Query& got, const Query& want) {
  if (got.user != want.user) {
    return ::testing::AssertionFailure() << "user " << got.user << " != " << want.user;
  }
  if (got.indices.size() != want.indices.size()) {
    return ::testing::AssertionFailure()
           << got.indices.size() << " tables != " << want.indices.size();
  }
  for (size_t t = 0; t < got.indices.size(); ++t) {
    if (got.indices[t] == want.indices[t]) continue;
    if (got.indices[t].size() != want.indices[t].size()) {
      return ::testing::AssertionFailure() << "table " << t << ": " << got.indices[t].size()
                                           << " indices != " << want.indices[t].size();
    }
    for (size_t i = 0; i < got.indices[t].size(); ++i) {
      if (got.indices[t][i] != want.indices[t][i]) {
        return ::testing::AssertionFailure() << "table " << t << " index " << i << ": "
                                             << got.indices[t][i]
                                             << " != " << want.indices[t][i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Threads of this process, from /proc/self/task.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Polls ThreadCount() until it reads `want` (a joined thread can linger
/// in /proc for a moment after join returns) or a second passes.
size_t SettledThreadCount(size_t want) {
  size_t n = ThreadCount();
  for (int i = 0; i < 100 && n != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    n = ThreadCount();
  }
  return n;
}

/// Gives the worker time to fill its ring (a state the tests want to
/// reach often; what they assert holds in any state).
void LetTheWorkerRunAhead() { std::this_thread::sleep_for(std::chrono::milliseconds(30)); }

// ---------------------------------------------------------------------------
// The stream.
// ---------------------------------------------------------------------------

struct NamedShape {
  const char* name;
  WorkloadShape shape;
};

std::vector<NamedShape> Shapes() {
  WorkloadShape eval = M1Shape();  // InferenceEval: several users per query
  eval.model.user_batch_size = 4;
  eval.workload.user_index_churn = 0.3;
  return {{"M1", M1Shape()},
          {"M2", M2Shape()},
          {"Disagg16", Disagg16Shape()},
          {"M1UserBatch4Churn30", eval}};
}

class LookaheadStream : public ::testing::TestWithParam<NamedShape> {};

TEST_P(LookaheadStream, MatchesTheSequentialGeneratorFieldByField) {
  const WorkloadShape& shape = GetParam().shape;
  QueryGenerator gen(shape.model, shape.workload);
  ReferenceQueryGenerator ref(shape.model, shape.workload);
  for (int q = 0; q < 10'000; ++q) {
    ASSERT_TRUE(SameQuery(gen.Next(), ref.Next())) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LookaheadStream, ::testing::ValuesIn(Shapes()),
                         [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// Interleavings: ForUser and stream quiesce the worker and rewind its Rng.
// ---------------------------------------------------------------------------

TEST(LookaheadInterleaving, NextForUserStreamNextMatchesTheReference) {
  WorkloadShape shape = M1Shape();
  shape.model.user_batch_size = 2;
  shape.workload.user_index_churn = 0.2;
  // k = 0 quiesces a worker that never started; 1, 31, 32, 33 and 100 end
  // with the ring partly full, at its depth and past it.
  for (const int k : {0, 1, 5, 31, 32, 33, 100}) {
    for (const bool settle : {false, true}) {
      SCOPED_TRACE("k = " + std::to_string(k) + (settle ? ", ring settled" : ""));
      QueryGenerator gen(shape.model, shape.workload);
      ReferenceQueryGenerator ref(shape.model, shape.workload);
      for (int i = 0; i < k; ++i) ASSERT_TRUE(SameQuery(gen.Next(), ref.Next())) << i;
      if (settle) LetTheWorkerRunAhead();
      ASSERT_TRUE(SameQuery(gen.ForUser(42), ref.ForUser(42)));
      if (settle) {
        ASSERT_TRUE(SameQuery(gen.Next(), ref.Next()));
        LetTheWorkerRunAhead();
      }
      for (const uint64_t rank : {0, 1, 4095, 4096, 29'999}) {
        ASSERT_EQ(gen.stream(3).IndexAtRank(rank), ref.stream(3).IndexAtRank(rank)) << rank;
      }
      for (int i = 0; i < k + 40; ++i) ASSERT_TRUE(SameQuery(gen.Next(), ref.Next())) << i;
    }
  }
}

TEST(LookaheadInterleaving, RandomCallSequencesMatchTheReference) {
  const WorkloadShape shape = Disagg16Shape();
  Rng script(17);
  for (int episode = 0; episode < 8; ++episode) {
    QueryGenerator gen(shape.model, shape.workload);
    ReferenceQueryGenerator ref(shape.model, shape.workload);
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE("episode " + std::to_string(episode) + " step " + std::to_string(step));
      const uint64_t op = script.NextBounded(20);
      if (op == 0) {
        const UserId user = script.NextBounded(shape.workload.num_users);
        ASSERT_TRUE(SameQuery(gen.ForUser(user), ref.ForUser(user)));
      } else if (op == 1) {
        const size_t table = script.NextBounded(shape.model.tables.size());
        const uint64_t rank = script.NextBounded(shape.model.tables[table].num_rows);
        ASSERT_EQ(gen.stream(table).IndexAtRank(rank), ref.stream(table).IndexAtRank(rank));
      } else {
        ASSERT_TRUE(SameQuery(gen.Next(), ref.Next()));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The worker's life.
// ---------------------------------------------------------------------------

TEST(LookaheadWorker, StartsOnTheFirstNextOnlyAndOnce) {
  const WorkloadShape shape = M1Shape();
  // A first thread can bring a runtime helper thread with it (TSan starts
  // its background thread then); start and join one so it is in the base.
  std::thread([] {}).join();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const size_t base = ThreadCount();
  {
    std::vector<std::unique_ptr<QueryGenerator>> idle;
    for (int i = 0; i < 4; ++i) {
      idle.push_back(std::make_unique<QueryGenerator>(shape.model, shape.workload));
    }
    (void)idle[0]->ForUser(7);
    (void)idle[1]->stream(0).IndexAtRank(0);
    EXPECT_EQ(ThreadCount(), base) << "a generator never drawn from started a thread";

    for (int i = 0; i < 200; ++i) (void)idle[2]->Next();
    EXPECT_EQ(ThreadCount(), base + 1) << "one generator drawn from, one worker";
    for (int i = 0; i < 200; ++i) (void)idle[2]->Next();
    EXPECT_EQ(ThreadCount(), base + 1);

    // A quiesce ends the worker; the next Next starts one again.
    (void)idle[2]->ForUser(7);
    EXPECT_EQ(SettledThreadCount(base), base);
    (void)idle[2]->Next();
    EXPECT_EQ(ThreadCount(), base + 1);
  }
  EXPECT_EQ(SettledThreadCount(base), base) << "the destructor joins the worker";
}

TEST(LookaheadWorker, DestroysWithAFullRing) {
  const WorkloadShape shape = M2Shape();
  for (int rep = 0; rep < 3; ++rep) {
    QueryGenerator gen(shape.model, shape.workload);
    (void)gen.Next();
    LetTheWorkerRunAhead();
  }
}

TEST(LookaheadWorker, DestroysWhileTheWorkerIsMidGeneration) {
  // One query of this shape takes milliseconds to generate, so the worker
  // is inside Draw when the destructor stops it.
  WorkloadShape shape = M2Shape();
  shape.model.item_batch_size = 3'000;
  for (int rep = 0; rep < 3; ++rep) {
    QueryGenerator gen(shape.model, shape.workload);
    (void)gen.Next();
  }
}

TEST(LookaheadWorker, ForwardsAFailedDrawToNext) {
  // An item list too long for a vector: the draw throws on the worker.
  ModelConfig model = MakeTinyUniformModel(16, 1, 1, 10'000);
  model.tables[1].avg_pooling_factor = 1e18;
  model.item_batch_size = 2;
  ReferenceQueryGenerator ref(model, ShapeWorkload(100, 0.1, 3));
  EXPECT_THROW((void)ref.Next(), std::length_error);
  QueryGenerator gen(model, ShapeWorkload(100, 0.1, 3));
  EXPECT_THROW((void)gen.Next(), std::length_error);
  EXPECT_THROW((void)gen.Next(), std::length_error);
}

}  // namespace
}  // namespace sdm
