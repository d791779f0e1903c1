// Test helpers: the three workload shapes the end-to-end benchmark draws
// queries for (M1-mini, M2-mini and the replicated model of the 16-host
// disaggregated cluster), with the user populations, churn and seeds it
// gives them. Row width does not change what is drawn, so the shapes leave
// it default.
#pragma once

#include <string>

#include "common/rng.h"
#include "dlrm/model_zoo.h"
#include "trace/trace_gen.h"

namespace sdm {

struct WorkloadShape {
  ModelConfig model;
  WorkloadConfig workload;
};

inline ModelConfig MiniModel(uint64_t alpha_seed, size_t user_tables, uint64_t user_rows,
                             double user_pf, size_t item_tables, uint64_t item_rows,
                             int item_batch) {
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

inline WorkloadConfig ShapeWorkload(uint64_t users, double churn, uint64_t seed) {
  WorkloadConfig w;
  w.num_users = users;
  w.user_index_churn = churn;
  w.seed = seed;
  return w;
}

inline WorkloadShape M1Shape() {
  return {MiniModel(0x81, 12, 30'000, 10, 6, 2'000, 10), ShapeWorkload(1500, 0.02, 8)};
}

inline WorkloadShape M2Shape() {
  return {MiniModel(0x92, 30, 25'000, 8, 15, 3'000, 30), ShapeWorkload(6000, 0.05, 9)};
}

inline WorkloadShape Disagg16Shape() {
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;
  for (auto& t : model.tables) {
    if (t.role == TableRole::kUser) t.zipf_alpha = 1.1;
  }
  return {model, ShapeWorkload(2000, WorkloadConfig{}.user_index_churn, 11)};
}

}  // namespace sdm
