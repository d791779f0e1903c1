// ModelLoader — builds table images and loads them into an SdmStore.
//
// Applies the load-time transforms of paper §4.5 / Appendix A.5 in order:
//   1. generation  : deterministic random quantized tables from the config;
//   2. pruning     : optionally prune user tables (mapping tensor appears);
//   3. de-pruning  : if tuning.deprune_at_load, rebuild dense tables so the
//                    mapping tensors release their FM (Algorithm 2);
//   4. de-quant    : if tuning.dequantize_at_load, expand SM-placed tables
//                    to fp32 at load (spends cheap SM, larger cached rows);
//   5. placement   : ComputePlacement decides FM vs SM and cache enablement;
//   6. load        : bytes written to devices, store sealed by the caller.
//
// Replicas: a cluster whose hosts serve one model loads every host's store
// in one pass (LoadReplicas). Each table is generated, transformed and
// content-hashed once, installed into every store, and freed before the
// next table — so even a single-store load holds one table image at a time.
// Load is the one-store case of the same loop.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/placement.h"
#include "core/sdm_store.h"
#include "embedding/table_config.h"

namespace sdm {

struct LoaderOptions {
  /// Fraction of rows kept when pruning (1.0 = no pruning).
  double prune_keep_fraction = 1.0;
  /// Prune only user tables (the paper prunes the capacity-heavy side).
  bool prune_user_tables_only = true;
  /// When set, decides survivors instead of the random keep fraction —
  /// lets experiments prune *cold* rows the way production does (so
  /// de-pruning adds only a small fraction of extra requests, §4.5).
  std::function<bool(size_t table_index, RowIndex row)> prune_keep_predicate;
  uint64_t seed = 1234;
};

struct LoadReport {
  PlacementPlan plan;
  size_t tables_loaded = 0;
  size_t tables_pruned = 0;
  size_t tables_depruned = 0;
  size_t tables_dequantized = 0;
  Bytes fm_direct_bytes = 0;
  Bytes fm_mapping_bytes = 0;
  Bytes sm_bytes = 0;
  SimDuration sm_write_time;
};

class ModelLoader {
 public:
  /// Generates, transforms, places and loads every table of `model` into
  /// `store`, then seals the store (FinishLoading). The store's tuning
  /// config governs the §4.5 transforms.
  [[nodiscard]] static Result<LoadReport> Load(const ModelConfig& model,
                                               const LoaderOptions& options, SdmStore* store);

  /// Load into every store of `stores` (one report each, in order): table by
  /// table, the image is built and hashed once and installed into each
  /// store, whose mapping tensor (if pruned) is its own copy. Every store is
  /// sealed at the end. Fails before touching any store when one is already
  /// sealed, or when the stores' tunings would place or transform a table
  /// differently (replicas must hold identical bytes).
  [[nodiscard]] static Result<std::vector<LoadReport>> LoadReplicas(
      const ModelConfig& model, const LoaderOptions& options,
      std::span<SdmStore* const> stores);

  /// Generator seed of table `table_index` — with its TableConfig, what
  /// EmbeddingTableImage::ReferenceRowValues needs to reproduce a loaded row.
  [[nodiscard]] static uint64_t TableSeed(const LoaderOptions& options, size_t table_index) {
    return options.seed ^ (0xabcdef12345678ULL * (table_index + 1));
  }
};

}  // namespace sdm
