#include "core/model_loader.h"

#include "common/logging.h"
#include "embedding/pruning.h"

namespace sdm {

namespace {

/// Expands a quantized image to fp32 storage (A.5 de-quantization at load).
EmbeddingTableImage DequantizedImage(const EmbeddingTableImage& image) {
  TableConfig cfg = image.config();
  cfg.dtype = DataType::kFp32;
  EmbeddingTableImage out(cfg);
  std::vector<float> row(cfg.dim);
  for (RowIndex r = 0; r < image.num_rows(); ++r) {
    DequantizeRow(image.config().dtype, image.Row(r), row);
    const Status s = out.SetRow(r, row);
    assert(s.ok());
    (void)s;
  }
  return out;
}

}  // namespace

Result<LoadReport> ModelLoader::Load(const ModelConfig& model, const LoaderOptions& options,
                                     SdmStore* store) {
  auto reports = LoadReplicas(model, options, std::span<SdmStore* const>(&store, 1));
  if (!reports.ok()) return reports.status();
  return std::move(reports).value().front();
}

Result<std::vector<LoadReport>> ModelLoader::LoadReplicas(const ModelConfig& model,
                                                          const LoaderOptions& options,
                                                          std::span<SdmStore* const> stores) {
  if (stores.empty()) return InvalidArgumentError("no stores to load");
  std::vector<LoadReport> reports(stores.size());
  for (size_t s = 0; s < stores.size(); ++s) {
    if (stores[s]->loading_finished()) {
      return FailedPreconditionError("store already sealed");
    }
    auto plan_result = ComputePlacement(model, stores[s]->tuning());
    if (!plan_result.ok()) return plan_result.status();
    reports[s].plan = std::move(plan_result).value();
  }

  // Each table is transformed once for every store, so the stores must
  // agree on every input the transforms read: the transform knobs and each
  // table's tier.
  const TuningConfig& tuning = stores[0]->tuning();
  for (size_t s = 1; s < stores.size(); ++s) {
    const TuningConfig& other = stores[s]->tuning();
    bool same = other.deprune_at_load == tuning.deprune_at_load &&
                other.dequantize_at_load == tuning.dequantize_at_load;
    for (size_t i = 0; same && i < model.tables.size(); ++i) {
      same = reports[s].plan.tables[i].tier == reports[0].plan.tables[i].tier;
    }
    if (!same) {
      return InvalidArgumentError("replica stores would load different bytes for one model");
    }
  }

  LoadReport counts;  // transform tallies, identical for every store
  for (size_t i = 0; i < model.tables.size(); ++i) {
    const TableConfig& cfg = model.tables[i];
    const MemoryTier tier = reports[0].plan.tables[i].tier;
    const uint64_t table_seed = TableSeed(options, i);

    EmbeddingTableImage image = EmbeddingTableImage::GenerateRandom(cfg, table_seed);
    std::optional<MappingTensor> mapping;
    const uint64_t index_domain = cfg.num_rows;

    // -- Pruning --------------------------------------------------------
    const bool prune =
        (options.prune_keep_fraction < 1.0 || options.prune_keep_predicate) &&
        (!options.prune_user_tables_only || cfg.role == TableRole::kUser);
    if (prune) {
      PrunedTable pruned =
          options.prune_keep_predicate
              ? PruneTableWithPredicate(image,
                                        [&options, i](RowIndex row) {
                                          return options.prune_keep_predicate(i, row);
                                        })
              : PruneTable(image, options.prune_keep_fraction, table_seed + 1);
      ++counts.tables_pruned;
      if (tuning.deprune_at_load && tier == MemoryTier::kSm) {
        // Algorithm 2: dense table, no mapping tensor.
        image = DeprunedTable(pruned);
        ++counts.tables_depruned;
      } else {
        image = std::move(pruned.rows);
        mapping = std::move(pruned.mapping);
      }
    }

    // -- De-quantization at load (SM tables only; A.5) --------------------
    if (tuning.dequantize_at_load && tier == MemoryTier::kSm &&
        image.config().dtype != DataType::kFp32) {
      image = DequantizedImage(image);
      ++counts.tables_dequantized;
    }

    // -- Install into every store -----------------------------------------
    // The hash is the shared-device dedup key, so only SM tables need it.
    const uint64_t hash = tier == MemoryTier::kSm ? image.ContentHash() : 0;
    for (size_t s = 0; s < stores.size(); ++s) {
      // Every store owns its mapping tensor; the last one takes the original.
      std::optional<MappingTensor> own = s + 1 == stores.size() ? std::move(mapping) : mapping;
      auto loaded = stores[s]->LoadTable(image, reports[s].plan.tables[i], std::move(own),
                                         index_domain, hash);
      if (!loaded.ok()) return loaded.status();
    }
    ++counts.tables_loaded;
  }

  for (size_t s = 0; s < stores.size(); ++s) {
    SdmStore* store = stores[s];
    if (Status st = store->FinishLoading(); !st.ok()) return st;
    LoadReport& report = reports[s];
    report.tables_loaded = counts.tables_loaded;
    report.tables_pruned = counts.tables_pruned;
    report.tables_depruned = counts.tables_depruned;
    report.tables_dequantized = counts.tables_dequantized;
    report.fm_direct_bytes = store->fm_direct_bytes();
    report.fm_mapping_bytes = store->fm_mapping_bytes();
    report.sm_bytes = store->sm_used_bytes();
    report.sm_write_time = store->load_write_time();
  }
  SDM_LOG_INFO << "Loaded " << counts.tables_loaded << " tables (" << counts.tables_pruned
               << " pruned, " << counts.tables_depruned << " de-pruned, "
               << counts.tables_dequantized << " de-quantized) into " << stores.size()
               << (stores.size() == 1 ? " store" : " stores");
  return reports;
}

}  // namespace sdm
