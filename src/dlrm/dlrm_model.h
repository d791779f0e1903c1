// DLRM — full model assembly (paper Fig. 2).
//
// Bottom MLP re-projects continuous features; embedding bags (served by the
// SDM's LookupEngine) densify categorical features; the dot-product
// interaction combines them; the top MLP produces the CTR score.
//
// The real-math path (Score*) requires every embedding table to share one
// dimension, as the dot interaction does in production DLRM. The cost path
// (ComputeCost) works for any ModelConfig and powers the serving simulator.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "dlrm/mlp.h"
#include "embedding/table_config.h"

namespace sdm {

struct DlrmArchitecture {
  uint32_t dense_features = 13;           ///< continuous input width
  std::vector<uint32_t> bottom_widths;    ///< hidden widths; output appended
  std::vector<uint32_t> top_widths;       ///< hidden widths; 1 appended
  uint32_t embedding_dim = 32;            ///< shared dim for interaction
  uint64_t seed = 7;
};

class DlrmModel {
 public:
  /// Builds the dense side. `sparse` describes the embedding tables (used
  /// for validation and cost modeling; their storage lives in the SDM).
  DlrmModel(DlrmArchitecture arch, ModelConfig sparse);

  /// Scores one (user, item) pair: `dense` continuous features and one
  /// pooled embedding vector per table (all of length embedding_dim).
  /// Returns the CTR probability in [0, 1].
  [[nodiscard]] Result<float> Score(std::span<const float> dense,
                                    std::span<const std::vector<float>> pooled) const;

  /// Dot-product feature interaction: bottom output and each pooled vector
  /// pairwise-dotted; returns [bottom ; upper-triangle dots].
  [[nodiscard]] std::vector<float> Interact(std::span<const float> bottom_out,
                                            std::span<const std::vector<float>> pooled) const;

  [[nodiscard]] const Mlp& bottom() const { return *bottom_; }
  [[nodiscard]] const Mlp& top() const { return *top_; }
  [[nodiscard]] const ModelConfig& sparse() const { return sparse_; }
  [[nodiscard]] const DlrmArchitecture& arch() const { return arch_; }

  /// Expected top-MLP input width for N tables of embedding_dim.
  [[nodiscard]] uint32_t InteractionWidth(size_t num_tables) const;

 private:
  DlrmArchitecture arch_;
  ModelConfig sparse_;
  std::unique_ptr<Mlp> bottom_;
  std::unique_ptr<Mlp> top_;
};

/// Analytic dense-compute cost for the serving simulator: approximates the
/// Table 6 "Num MLP layers / Avg MLP size" models without materializing
/// multi-thousand-wide weights.
struct DenseCostModel {
  double flops_per_sec = 2.0e11;  ///< effective per-host dense throughput

  [[nodiscard]] static uint64_t FlopsPerSample(const ModelConfig& model) {
    // num_layers dense layers of avg_width x avg_width.
    return uint64_t{2} * static_cast<uint64_t>(model.num_mlp_layers) *
           static_cast<uint64_t>(model.avg_mlp_width) *
           static_cast<uint64_t>(model.avg_mlp_width);
  }

  [[nodiscard]] SimDuration TimePerQuery(const ModelConfig& model) const {
    // One query scores item_batch_size items (user side broadcast).
    const double flops = static_cast<double>(FlopsPerSample(model)) *
                         static_cast<double>(model.item_batch_size);
    return Seconds(flops / flops_per_sec);
  }
};

}  // namespace sdm
