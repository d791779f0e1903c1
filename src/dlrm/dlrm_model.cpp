#include "dlrm/dlrm_model.h"

#include <cassert>

namespace sdm {

DlrmModel::DlrmModel(DlrmArchitecture arch, ModelConfig sparse)
    : arch_(std::move(arch)), sparse_(std::move(sparse)) {
  // Bottom: dense_features -> hidden... -> embedding_dim (so the bottom
  // output participates in the dot interaction).
  std::vector<uint32_t> bw;
  bw.push_back(arch_.dense_features);
  bw.insert(bw.end(), arch_.bottom_widths.begin(), arch_.bottom_widths.end());
  bw.push_back(arch_.embedding_dim);
  bottom_ = std::make_unique<Mlp>(bw, LinearLayer::Activation::kRelu, arch_.seed);

  std::vector<uint32_t> tw;
  tw.push_back(InteractionWidth(sparse_.tables.size()));
  tw.insert(tw.end(), arch_.top_widths.begin(), arch_.top_widths.end());
  tw.push_back(1);
  top_ = std::make_unique<Mlp>(tw, LinearLayer::Activation::kSigmoid, arch_.seed + 1);
}

uint32_t DlrmModel::InteractionWidth(size_t num_tables) const {
  // bottom output (d) + upper triangle of pairwise dots among the
  // (num_tables + 1) dense vectors.
  const auto n = static_cast<uint32_t>(num_tables) + 1;
  return arch_.embedding_dim + n * (n - 1) / 2;
}

std::vector<float> DlrmModel::Interact(std::span<const float> bottom_out,
                                       std::span<const std::vector<float>> pooled) const {
  const uint32_t d = arch_.embedding_dim;
  assert(bottom_out.size() == d);

  // Collect the (tables + 1) vectors.
  std::vector<std::span<const float>> vecs;
  vecs.reserve(pooled.size() + 1);
  vecs.emplace_back(bottom_out);
  for (const auto& p : pooled) {
    assert(p.size() == d);
    vecs.emplace_back(p);
  }

  std::vector<float> out;
  out.reserve(InteractionWidth(pooled.size()));
  out.insert(out.end(), bottom_out.begin(), bottom_out.end());
  for (size_t i = 0; i < vecs.size(); ++i) {
    for (size_t j = i + 1; j < vecs.size(); ++j) {
      float dot = 0;
      for (uint32_t k = 0; k < d; ++k) dot += vecs[i][k] * vecs[j][k];
      out.push_back(dot);
    }
  }
  return out;
}

Result<float> DlrmModel::Score(std::span<const float> dense,
                               std::span<const std::vector<float>> pooled) const {
  if (dense.size() != arch_.dense_features) {
    return InvalidArgumentError("dense feature width mismatch");
  }
  if (pooled.size() != sparse_.tables.size()) {
    return InvalidArgumentError("pooled vector count != table count");
  }
  for (const auto& p : pooled) {
    if (p.size() != arch_.embedding_dim) {
      return InvalidArgumentError("pooled vector dim != embedding_dim");
    }
  }
  const std::vector<float> bottom_out = bottom_->Forward(dense);
  const std::vector<float> z = Interact(bottom_out, pooled);
  const std::vector<float> y = top_->Forward(z);
  assert(y.size() == 1);
  return y[0];
}

}  // namespace sdm
