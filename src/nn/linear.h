// Fully connected layer: y = x·Wᵀ + b with per-unit prune masking.
#pragma once

#include "nn/layer.h"
#include "common/rng.h"

namespace fedcleanse::nn {

class Linear : public Layer {
 public:
  // Kaiming-uniform initialization from `rng`.
  Linear(int in_features, int out_features, common::Rng& rng);

  Tensor infer(const Tensor& x) const override;
  Tensor forward(const Tensor& x) override;
  // Forward fused with row softmax: returns softmax(x·Wᵀ + b), bit-identical
  // to forward() followed by tensor::softmax_rows. Used by the classifier
  // head so logits never round-trip through memory.
  Tensor forward_softmax(const Tensor& x);
  Tensor backward(const Tensor& grad_out) override;
  void release_cache() override { input_cache_ = Tensor(); }
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "Linear"; }

  int prunable_units() const override { return out_features_; }
  void set_unit_active(int unit, bool active) override;
  bool unit_active(int unit) const override;
  std::vector<std::uint8_t> prune_mask() const override { return active_; }

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

 private:
  int in_features_;
  int out_features_;
  Tensor weight_;  // [out, in]
  Tensor bias_;    // [out]
  Tensor grad_weight_;
  Tensor grad_bias_;
  std::vector<std::uint8_t> active_;
  // True iff any entry of active_ is 0; the fused-epilogue forward requires
  // the fully-active case (pruned units force the explicit masked bias loop).
  bool any_pruned_ = false;
  Tensor input_cache_;  // [N, in]
};

}  // namespace fedcleanse::nn
