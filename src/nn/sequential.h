// Sequential container: the whole-model abstraction used by clients, the
// server, the defense pipeline, and Neural Cleanse.
//
// Parameters can be flattened to a single float vector (the FedAvg wire
// format) and restored; prune masks are carried separately because they are
// structural state decided by the defense, not trained state.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/layer.h"
#include "tensor/quant.h"

namespace fedcleanse::nn {

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  // Returns the index of the added layer.
  int add(std::unique_ptr<Layer> layer);

  int size() const { return static_cast<int>(layers_.size()); }
  Layer& layer(int i) { return *layers_[static_cast<std::size_t>(i)]; }
  const Layer& layer(int i) const { return *layers_[static_cast<std::size_t>(i)]; }

  // Forward fuses Conv2d+ReLU pairs into a single GEMM-with-epilogue step
  // (bit-identical to running the layers separately) and caches what
  // backward needs.
  Tensor forward(const Tensor& x);
  // The same computation without caching anything (each layer's const
  // infer), so one model can serve concurrent callers. Each output row
  // depends only on its own input row. With `tap_out`, the output of layer
  // `tap_index` is copied into it (the activations at the pruning layer); a
  // tap on a Conv2d whose ReLU would be fused suppresses that fusion so the
  // tapped values stay pre-activation. `kernel` runs the convolutions under
  // a reduced-precision kernel — opt-in, used only by the defense's
  // activation-profiling scans.
  Tensor infer(const Tensor& x, int tap_index = -1, Tensor* tap_out = nullptr,
               tensor::ComputeKernel kernel = tensor::ComputeKernel::kF32) const;
  // Forward with the classifier head's softmax fused into its GEMM: returns
  // row probabilities, bit-identical to softmax_rows over forward()'s
  // logits. The training loop pairs it with SoftmaxCrossEntropy::forward_probs.
  Tensor forward_probs(const Tensor& x);
  // Backpropagate from dLoss/dOutput; returns dLoss/dInput.
  Tensor backward(const Tensor& grad_out);
  // Backpropagate for the parameter gradients only: the same gradients as
  // backward, but the first layer runs Layer::backward_params, so no
  // dLoss/dInput is computed for the model's input. The training step uses
  // it; input-gradient consumers (Neural Cleanse) keep backward.
  void backward_params(const Tensor& grad_out);
  // Free every layer's forward cache (Layer::release_cache), so a model
  // that is done training holds only its parameters.
  void release_caches();

  void zero_grad();
  std::vector<ParamRef> params();
  std::size_t num_params() const;

  // Flat parameter vector in layer order (the FedAvg wire format).
  std::vector<float> get_flat() const;
  void set_flat(std::span<const float> flat);

  // Prune masks for every layer (empty vector for non-prunable layers).
  std::vector<std::vector<std::uint8_t>> prune_masks() const;
  void set_prune_masks(const std::vector<std::vector<std::uint8_t>>& masks);

  Sequential clone() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace fedcleanse::nn
