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
  // (bit-identical to running the layers separately).
  Tensor forward(const Tensor& x);
  // Forward that additionally copies the output of layer `tap_index` into
  // `tap_out` (used to record activations at the pruning layer). A tap on a
  // Conv2d whose ReLU would be fused suppresses that fusion so the tapped
  // values stay pre-activation. The ComputeKernel overload runs convolutions
  // under a reduced-precision kernel — opt-in, used only by the defense's
  // activation-profiling scans.
  Tensor forward_with_tap(const Tensor& x, int tap_index, Tensor& tap_out);
  Tensor forward_with_tap(const Tensor& x, int tap_index, Tensor& tap_out,
                          tensor::ComputeKernel kernel);
  // Forward with the classifier head's softmax fused into its GEMM: returns
  // row probabilities, bit-identical to softmax_rows over forward()'s
  // logits. The training loop pairs it with SoftmaxCrossEntropy::forward_probs.
  Tensor forward_probs(const Tensor& x);
  // Backpropagate from dLoss/dOutput; returns dLoss/dInput.
  Tensor backward(const Tensor& grad_out);

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
  // Shared driver behind every forward variant: optional tap, per-call conv
  // kernel, optional fused-softmax head.
  Tensor run_forward(const Tensor& x, int tap_index, Tensor* tap_out,
                     tensor::ComputeKernel kernel, bool fuse_softmax);

  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace fedcleanse::nn
