// Layer abstraction: a cache-free infer, forward/backward with cached
// context, parameter enumeration for the optimizer and for flat
// (de)serialization in FedAvg, and a unit-pruning interface ("neurons" in
// the paper = conv output channels / FC units).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fedcleanse::nn {

using tensor::Shape;
using tensor::Tensor;

// Non-owning reference to a parameter tensor and its gradient.
struct ParamRef {
  Tensor* value;
  Tensor* grad;
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Compute the layer output without caching anything: const, so one layer
  // may serve several threads at once (inference, activation scans).
  virtual Tensor infer(const Tensor& x) const = 0;
  // infer plus caching whatever backward will need.
  virtual Tensor forward(const Tensor& x) = 0;
  // Given dLoss/dOutput, accumulate parameter gradients and return
  // dLoss/dInput. Must be called after forward on the same input.
  virtual Tensor backward(const Tensor& grad_out) = 0;
  // backward for a layer whose dLoss/dInput nobody reads (a model's first
  // layer during training): accumulates the same parameter gradients and may
  // skip the input gradient. The default runs backward and drops its result.
  virtual void backward_params(const Tensor& grad_out) { (void)backward(grad_out); }
  // Drop what forward cached for backward (inputs, argmaxes). A backward
  // before the next forward then throws instead of reading stale data.
  virtual void release_cache() {}

  virtual std::vector<ParamRef> params() { return {}; }
  virtual std::unique_ptr<Layer> clone() const = 0;
  virtual std::string name() const = 0;

  void zero_grad();

  // --- pruning interface -------------------------------------------------
  // Number of prunable output units (conv channels / linear units); 0 when
  // the layer has nothing to prune.
  virtual int prunable_units() const { return 0; }
  // Deactivate/reactivate a unit. Deactivation zeroes the unit's parameters
  // and forces its output (and gradient) to zero, so a pruned neuron can
  // never be resurrected by fine-tuning.
  virtual void set_unit_active(int /*unit*/, bool /*active*/) {}
  virtual bool unit_active(int /*unit*/) const { return true; }
  // 1 = active, 0 = pruned; empty for layers without prunable units.
  virtual std::vector<std::uint8_t> prune_mask() const { return {}; }
  virtual void set_prune_mask(const std::vector<std::uint8_t>& mask);

  // Per-layer L2 penalty coefficient, applied by the optimizer. Used by the
  // paper's Discussion (Fig 10): L2 on the last convolutional layer only.
  double weight_decay = 0.0;
};

}  // namespace fedcleanse::nn
