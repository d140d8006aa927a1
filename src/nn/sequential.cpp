#include "nn/sequential.h"

#include <type_traits>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "tensor/ops.h"

namespace fedcleanse::nn {

int Sequential::add(std::unique_ptr<Layer> layer) {
  FC_REQUIRE(layer != nullptr, "cannot add null layer");
  layers_.push_back(std::move(layer));
  return static_cast<int>(layers_.size()) - 1;
}

namespace {

// The one layer loop behind forward, forward_probs and infer. `Net` is
// Sequential, whose layers run forward and cache for backward, or const
// Sequential, whose layers run the cache-free infer. Conv2d+ReLU pairs run
// the ReLU as the conv GEMM's epilogue; the tap copies out the output of
// layer `tap_index`; `fuse_softmax` fuses the head's softmax.
template <typename Net>
Tensor run_layers(Net& net, const Tensor& x, int tap_index, Tensor* tap_out,
                  tensor::ComputeKernel kernel, bool fuse_softmax) {
  constexpr bool kCache = !std::is_const_v<Net>;
  using ConvT = std::conditional_t<kCache, Conv2d, const Conv2d>;
  using ReluT = std::conditional_t<kCache, ReLU, const ReLU>;
  Tensor cur = x;
  const int n = net.size();
  int i = 0;
  while (i < n) {
    auto& layer = net.layer(i);
    if (auto* conv = dynamic_cast<ConvT*>(&layer)) {
      // Conv2d+ReLU peephole: run the ReLU as the conv GEMM's epilogue and
      // hand the ReLU its output for backward. Suppressed when the tap wants
      // this conv's pre-activation values.
      auto* relu = i + 1 < n && tap_index != i ? dynamic_cast<ReluT*>(&net.layer(i + 1))
                                               : nullptr;
      if constexpr (kCache) {
        cur = conv->forward_conv(cur, relu != nullptr, kernel);
        if (relu != nullptr) relu->adopt_output(cur);
      } else {
        cur = conv->infer_conv(cur, relu != nullptr, kernel);
      }
      if (relu != nullptr) {
        if (tap_index == i + 1 && tap_out != nullptr) *tap_out = cur;
        i += 2;
        continue;
      }
    } else if constexpr (kCache) {
      if (fuse_softmax && i == n - 1) {
        if (auto* lin = dynamic_cast<Linear*>(&layer)) return lin->forward_softmax(cur);
      }
      cur = layer.forward(cur);
    } else {
      cur = layer.infer(cur);
    }
    if (tap_index == i && tap_out != nullptr) *tap_out = cur;
    ++i;
  }
  return fuse_softmax ? tensor::softmax_rows(cur) : cur;
}

}  // namespace

Tensor Sequential::forward(const Tensor& x) {
  return run_layers(*this, x, -1, nullptr, tensor::ComputeKernel::kF32, false);
}

Tensor Sequential::infer(const Tensor& x, int tap_index, Tensor* tap_out,
                         tensor::ComputeKernel kernel) const {
  FC_REQUIRE(tap_out == nullptr || (tap_index >= 0 && tap_index < size()),
             "tap index out of range");
  return run_layers(*this, x, tap_index, tap_out, kernel, false);
}

Tensor Sequential::forward_probs(const Tensor& x) {
  return run_layers(*this, x, -1, nullptr, tensor::ComputeKernel::kF32, true);
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

void Sequential::backward_params(const Tensor& grad_out) {
  if (layers_.empty()) return;
  Tensor cur = grad_out;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) cur = layers_[i]->backward(cur);
  layers_.front()->backward_params(cur);
}

void Sequential::release_caches() {
  for (auto& layer : layers_) layer->release_cache();
}

void Sequential::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> out;
  for (auto& layer : layers_) {
    auto ps = layer->params();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

std::size_t Sequential::num_params() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) {
    auto ps = const_cast<Layer&>(*layer).params();
    for (const auto& p : ps) n += p.value->size();
  }
  return n;
}

std::vector<float> Sequential::get_flat() const {
  std::vector<float> flat;
  flat.reserve(num_params());
  for (const auto& layer : layers_) {
    for (const auto& p : const_cast<Layer&>(*layer).params()) {
      const auto v = p.value->data();
      flat.insert(flat.end(), v.begin(), v.end());
    }
  }
  return flat;
}

void Sequential::set_flat(std::span<const float> flat) {
  FC_REQUIRE(flat.size() == num_params(),
             "flat vector size " + std::to_string(flat.size()) + " != parameter count " +
                 std::to_string(num_params()));
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    for (auto& p : layer->params()) {
      auto v = p.value->data();
      std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
                flat.begin() + static_cast<std::ptrdiff_t>(offset + v.size()), v.begin());
      offset += v.size();
    }
    // Re-assert structural pruning: a pruned unit's weights stay zero even
    // if the incoming flat vector carried non-zero values for them.
    const int units = layer->prunable_units();
    for (int u = 0; u < units; ++u) {
      if (!layer->unit_active(u)) layer->set_unit_active(u, false);
    }
  }
}

std::vector<std::vector<std::uint8_t>> Sequential::prune_masks() const {
  std::vector<std::vector<std::uint8_t>> masks;
  masks.reserve(layers_.size());
  for (const auto& layer : layers_) masks.push_back(layer->prune_mask());
  return masks;
}

void Sequential::set_prune_masks(const std::vector<std::vector<std::uint8_t>>& masks) {
  FC_REQUIRE(masks.size() == layers_.size(), "mask count must match layer count");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (!masks[i].empty()) layers_[i]->set_prune_mask(masks[i]);
  }
}

Sequential Sequential::clone() const {
  Sequential copy;
  for (const auto& layer : layers_) copy.add(layer->clone());
  return copy;
}

}  // namespace fedcleanse::nn
