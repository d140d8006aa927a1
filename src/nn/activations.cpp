#include "nn/activations.h"

namespace fedcleanse::nn {

Tensor ReLU::infer(const Tensor& x) const {
  Tensor y = x;
  for (auto& v : y.storage()) {
    if (v < 0.0f) v = 0.0f;
  }
  return y;
}

Tensor ReLU::forward(const Tensor& x) {
  input_cache_ = x;
  return infer(x);
}

Tensor ReLU::backward(const Tensor& grad_out) {
  FC_REQUIRE(grad_out.shape() == input_cache_.shape(), "ReLU backward shape mismatch");
  Tensor g = grad_out;
  const auto in = input_cache_.data();
  auto gv = g.data();
  for (std::size_t i = 0; i < gv.size(); ++i) {
    if (in[i] <= 0.0f) gv[i] = 0.0f;
  }
  return g;
}

Tensor Flatten::infer(const Tensor& x) const {
  FC_REQUIRE(x.shape().rank() >= 2, "Flatten expects at least 2-D input");
  const int n = x.shape()[0];
  const int features = static_cast<int>(x.size() / static_cast<std::size_t>(n));
  return x.reshaped(Shape{n, features});
}

Tensor Flatten::forward(const Tensor& x) {
  input_shape_ = x.shape();
  return infer(x);
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(input_shape_);
}

}  // namespace fedcleanse::nn
