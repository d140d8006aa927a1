// Numeric kernels on Tensor: matrix multiply, 2-D convolution and pooling
// (forward + backward), row softmax, and weight statistics. These are the
// testable primitives that the nn layers delegate to.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace fedcleanse::tensor {

// C[m,n] = A[m,k] · B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);
// C[k_a?,..] with optional transposes: computes op(A) · op(B) where
// op transposes the 2-D argument when the flag is set.
Tensor matmul_t(const Tensor& a, bool transpose_a, const Tensor& b, bool transpose_b);

struct Conv2dSpec {
  int stride = 1;
  int padding = 0;
};

// input [N, Cin, H, W], weight [Cout, Cin, kh, kw], bias [Cout]
// → output [N, Cout, Ho, Wo] with Ho = (H + 2p − kh)/s + 1.
// Implicit GEMM: the batch runs in chunks of whole samples, one GEMM per
// chunk whose B panels are packed straight from the input
// (tensor::ConvPatches), so no im2col buffer is built; a padded conv only
// stages the chunk inside its zero borders, in the thread's workspace arena. `channel_active` (optional, [Cout]) marks
// pruned output channels: they are skipped in the packed GEMM and written as
// exact zeros.
// `fuse_relu` applies max(0, ·) inside the GEMM epilogue — bit-identical to
// running nn::ReLU over the returned tensor (including -0.0f preservation),
// but without the extra pass over memory.
Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                      const Conv2dSpec& spec, const std::uint8_t* channel_active = nullptr,
                      bool fuse_relu = false);

// Reduced-precision conv forward for activation-profiling scans: kF32
// delegates to conv2d_forward; kInt8 runs the int8 GEMM (weights packed once
// per call, activations quantized inside the pack), unfolding one sample at a
// time into the thread's workspace arena.
// Pruned channels need no mask support here — set_unit_active zeroes their
// weights and bias, so they quantize to zero rows and stay exact zeros.
// Falls back to fp32 when the spatial extent exceeds the int8 kernel's
// single-pass column limit (kGemmNC).
Tensor conv2d_forward_quant(const Tensor& input, const Tensor& weight, const Tensor& bias,
                            const Conv2dSpec& spec, ComputeKernel kernel, bool fuse_relu = false,
                            const std::uint8_t* channel_active = nullptr);

struct Conv2dGrads {
  Tensor grad_input;
  Tensor grad_weight;
  Tensor grad_bias;
};

// Reads the same input the forward saw: the weight gradient packs its
// transposed patches from it. Pruned channels (`channel_active`) get
// exact-zero grad_weight/grad_bias rows and drop out of the grad_input
// contraction. With grad_input == false the dL/dx GEMM and its col2im are
// skipped and grad_input comes back empty; grad_weight and grad_bias are the
// same bytes either way.
Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const Conv2dSpec& spec,
                            const std::uint8_t* channel_active = nullptr,
                            bool grad_input = true);

// Non-overlapping (stride == kernel) and overlapping max pooling; 2×2
// stride 2 takes a branch-free fast path with the same results. Each window
// keeps its first maximum in (ky, kx) order and starts from its first tap,
// so the argmax always lies inside the window and a NaN first tap survives.
// When `argmax` is given it is resized to the output's size and receives the
// flat input index of every output element's maximum, for backward;
// inference passes none and the kernels skip the index work.
Tensor maxpool2d_forward(const Tensor& input, int kernel, int stride,
                         std::vector<std::int64_t>* argmax = nullptr);
Tensor maxpool2d_backward(const Shape& input_shape, const std::vector<std::int64_t>& argmax,
                          const Tensor& grad_output);

// Row-wise softmax of logits [N, K].
Tensor softmax_rows(const Tensor& logits);
// Row-wise argmax of [N, K].
std::vector<int> argmax_rows(const Tensor& t);

// Mean and standard deviation (population) of a float span.
std::pair<double, double> mean_stddev(std::span<const float> values);

}  // namespace fedcleanse::tensor
