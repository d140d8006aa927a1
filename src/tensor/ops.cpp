#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/threadpool.h"
#include "tensor/gemm.h"
#include "tensor/workspace.h"

namespace fedcleanse::tensor {

Tensor matmul(const Tensor& a, const Tensor& b) { return matmul_t(a, false, b, false); }

Tensor matmul_t(const Tensor& a, bool transpose_a, const Tensor& b, bool transpose_b) {
  FC_REQUIRE(a.shape().rank() == 2 && b.shape().rank() == 2, "matmul requires 2-D tensors");
  const int m = transpose_a ? a.shape()[1] : a.shape()[0];
  const int k = transpose_a ? a.shape()[0] : a.shape()[1];
  const int k2 = transpose_b ? b.shape()[1] : b.shape()[0];
  const int n = transpose_b ? b.shape()[0] : b.shape()[1];
  FC_REQUIRE(k == k2, "matmul inner dimensions disagree: " + a.shape().to_string() + " x " +
                          b.shape().to_string());

  Tensor c(Shape{m, n});
  gemm(transpose_a, transpose_b, m, n, k, a.data().data(), a.shape()[1], b.data().data(),
       b.shape()[1], c.data().data(), n, /*accumulate=*/false);
  return c;
}

namespace {

inline int conv_out_dim(int in, int kernel, int stride, int padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

struct ConvDims {
  int n, cin, h, w, cout, kh, kw, ho, wo, kdim, pdim;
};

ConvDims conv_dims(const Tensor& input, const Tensor& weight, const Conv2dSpec& spec) {
  FC_REQUIRE(input.shape().rank() == 4, "conv2d input must be [N,C,H,W]");
  FC_REQUIRE(weight.shape().rank() == 4, "conv2d weight must be [O,C,kh,kw]");
  ConvDims d;
  d.n = input.shape()[0];
  d.cin = input.shape()[1];
  d.h = input.shape()[2];
  d.w = input.shape()[3];
  d.cout = weight.shape()[0];
  d.kh = weight.shape()[2];
  d.kw = weight.shape()[3];
  FC_REQUIRE(weight.shape()[1] == d.cin, "conv2d channel mismatch");
  d.ho = conv_out_dim(d.h, d.kh, spec.stride, spec.padding);
  d.wo = conv_out_dim(d.w, d.kw, spec.stride, spec.padding);
  FC_REQUIRE(d.ho > 0 && d.wo > 0, "conv2d output would be empty");
  d.kdim = d.cin * d.kh * d.kw;
  d.pdim = d.ho * d.wo;
  return d;
}

// The implicit [kdim, pdim] patch matrix of sample b. Without padding it
// reads the input in place. With padding, the sample is first copied into
// `ws` inside its zero border (cin·(h+2p)·(w+2p) floats, roughly 1/(kh·kw)
// of an im2col buffer), so every patch lies inside the image the pack reads.
// The caller releases `ws`.
ConvPatches sample_patches(const ConvDims& d, const Conv2dSpec& spec, const float* input,
                           int b, Workspace& ws) {
  const float* sample = input + static_cast<std::size_t>(b) * d.cin * d.h * d.w;
  ConvPatches pt{sample, d.cin, d.h, d.w, d.kh, d.kw, spec.stride, d.ho, d.wo};
  const int pad = spec.padding;
  if (pad == 0) return pt;
  pt.h = d.h + 2 * pad;
  pt.w = d.w + 2 * pad;
  const std::size_t plane = static_cast<std::size_t>(pt.h) * pt.w;
  float* staged = ws.alloc_floats(static_cast<std::size_t>(d.cin) * plane);
  std::fill_n(staged, static_cast<std::size_t>(d.cin) * plane, 0.0f);
  for (int ic = 0; ic < d.cin; ++ic) {
    for (int y = 0; y < d.h; ++y) {
      std::copy_n(sample + (static_cast<std::size_t>(ic) * d.h + y) * d.w, d.w,
                  staged + ic * plane + static_cast<std::size_t>(y + pad) * pt.w + pad);
    }
  }
  pt.image = staged;
  return pt;
}

// Unfold a patch matrix into a [kdim, pdim] column buffer; the int8 scan
// kernel reads B from memory, so it still needs it.
void im2col(const ConvPatches& b, float* col) {
  for (int ic = 0; ic < b.cin; ++ic) {
    for (int ky = 0; ky < b.kh; ++ky) {
      for (int kx = 0; kx < b.kw; ++kx) {
        for (int oy = 0; oy < b.ho; ++oy) {
          const float* row =
              b.image + (static_cast<std::size_t>(ic) * b.h + oy * b.stride + ky) * b.w + kx;
          for (int ox = 0; ox < b.wo; ++ox) *col++ = row[ox * b.stride];
        }
      }
    }
  }
}

}  // namespace

Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                      const Conv2dSpec& spec, const std::uint8_t* channel_active,
                      bool fuse_relu) {
  const ConvDims d = conv_dims(input, weight, spec);
  FC_REQUIRE(bias.shape().rank() == 1 && bias.shape()[0] == d.cout, "conv2d bias mismatch");

  Tensor out(Shape{d.n, d.cout, d.ho, d.wo});
  const auto in = input.data();
  const auto wt = weight.data();
  const auto bs = bias.data();
  auto ov = out.data();
  const GemmMask mask{channel_active, nullptr};

  // Each sample owns a disjoint slice of the output, so the batch dimension
  // parallelizes without reordering any float op. B is the sample's patch
  // matrix, packed straight from the input.
  common::ambient_parallel_for(static_cast<std::size_t>(d.n), [&](std::size_t sample) {
    const int b = static_cast<int>(sample);
    Workspace& ws = Workspace::tls();
    const Workspace::Mark mark = ws.mark();
    const ConvPatches col = sample_patches(d, spec, in.data(), b, ws);
    float* osample = &ov[static_cast<std::size_t>(b) * d.cout * d.pdim];
    if (channel_active == nullptr) {
      // out[oc, :] = bias[oc] + weight[oc, :] · col, bias carried in as the
      // GEMM's row_bias epilogue (bit-identical to prefill + accumulate).
      gemm(false, false, d.cout, d.pdim, d.kdim, wt.data(), d.kdim, col, osample, d.pdim,
           /*accumulate=*/false, mask, GemmEpilogue{bs.data(), nullptr, fuse_relu});
    } else {
      // Masked path keeps the explicit prefill: pruned channels are skipped
      // by the row mask (including the relu pass) and stay at the exact zero
      // written here.
      for (int oc = 0; oc < d.cout; ++oc) {
        std::fill_n(osample + static_cast<std::size_t>(oc) * d.pdim, d.pdim,
                    channel_active[oc] != 0 ? bs[oc] : 0.0f);
      }
      gemm(false, false, d.cout, d.pdim, d.kdim, wt.data(), d.kdim, col, osample, d.pdim,
           /*accumulate=*/true, mask, GemmEpilogue{nullptr, nullptr, fuse_relu});
    }
    ws.release(mark);
  });
  return out;
}

Tensor conv2d_forward_quant(const Tensor& input, const Tensor& weight, const Tensor& bias,
                            const Conv2dSpec& spec, ComputeKernel kernel, bool fuse_relu,
                            const std::uint8_t* channel_active) {
  const ConvDims d = conv_dims(input, weight, spec);
  if (kernel == ComputeKernel::kF32 || d.pdim > kGemmNC) {
    return conv2d_forward(input, weight, bias, spec, channel_active, fuse_relu);
  }
  FC_REQUIRE(bias.shape().rank() == 1 && bias.shape()[0] == d.cout, "conv2d bias mismatch");

  Tensor out(Shape{d.n, d.cout, d.ho, d.wo});
  const auto in = input.data();
  const auto wt = weight.data();
  const auto bs = bias.data();
  auto ov = out.data();
  const GemmEpilogue epi{bs.data(), nullptr, fuse_relu};
  const std::size_t col_elems = static_cast<std::size_t>(d.kdim) * d.pdim;

  // Weights quantize once per call and are shared read-only by every sample;
  // the int8 GEMM is serial, so the batch loop provides the parallelism
  // (disjoint outputs, deterministic per-sample float sequences). Each sample
  // unfolds into its thread's arena, released before the next.
  const PackedInt8A pa = pack_a_int8(wt.data(), d.kdim, d.cout, d.kdim,
                                     /*per_channel=*/true);
  common::ambient_parallel_for(static_cast<std::size_t>(d.n), [&](std::size_t sample) {
    const int b = static_cast<int>(sample);
    Workspace& ws = Workspace::tls();
    const Workspace::Mark mark = ws.mark();
    float* col = ws.alloc_floats(col_elems);
    im2col(sample_patches(d, spec, in.data(), b, ws), col);
    gemm_s8(pa, d.pdim, col, d.pdim, &ov[static_cast<std::size_t>(b) * d.cout * d.pdim],
            d.pdim, /*accumulate=*/false, epi);
    ws.release(mark);
  });
  return out;
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const Conv2dSpec& spec,
                            const std::uint8_t* channel_active) {
  const ConvDims d = conv_dims(input, weight, spec);
  FC_REQUIRE(grad_output.shape()[0] == d.n && grad_output.shape()[1] == d.cout,
             "conv2d_backward grad_output shape mismatch");

  Conv2dGrads g{Tensor(input.shape()), Tensor(weight.shape()), Tensor(Shape{d.cout})};
  const auto in = input.data();
  const auto wt = weight.data();
  const auto go = grad_output.data();
  auto gi = g.grad_input.data();
  auto gw = g.grad_weight.data();
  auto gb = g.grad_bias.data();

  // grad_input is disjoint per sample, but grad_weight/grad_bias are sums
  // over the batch. Each sample writes its contribution into its own slot of
  // a workspace scratch area; a serial in-order reduction below then produces
  // the exact float sequence of the serial kernel, independent of thread
  // count. The scratch lives on the calling thread's arena and is released
  // (for byte-identical reuse next call) before returning.
  const std::size_t wslot = static_cast<std::size_t>(d.cout) * d.kdim;
  Workspace& cws = Workspace::tls();
  const Workspace::Mark outer = cws.mark();
  float* gw_partial = cws.alloc_floats(static_cast<std::size_t>(d.n) * wslot);
  float* gb_partial = cws.alloc_floats(static_cast<std::size_t>(d.n) * d.cout);
  const GemmMask row_mask{channel_active, nullptr};
  const GemmMask contraction_mask{nullptr, channel_active};

  common::ambient_parallel_for(static_cast<std::size_t>(d.n), [&](std::size_t sample) {
    const int b = static_cast<int>(sample);
    const float* gsample = &go[static_cast<std::size_t>(b) * d.cout * d.pdim];
    float* gwp = &gw_partial[static_cast<std::size_t>(b) * wslot];
    float* gbp = &gb_partial[static_cast<std::size_t>(b) * d.cout];

    for (int oc = 0; oc < d.cout; ++oc) {
      if (channel_active != nullptr && channel_active[oc] == 0) {
        // Pruned channel: exact-zero gradient rows, skipped in the GEMMs.
        gbp[oc] = 0.0f;
        std::fill_n(gwp + static_cast<std::size_t>(oc) * d.kdim, d.kdim, 0.0f);
        continue;
      }
      const float* grow = gsample + static_cast<std::size_t>(oc) * d.pdim;
      float gbacc = 0.0f;
      for (int p = 0; p < d.pdim; ++p) gbacc += grow[p];
      gbp[oc] = gbacc;
    }
    // gw[oc, k] = Σ_p grad[oc, p] · col[k, p]  (B is the transposed patch
    // matrix, packed straight from the input).
    Workspace& ws = Workspace::tls();
    const Workspace::Mark smark = ws.mark();
    gemm(false, true, d.cout, d.kdim, d.pdim, gsample, d.pdim,
         sample_patches(d, spec, in.data(), b, ws), gwp, d.kdim, /*accumulate=*/false,
         row_mask);

    // gcol[k, p] = Σ_oc w[oc, k] · grad[oc, p]  (A read transposed; pruned
    // channels drop out of the contraction).
    float* gcol = ws.alloc_floats(static_cast<std::size_t>(d.kdim) * d.pdim);
    gemm(true, false, d.kdim, d.pdim, d.cout, wt.data(), d.kdim, gsample, d.pdim, gcol,
         d.pdim, /*accumulate=*/false, contraction_mask);

    // col2im scatter of gcol into grad_input.
    const float* gcp = gcol;
    float* gimage = &gi[static_cast<std::size_t>(b) * d.cin * d.h * d.w];
    for (int ic = 0; ic < d.cin; ++ic) {
      float* plane = gimage + static_cast<std::size_t>(ic) * d.h * d.w;
      for (int ky = 0; ky < d.kh; ++ky) {
        for (int kx = 0; kx < d.kw; ++kx) {
          for (int oy = 0; oy < d.ho; ++oy) {
            const int iy = oy * spec.stride - spec.padding + ky;
            if (iy < 0 || iy >= d.h) {
              gcp += d.wo;
              continue;
            }
            float* row = &plane[static_cast<std::size_t>(iy) * d.w];
            for (int ox = 0; ox < d.wo; ++ox) {
              const int ix = ox * spec.stride - spec.padding + kx;
              if (ix >= 0 && ix < d.w) row[ix] += *gcp;
              ++gcp;
            }
          }
        }
      }
    }
    ws.release(smark);
  });

  // Ordered reduction: batch order, never thread-completion order.
  for (int b = 0; b < d.n; ++b) {
    const float* gwp = &gw_partial[static_cast<std::size_t>(b) * wslot];
    for (std::size_t i = 0; i < wslot; ++i) gw[i] += gwp[i];
    const float* gbp = &gb_partial[static_cast<std::size_t>(b) * d.cout];
    for (int oc = 0; oc < d.cout; ++oc) gb[oc] += gbp[oc];
  }
  cws.release(outer);
  return g;
}

MaxPoolResult maxpool2d_forward(const Tensor& input, int kernel, int stride) {
  FC_REQUIRE(input.shape().rank() == 4, "maxpool input must be [N,C,H,W]");
  FC_REQUIRE(kernel > 0 && stride > 0, "maxpool kernel/stride must be positive");
  const int n = input.shape()[0], c = input.shape()[1], h = input.shape()[2],
            w = input.shape()[3];
  const int ho = (h - kernel) / stride + 1;
  const int wo = (w - kernel) / stride + 1;
  FC_REQUIRE(ho > 0 && wo > 0, "maxpool output would be empty");

  MaxPoolResult result{Tensor(Shape{n, c, ho, wo}), {}};
  result.argmax.resize(result.output.size());
  const auto in = input.data();
  auto out = result.output.data();

  std::size_t oi = 0;
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      for (int oy = 0; oy < ho; ++oy) {
        for (int ox = 0; ox < wo; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = -1;
          for (int ky = 0; ky < kernel; ++ky) {
            const int iy = oy * stride + ky;
            const std::size_t row = ((static_cast<std::size_t>(b) * c + ch) * h + iy) * w;
            for (int kx = 0; kx < kernel; ++kx) {
              const int ix = ox * stride + kx;
              const float v = in[row + ix];
              if (v > best) {
                best = v;
                best_idx = static_cast<std::int64_t>(row + ix);
              }
            }
          }
          out[oi] = best;
          result.argmax[oi] = best_idx;
        }
      }
    }
  }
  return result;
}

Tensor maxpool2d_backward(const Shape& input_shape, const std::vector<std::int64_t>& argmax,
                          const Tensor& grad_output) {
  FC_REQUIRE(argmax.size() == grad_output.size(), "maxpool argmax/grad size mismatch");
  Tensor grad_in(input_shape);
  auto gi = grad_in.data();
  const auto go = grad_output.data();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    gi[static_cast<std::size_t>(argmax[i])] += go[i];
  }
  return grad_in;
}

Tensor softmax_rows(const Tensor& logits) {
  FC_REQUIRE(logits.shape().rank() == 2, "softmax_rows requires [N,K]");
  const int n = logits.shape()[0], k = logits.shape()[1];
  Tensor out(logits.shape());
  const auto in = logits.data();
  auto ov = out.data();
  for (int i = 0; i < n; ++i) {
    const float* row = &in[static_cast<std::size_t>(i) * k];
    float* orow = &ov[static_cast<std::size_t>(i) * k];
    float mx = row[0];
    for (int j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0f;
    for (int j = 0; j < k; ++j) {
      orow[j] = std::exp(row[j] - mx);
      denom += orow[j];
    }
    for (int j = 0; j < k; ++j) orow[j] /= denom;
  }
  return out;
}

std::vector<int> argmax_rows(const Tensor& t) {
  FC_REQUIRE(t.shape().rank() == 2, "argmax_rows requires [N,K]");
  const int n = t.shape()[0], k = t.shape()[1];
  std::vector<int> out(static_cast<std::size_t>(n));
  const auto v = t.data();
  for (int i = 0; i < n; ++i) {
    const float* row = &v[static_cast<std::size_t>(i) * k];
    int best = 0;
    for (int j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

std::pair<double, double> mean_stddev(std::span<const float> values) {
  FC_REQUIRE(!values.empty(), "mean_stddev of empty span");
  double mean = 0.0;
  for (float v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (float v : values) {
    const double d = v - mean;
    var += d * d;
  }
  var /= static_cast<double>(values.size());
  return {mean, std::sqrt(var)};
}

}  // namespace fedcleanse::tensor
