#include "tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>

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

// The implicit [kdim, nb·pdim] patch matrix of samples [b0, b0 + nb).
// Without padding it reads the input in place. With padding, the samples are
// first copied into `ws` inside their zero borders (cin·(h+2p)·(w+2p) floats
// each, roughly 1/(kh·kw) of an im2col buffer), so every patch lies inside
// the image the pack reads. The caller releases `ws`.
ConvPatches chunk_patches(const ConvDims& d, const Conv2dSpec& spec, const float* input,
                          int b0, int nb, Workspace& ws) {
  const int sample_floats = d.cin * d.h * d.w;
  const float* first = input + static_cast<std::size_t>(b0) * sample_floats;
  ConvPatches pt{first, d.cin, d.h, d.w, d.kh, d.kw, spec.stride, d.ho, d.wo, nb};
  const int pad = spec.padding;
  if (pad == 0) return pt;
  pt.h = d.h + 2 * pad;
  pt.w = d.w + 2 * pad;
  const std::size_t staged_floats = static_cast<std::size_t>(nb) * d.cin * pt.h * pt.w;
  float* staged = ws.alloc_floats(staged_floats);
  std::fill_n(staged, staged_floats, 0.0f);
  for (int s = 0; s < nb * d.cin; ++s) {  // s walks (sample, channel) planes
    for (int y = 0; y < d.h; ++y) {
      std::copy_n(first + (static_cast<std::size_t>(s) * d.h + y) * d.w, d.w,
                  staged + static_cast<std::size_t>(s) * pt.h * pt.w +
                      static_cast<std::size_t>(y + pad) * pt.w + pad);
    }
  }
  pt.image = staged;
  return pt;
}

// Batch chunks of the fp32 conv kernels: `size` whole samples per chunk
// (the last may hold fewer), `count` chunks.
struct ConvChunks {
  int size, count;
};

// A chunk holds as many samples as keep its GEMM operands, (kdim + cout)
// floats per output pixel (the forward's B panel and C buffer, the
// backward's gcol and stacked grad_output), within kChunkFloats, so they stay
// in L2; and at least one. Past its first sample a chunk saves each sample's
// A pack (cout·kdim floats) and ragged last column tile, and pays a copy of
// cout·pdim floats (output rows out, grad_output rows in). Where the patch
// matrix is at least as wide as it is deep (pdim >= kdim) the saved A pack
// is small; there one sample per chunk measured faster on MnistCnn's first
// conv and flat on VggSmall's (DESIGN.md §8), so such convs keep it. A call
// that can fan out gets at least one chunk per worker. Chunking never
// changes a result: K stays kdim (forward) or cout (gcol), so every C
// element keeps its k-ordered FMA chain.
constexpr std::size_t kChunkFloats = 64 * 1024;  // 256 KiB

ConvChunks plan_chunks(const ConvDims& d) {
  const std::size_t per_sample = static_cast<std::size_t>(d.kdim + d.cout) * d.pdim;
  int size = d.pdim >= d.kdim ? 1
                              : static_cast<int>(std::clamp<std::size_t>(
                                    kChunkFloats / per_sample, 1, static_cast<std::size_t>(d.n)));
  const int workers = static_cast<int>(common::ambient_workers());
  size = std::min(size, (d.n + workers - 1) / workers);
  return {size, (d.n + size - 1) / size};
}

// Unfold a one-sample patch matrix into a [kdim, pdim] column buffer; the
// int8 scan kernel reads B from memory, so it still needs it.
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

// Scatter-add one sample's [kdim, pdim] slice of gcol (row stride ld) into
// its [cin, h, w] input gradient, in (ic, ky, kx, oy, ox) order. The x range
// that lands inside the image is solved once per tap instead of tested per
// pixel; the adds and their order are those of the per-pixel test.
void col2im_add(const ConvDims& d, const Conv2dSpec& spec, const float* gcol, int ld,
                float* gimage) {
  const int s = spec.stride, pad = spec.padding;
  for (int ic = 0, r = 0; ic < d.cin; ++ic) {
    float* plane = gimage + static_cast<std::size_t>(ic) * d.h * d.w;
    for (int ky = 0; ky < d.kh; ++ky) {
      for (int kx = 0; kx < d.kw; ++kx, ++r) {
        int ox_lo = 0, ox_hi = d.wo;
        while (ox_lo < ox_hi && ox_lo * s - pad + kx < 0) ++ox_lo;
        while (ox_hi > ox_lo && (ox_hi - 1) * s - pad + kx >= d.w) --ox_hi;
        const float* grow = gcol + static_cast<std::size_t>(r) * ld;
        for (int oy = 0; oy < d.ho; ++oy) {
          const int iy = oy * s - pad + ky;
          if (iy < 0 || iy >= d.h) continue;
          float* row = plane + static_cast<std::size_t>(iy) * d.w;
          const float* g = grow + static_cast<std::size_t>(oy) * d.wo;
          for (int ox = ox_lo; ox < ox_hi; ++ox) row[ox * s - pad + kx] += g[ox];
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

  // Each chunk of whole samples owns a disjoint slice of the output, so the
  // batch dimension parallelizes without reordering any float op. B is the
  // chunk's patch matrix, packed straight from the input; C is a
  // [cout, nb·pdim] buffer whose sample column ranges are then copied into
  // NCHW (a one-sample chunk writes its output slice directly).
  const ConvChunks chunks = plan_chunks(d);
  common::ambient_parallel_for(static_cast<std::size_t>(chunks.count), [&](std::size_t ci) {
    const int b0 = static_cast<int>(ci) * chunks.size;
    const int nb = std::min(chunks.size, d.n - b0);
    const int cols = nb * d.pdim;
    Workspace& ws = Workspace::tls();
    const Workspace::Mark mark = ws.mark();
    const ConvPatches col = chunk_patches(d, spec, in.data(), b0, nb, ws);
    float* ochunk = &ov[static_cast<std::size_t>(b0) * d.cout * d.pdim];
    float* cbuf = nb == 1 ? ochunk : ws.alloc_floats(static_cast<std::size_t>(d.cout) * cols);
    if (channel_active == nullptr) {
      // out[oc, :] = bias[oc] + weight[oc, :] · col, bias carried in as the
      // GEMM's row_bias epilogue (bit-identical to prefill + accumulate).
      gemm(false, false, d.cout, cols, d.kdim, wt.data(), d.kdim, col, cbuf, cols,
           /*accumulate=*/false, mask, GemmEpilogue{bs.data(), nullptr, fuse_relu});
    } else {
      // Masked path keeps the explicit prefill: pruned channels are skipped
      // by the row mask (including the relu pass) and stay at the exact zero
      // written here.
      for (int oc = 0; oc < d.cout; ++oc) {
        std::fill_n(cbuf + static_cast<std::size_t>(oc) * cols, cols,
                    channel_active[oc] != 0 ? bs[oc] : 0.0f);
      }
      gemm(false, false, d.cout, cols, d.kdim, wt.data(), d.kdim, col, cbuf, cols,
           /*accumulate=*/true, mask, GemmEpilogue{nullptr, nullptr, fuse_relu});
    }
    if (nb > 1) {
      for (int sb = 0; sb < nb; ++sb) {
        for (int oc = 0; oc < d.cout; ++oc) {
          std::copy_n(cbuf + static_cast<std::size_t>(oc) * cols +
                          static_cast<std::size_t>(sb) * d.pdim,
                      d.pdim, ochunk + (static_cast<std::size_t>(sb) * d.cout + oc) * d.pdim);
        }
      }
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
    im2col(chunk_patches(d, spec, in.data(), b, 1, ws), col);
    gemm_s8(pa, d.pdim, col, d.pdim, &ov[static_cast<std::size_t>(b) * d.cout * d.pdim],
            d.pdim, /*accumulate=*/false, epi);
    ws.release(mark);
  });
  return out;
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const Conv2dSpec& spec,
                            const std::uint8_t* channel_active, bool grad_input) {
  const ConvDims d = conv_dims(input, weight, spec);
  FC_REQUIRE(grad_output.shape()[0] == d.n && grad_output.shape()[1] == d.cout,
             "conv2d_backward grad_output shape mismatch");

  Conv2dGrads g{grad_input ? Tensor(input.shape()) : Tensor(), Tensor(weight.shape()),
                Tensor(Shape{d.cout})};
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
  // count and chunking. The scratch lives on the calling thread's arena and
  // is released (for byte-identical reuse next call) before returning.
  const std::size_t wslot = static_cast<std::size_t>(d.cout) * d.kdim;
  const std::size_t gsample_floats = static_cast<std::size_t>(d.cout) * d.pdim;
  Workspace& cws = Workspace::tls();
  const Workspace::Mark outer = cws.mark();
  float* gw_partial = cws.alloc_floats(static_cast<std::size_t>(d.n) * wslot);
  float* gb_partial = cws.alloc_floats(static_cast<std::size_t>(d.n) * d.cout);
  const GemmMask row_mask{channel_active, nullptr};
  const GemmMask contraction_mask{nullptr, channel_active};

  const ConvChunks chunks = plan_chunks(d);
  common::ambient_parallel_for(static_cast<std::size_t>(chunks.count), [&](std::size_t ci) {
    const int b0 = static_cast<int>(ci) * chunks.size;
    const int nb = std::min(chunks.size, d.n - b0);
    const float* gchunk = &go[static_cast<std::size_t>(b0) * gsample_floats];
    Workspace& ws = Workspace::tls();
    const Workspace::Mark mark = ws.mark();
    const ConvPatches patches = chunk_patches(d, spec, in.data(), b0, nb, ws);

    for (int sb = 0; sb < nb; ++sb) {
      const int b = b0 + sb;
      const float* gsample = gchunk + static_cast<std::size_t>(sb) * gsample_floats;
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
      // gw[oc, k] = Σ_p grad[oc, p] · col[k, p]  (B is the sample's
      // transposed patch matrix, packed straight from the input). Per sample,
      // so that K = pdim and the slot reduction below fix the sum order.
      ConvPatches one = patches;
      one.n = 1;
      one.image += static_cast<std::size_t>(sb) * patches.cin * patches.h * patches.w;
      gemm(false, true, d.cout, d.kdim, d.pdim, gsample, d.pdim, one, gwp, d.kdim,
           /*accumulate=*/false, row_mask);
    }

    if (grad_input) {
      // gcol[k, (s, p)] = Σ_oc w[oc, k] · grad[s, oc, p] over the chunk's
      // grad_output rows laid side by side (A read transposed; pruned
      // channels drop out of the contraction), then col2im per sample.
      const int cols = nb * d.pdim;
      const float* gstack = gchunk;
      if (nb > 1) {
        float* stacked = ws.alloc_floats(static_cast<std::size_t>(d.cout) * cols);
        for (int sb = 0; sb < nb; ++sb) {
          for (int oc = 0; oc < d.cout; ++oc) {
            std::copy_n(gchunk + static_cast<std::size_t>(sb) * gsample_floats +
                            static_cast<std::size_t>(oc) * d.pdim,
                        d.pdim,
                        stacked + static_cast<std::size_t>(oc) * cols +
                            static_cast<std::size_t>(sb) * d.pdim);
          }
        }
        gstack = stacked;
      }
      float* gcol = ws.alloc_floats(static_cast<std::size_t>(d.kdim) * cols);
      gemm(true, false, d.kdim, cols, d.cout, wt.data(), d.kdim, gstack, cols, gcol, cols,
           /*accumulate=*/false, contraction_mask);
      for (int sb = 0; sb < nb; ++sb) {
        col2im_add(d, spec, gcol + static_cast<std::size_t>(sb) * d.pdim, cols,
                   &gi[static_cast<std::size_t>(b0 + sb) * d.cin * d.h * d.w]);
      }
    }
    ws.release(mark);
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

namespace {

// 2×2 stride-2 max pooling of `planes` [h, w] planes: a branch-free select
// over the taps in (0,0), (0,1), (1,0), (1,1) order. Seeded with the first
// tap and updated on a strict `>`, exactly like the generic loop: ties keep
// the earlier tap, and a NaN first tap wins its window. The select blends
// bit patterns under an all-ones/zero mask because GCC will not if-convert a
// float `?:` under the default -ftrapping-math; this way the x loop
// vectorizes. kArgmax also stores each winner's flat input index.
template <bool kArgmax>
void maxpool2x2(const float* in, int planes, int h, int w, int ho, int wo, float* out,
                std::int64_t* argmax) {
  const auto w_off = static_cast<std::uint32_t>(w);
  for (int pl = 0; pl < planes; ++pl) {
    for (int oy = 0; oy < ho; ++oy) {
      const std::size_t row0 = (static_cast<std::size_t>(pl) * h + 2 * oy) * w;
      const float* __restrict r0 = in + row0;
      const float* __restrict r1 = r0 + w;
      const std::size_t o = (static_cast<std::size_t>(pl) * ho + oy) * wo;
      float* __restrict orow = out + o;
      std::int64_t* __restrict arow = kArgmax ? argmax + o : nullptr;
      for (int ox = 0; ox < wo; ++ox) {
        std::uint32_t best = std::bit_cast<std::uint32_t>(r0[2 * ox]);
        std::uint32_t tap = 0;  // offset of the winner from the window's top-left
        auto take = [&](float v, std::uint32_t offset) {
          const std::uint32_t gt = 0u - static_cast<std::uint32_t>(v > std::bit_cast<float>(best));
          best = (std::bit_cast<std::uint32_t>(v) & gt) | (best & ~gt);
          tap = (offset & gt) | (tap & ~gt);
        };
        take(r0[2 * ox + 1], 1);
        take(r1[2 * ox], w_off);
        take(r1[2 * ox + 1], w_off + 1);
        orow[ox] = std::bit_cast<float>(best);
        if constexpr (kArgmax) arow[ox] = static_cast<std::int64_t>(row0) + 2 * ox + tap;
      }
    }
  }
}

}  // namespace

Tensor maxpool2d_forward(const Tensor& input, int kernel, int stride,
                         std::vector<std::int64_t>* argmax) {
  FC_REQUIRE(input.shape().rank() == 4, "maxpool input must be [N,C,H,W]");
  FC_REQUIRE(kernel > 0 && stride > 0, "maxpool kernel/stride must be positive");
  const int n = input.shape()[0], c = input.shape()[1], h = input.shape()[2],
            w = input.shape()[3];
  const int ho = (h - kernel) / stride + 1;
  const int wo = (w - kernel) / stride + 1;
  FC_REQUIRE(ho > 0 && wo > 0, "maxpool output would be empty");

  Tensor output(Shape{n, c, ho, wo});
  std::int64_t* am = nullptr;
  if (argmax != nullptr) {
    argmax->resize(output.size());
    am = argmax->data();
  }
  const auto in = input.data();
  auto out = output.data();
  if (kernel == 2 && stride == 2) {
    if (am != nullptr) {
      maxpool2x2<true>(in.data(), n * c, h, w, ho, wo, out.data(), am);
    } else {
      maxpool2x2<false>(in.data(), n * c, h, w, ho, wo, out.data(), nullptr);
    }
    return output;
  }

  // Each window starts from its first tap, so the argmax always lies inside
  // the window (even when every tap is NaN or −∞) and a NaN there survives.
  std::size_t oi = 0;
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const std::size_t plane = (static_cast<std::size_t>(b) * c + ch) * h * w;
      for (int oy = 0; oy < ho; ++oy) {
        for (int ox = 0; ox < wo; ++ox, ++oi) {
          std::size_t best_idx = plane + static_cast<std::size_t>(oy) * stride * w +
                                 static_cast<std::size_t>(ox) * stride;
          float best = in[best_idx];
          for (int ky = 0; ky < kernel; ++ky) {
            const std::size_t row = plane + static_cast<std::size_t>(oy * stride + ky) * w;
            for (int kx = 0; kx < kernel; ++kx) {
              const std::size_t idx = row + static_cast<std::size_t>(ox * stride + kx);
              if (in[idx] > best) {
                best = in[idx];
                best_idx = idx;
              }
            }
          }
          out[oi] = best;
          if (am != nullptr) am[oi] = static_cast<std::int64_t>(best_idx);
        }
      }
    }
  }
  return output;
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
