// The packed GEMM against the legacy scalar oracle, across every transpose
// variant and ragged shapes straddling the register-tile and cache-block
// boundaries — plus the workspace arena invariants the kernel leans on
// (alignment, stack discipline, allocation-freedom after warmup).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

using namespace fedcleanse;
using tensor::GemmMask;
using tensor::Workspace;

namespace {

class AmbientPoolGuard {
 public:
  explicit AmbientPoolGuard(common::ThreadPool* pool)
      : previous_(common::ambient_pool()) {
    common::set_ambient_pool(pool);
  }
  ~AmbientPoolGuard() { common::set_ambient_pool(previous_); }

 private:
  common::ThreadPool* previous_;
};

std::vector<float> random_matrix(int rows, int cols, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> m(static_cast<std::size_t>(rows) * cols);
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

// Run packed and reference kernels on the same random operands and compare.
// The packed kernel sums each C element in KC-blocked order, the reference
// in flat order, so equality is to rounding, not bitwise.
void expect_matches_reference(bool ta, bool tb, int m, int n, int k,
                              bool accumulate) {
  const int lda = ta ? m : k;
  const int ldb = tb ? k : n;
  auto a = random_matrix(ta ? k : m, lda, 11 * m + 13 * n + 17 * k + ta);
  auto b = random_matrix(tb ? n : k, ldb, 23 * m + 29 * n + 31 * k + tb);
  auto c = random_matrix(m, n, 41);  // nonzero so accumulate=true is exercised
  auto c_ref = c;
  if (!accumulate) {
    // Overwrite mode must not depend on prior C contents; make them differ.
    for (auto& v : c) v += 3.0f;
  }

  tensor::gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, c.data(), n, accumulate);
  tensor::gemm_reference(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, c_ref.data(), n,
                         accumulate);

  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const float ref = c_ref[static_cast<std::size_t>(i) * n + j];
      const float got = c[static_cast<std::size_t>(i) * n + j];
      const float tol = 1e-3f * std::max(1.0f, std::abs(ref));
      ASSERT_NEAR(got, ref, tol) << "ta=" << ta << " tb=" << tb << " m=" << m
                                 << " n=" << n << " k=" << k << " acc=" << accumulate
                                 << " at (" << i << "," << j << ")";
    }
  }
}

}  // namespace

TEST(Gemm, AllTransposeVariantsAcrossTileBoundaries) {
  // Shapes straddling the register tile (MR=4, NR=16) and ragged singletons.
  const int ms[] = {1, tensor::kGemmMR - 1, tensor::kGemmMR, tensor::kGemmMR + 1, 17};
  const int ns[] = {1, tensor::kGemmNR - 1, tensor::kGemmNR, tensor::kGemmNR + 1, 33};
  const int ks[] = {1, 7, 64};
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (int m : ms) {
        for (int n : ns) {
          for (int k : ks) {
            expect_matches_reference(ta, tb, m, n, k, (m + n + k) % 2 == 0);
          }
        }
      }
    }
  }
}

TEST(Gemm, KDepthStraddlesCacheBlock) {
  // k around KC exercises the multi-block k sweep (and its accumulate=true
  // continuation blocks) in both transpose orientations.
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (int k : {tensor::kGemmKC - 1, tensor::kGemmKC, tensor::kGemmKC + 1}) {
        expect_matches_reference(ta, tb, 9, 21, k, false);
      }
    }
  }
}

TEST(Gemm, RowsStraddleCacheBlock) {
  // m around MC exercises the multi-row-block path (the one the pool
  // parallelizes) while staying below the parallel threshold here.
  for (int m : {tensor::kGemmMC - 1, tensor::kGemmMC, tensor::kGemmMC + 1}) {
    expect_matches_reference(false, false, m, 19, 33, true);
  }
}

TEST(Gemm, RowMaskSkipsInactiveRowsEntirely) {
  const int m = 11, n = 21, k = 18;
  auto a = random_matrix(m, k, 3);
  auto b = random_matrix(k, n, 4);
  std::vector<std::uint8_t> active(m, 1);
  active[0] = active[4] = active[10] = 0;

  const float sentinel = 7.5f;
  std::vector<float> c(static_cast<std::size_t>(m) * n, sentinel);
  tensor::gemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(), n,
               /*accumulate=*/false, GemmMask{active.data(), nullptr});

  std::vector<float> ref(static_cast<std::size_t>(m) * n, 0.0f);
  tensor::gemm_reference(false, false, m, n, k, a.data(), k, b.data(), n, ref.data(), n,
                         false);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const std::size_t at = static_cast<std::size_t>(i) * n + j;
      if (active[i]) {
        EXPECT_NEAR(c[at], ref[at], 1e-3f * std::max(1.0f, std::abs(ref[at])));
      } else {
        // Inactive rows are never written — the caller's contents survive.
        EXPECT_EQ(c[at], sentinel) << "row " << i << " col " << j;
      }
    }
  }
}

TEST(Gemm, KMaskDropsZeroContractionIndices) {
  // A k mask is value-preserving when the masked B rows are exact zeros
  // (pruned weights are): dropping x + 0·y terms changes nothing.
  const int m = 9, n = 33, k = 24;
  auto a = random_matrix(m, k, 5);
  auto b = random_matrix(k, n, 6);
  std::vector<std::uint8_t> k_active(k, 1);
  for (int p : {0, 3, 7, 23}) {
    k_active[p] = 0;
    for (int j = 0; j < n; ++j) b[static_cast<std::size_t>(p) * n + j] = 0.0f;
  }

  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  std::vector<float> ref = c;
  tensor::gemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(), n, false,
               GemmMask{nullptr, k_active.data()});
  tensor::gemm_reference(false, false, m, n, k, a.data(), k, b.data(), n, ref.data(), n,
                         false);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3f * std::max(1.0f, std::abs(ref[i])));
  }
}

TEST(Gemm, AllInactiveKMaskZeroesOutputInOverwriteMode) {
  const int m = 5, n = 6, k = 4;
  auto a = random_matrix(m, k, 8);
  auto b = random_matrix(k, n, 9);
  std::vector<std::uint8_t> k_active(k, 0);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 123.0f);
  tensor::gemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(), n, false,
               GemmMask{nullptr, k_active.data()});
  for (float v : c) EXPECT_EQ(v, 0.0f);
}

TEST(Gemm, ThreadCountDoesNotChangeAnyBit) {
  // Big enough that the pool path engages (m·k·n ≥ 2^20 and multiple MC row
  // blocks); every transpose variant must be bit-identical serial vs pooled.
  const int m = 205, n = 133, k = 311;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const int lda = ta ? m : k;
      const int ldb = tb ? k : n;
      auto a = random_matrix(ta ? k : m, lda, 100 + ta);
      auto b = random_matrix(tb ? n : k, ldb, 200 + tb);
      std::vector<float> c_serial(static_cast<std::size_t>(m) * n, 0.0f);
      std::vector<float> c_pooled = c_serial;
      {
        AmbientPoolGuard guard(nullptr);
        tensor::gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, c_serial.data(), n,
                     false);
      }
      common::ThreadPool pool(4);
      AmbientPoolGuard guard(&pool);
      tensor::gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, c_pooled.data(), n,
                   false);
      for (std::size_t i = 0; i < c_serial.size(); ++i) {
        ASSERT_EQ(c_pooled[i], c_serial[i])
            << "ta=" << ta << " tb=" << tb << " element " << i;
      }
    }
  }
}

TEST(Workspace, AllocationsAreAligned) {
  Workspace ws;
  const auto m = ws.mark();
  for (std::size_t n : {1u, 3u, 17u, 1000u, 100000u}) {
    float* p = ws.alloc_floats(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % Workspace::kAlign, 0u);
    void* q = ws.alloc_bytes(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % Workspace::kAlign, 0u);
  }
  ws.release(m);
}

TEST(Workspace, ReleaseReusesMemoryVerbatim) {
  Workspace ws;
  const auto m = ws.mark();
  float* first = ws.alloc_floats(512);
  ws.release(m);
  float* again = ws.alloc_floats(512);
  EXPECT_EQ(again, first);
  ws.release(m);
}

TEST(Workspace, NestedMarksComposeAndCoalesce) {
  Workspace ws;
  const auto outer = ws.mark();
  ws.alloc_floats(1 << 16);  // 256 KiB — fills the first chunk
  const auto inner = ws.mark();
  ws.alloc_floats(1 << 17);  // forces a second chunk
  EXPECT_GE(ws.chunk_count(), 2u);
  ws.release(inner);
  ws.release(outer);
  // Fully released: the arena folds into one chunk sized to the high-water
  // mark, so the steady state is a single allocation.
  ws.alloc_floats(1);
  EXPECT_EQ(ws.chunk_count(), 1u);
  EXPECT_GE(ws.capacity_bytes(), ws.high_water_bytes());
}

TEST(Workspace, SteadyStateIsAllocationFree) {
  // The tentpole property: after a warmup pass sizes the arena, repeated
  // forward/backward through the conv kernels never mallocs again (observed
  // via the monotonic chunk-allocation counter of this thread's arena).
  AmbientPoolGuard guard(nullptr);  // keep all work on this thread's arena
  common::Rng rng(12);
  auto x = tensor::Tensor::randn({4, 3, 10, 10}, rng);
  auto w = tensor::Tensor::randn({8, 3, 3, 3}, rng, 0.0f, 0.2f);
  auto b = tensor::Tensor::randn({8}, rng);
  tensor::Conv2dSpec spec{1, 1};

  auto step = [&] {
    auto y = tensor::conv2d_forward(x, w, b, spec);
    auto g = tensor::conv2d_backward(x, w, y, spec);
    (void)g;
  };
  step();  // warmup: grows the arena to its high-water mark
  const std::size_t after_warmup = Workspace::tls().chunk_allocs();
  for (int i = 0; i < 10; ++i) step();
  EXPECT_EQ(Workspace::tls().chunk_allocs(), after_warmup)
      << "steady-state conv forward/backward allocated new arena chunks";
}

TEST(Workspace, MatmulSteadyStateIsAllocationFree) {
  AmbientPoolGuard guard(nullptr);
  common::Rng rng(13);
  auto a = tensor::Tensor::randn({64, 48}, rng);
  auto b = tensor::Tensor::randn({48, 32}, rng);
  auto c = tensor::matmul(a, b);  // warmup
  const std::size_t after_warmup = Workspace::tls().chunk_allocs();
  for (int i = 0; i < 10; ++i) c = tensor::matmul(a, b);
  EXPECT_EQ(Workspace::tls().chunk_allocs(), after_warmup);
}

// ---------------------------------------------------------------------------
// Implicit-GEMM convolution against the explicit composition: unfold each
// sample with im2col, then run the dense gemm on the buffer. The patch pack
// must write exactly the values an im2col buffer holds, and the driver is
// shared, so every output and gradient must match bit for bit — including
// across the pack's edges: ragged slivers, pixel runs that wrap output rows,
// zero padding on every side, strides, column blocks beyond kGemmNC, depth
// blocks beyond kGemmKC, and pruned-channel masks.

namespace {

struct ConvCase {
  int n, cin, h, w, cout, k, stride, padding;
  bool prune;
  bool relu;
};

// Test-local unfold of one image into a [cin·k·k, ho·wo] column buffer.
void im2col_oracle(const float* image, int cin, int h, int w, int k, int stride, int padding,
                   int ho, int wo, float* col) {
  for (int ic = 0; ic < cin; ++ic) {
    for (int ky = 0; ky < k; ++ky) {
      for (int kx = 0; kx < k; ++kx) {
        for (int oy = 0; oy < ho; ++oy) {
          for (int ox = 0; ox < wo; ++ox) {
            const int iy = oy * stride - padding + ky;
            const int ix = ox * stride - padding + kx;
            *col++ = (iy < 0 || iy >= h || ix < 0 || ix >= w)
                         ? 0.0f
                         : image[(static_cast<std::size_t>(ic) * h + iy) * w + ix];
          }
        }
      }
    }
  }
}

struct ConvOracle {
  tensor::Tensor out;
  tensor::Conv2dGrads grads;
};

// The explicit algorithm: per sample, im2col then the dense gemm for the
// forward (row-bias epilogue, or prefill + accumulate under a mask), the
// weight gradient (B = colᵀ) and gcol (col2im-scattered); per-sample weight
// and bias partials reduced in batch order.
ConvOracle conv_oracle(const tensor::Tensor& x, const tensor::Tensor& wt,
                       const tensor::Tensor& bias, const tensor::Tensor& gy,
                       const ConvCase& c, const std::uint8_t* active) {
  const int ho = (c.h + 2 * c.padding - c.k) / c.stride + 1;
  const int wo = (c.w + 2 * c.padding - c.k) / c.stride + 1;
  const int kdim = c.cin * c.k * c.k, pdim = ho * wo;
  ConvOracle r{tensor::Tensor(tensor::Shape{c.n, c.cout, ho, wo}),
               {tensor::Tensor(x.shape()), tensor::Tensor(wt.shape()),
                tensor::Tensor(tensor::Shape{c.cout})}};
  const GemmMask row_mask{active, nullptr};
  const GemmMask contraction_mask{nullptr, active};
  std::vector<float> col(static_cast<std::size_t>(kdim) * pdim);
  std::vector<float> gcol(col.size());
  std::vector<float> gw_partial(static_cast<std::size_t>(c.n) * c.cout * kdim);
  std::vector<float> gb_partial(static_cast<std::size_t>(c.n) * c.cout);
  for (int b = 0; b < c.n; ++b) {
    im2col_oracle(&x.data()[static_cast<std::size_t>(b) * c.cin * c.h * c.w], c.cin, c.h,
                  c.w, c.k, c.stride, c.padding, ho, wo, col.data());
    float* os = &r.out.data()[static_cast<std::size_t>(b) * c.cout * pdim];
    if (active == nullptr) {
      tensor::gemm(false, false, c.cout, pdim, kdim, wt.data().data(), kdim, col.data(), pdim,
                   os, pdim, false, row_mask,
                   tensor::GemmEpilogue{bias.data().data(), nullptr, c.relu});
    } else {
      for (int oc = 0; oc < c.cout; ++oc) {
        std::fill_n(os + static_cast<std::size_t>(oc) * pdim, pdim,
                    active[oc] != 0 ? bias.data()[oc] : 0.0f);
      }
      tensor::gemm(false, false, c.cout, pdim, kdim, wt.data().data(), kdim, col.data(), pdim,
                   os, pdim, true, row_mask, tensor::GemmEpilogue{nullptr, nullptr, c.relu});
    }

    const float* gs = &gy.data()[static_cast<std::size_t>(b) * c.cout * pdim];
    float* gwp = &gw_partial[static_cast<std::size_t>(b) * c.cout * kdim];
    for (int oc = 0; oc < c.cout; ++oc) {
      float acc = 0.0f;
      if (active == nullptr || active[oc] != 0) {
        for (int p = 0; p < pdim; ++p) acc += gs[static_cast<std::size_t>(oc) * pdim + p];
      } else {
        std::fill_n(gwp + static_cast<std::size_t>(oc) * kdim, kdim, 0.0f);
      }
      gb_partial[static_cast<std::size_t>(b) * c.cout + oc] = acc;
    }
    tensor::gemm(false, true, c.cout, kdim, pdim, gs, pdim, col.data(), pdim, gwp, kdim, false,
                 row_mask);
    tensor::gemm(true, false, kdim, pdim, c.cout, wt.data().data(), kdim, gs, pdim,
                 gcol.data(), pdim, false, contraction_mask);
    const float* gcp = gcol.data();
    float* gimage = &r.grads.grad_input.data()[static_cast<std::size_t>(b) * c.cin * c.h * c.w];
    for (int ic = 0; ic < c.cin; ++ic) {
      for (int ky = 0; ky < c.k; ++ky) {
        for (int kx = 0; kx < c.k; ++kx) {
          for (int oy = 0; oy < ho; ++oy) {
            for (int ox = 0; ox < wo; ++ox, ++gcp) {
              const int iy = oy * c.stride - c.padding + ky;
              const int ix = ox * c.stride - c.padding + kx;
              if (iy >= 0 && iy < c.h && ix >= 0 && ix < c.w) {
                gimage[(static_cast<std::size_t>(ic) * c.h + iy) * c.w + ix] += *gcp;
              }
            }
          }
        }
      }
    }
  }
  for (int b = 0; b < c.n; ++b) {
    for (std::size_t i = 0; i < r.grads.grad_weight.size(); ++i) {
      r.grads.grad_weight.data()[i] += gw_partial[b * r.grads.grad_weight.size() + i];
    }
    for (int oc = 0; oc < c.cout; ++oc) {
      r.grads.grad_bias.data()[oc] += gb_partial[static_cast<std::size_t>(b) * c.cout + oc];
    }
  }
  return r;
}

void expect_bits_equal(const tensor::Tensor& got, const tensor::Tensor& want,
                       const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.data()[i]),
              std::bit_cast<std::uint32_t>(want.data()[i]))
        << what << " element " << i << ": " << got.data()[i] << " vs " << want.data()[i];
  }
}

}  // namespace

TEST(ImplicitGemmConv, MatchesIm2colGemmOracleBitExactly) {
  // {n, cin, h, w, cout, k, stride, padding, prune, relu}
  const ConvCase cases[] = {
      {1, 3, 5, 6, 4, 1, 1, 0, false, false},    // 1×1 kernel, no padding
      {7, 2, 7, 7, 5, 1, 2, 1, true, false},     // 1×1 kernel, stride 2, pad 1, pruned
      {7, 4, 9, 9, 6, 3, 1, 1, false, true},     // batch 7, fused ReLU
      {1, 3, 9, 8, 5, 3, 2, 0, true, true},      // stride 2, no padding, pruned + ReLU
      {2, 2, 6, 7, 3, 3, 1, 2, false, false},    // padding 2 around a 3×3 kernel
      {7, 2, 11, 10, 5, 5, 2, 2, true, false},   // 5×5, stride 2, pad 2, pruned
      {2, 3, 7, 9, 4, 5, 1, 0, false, false},    // 5×5, 3×5 output: runs wrap rows
      {1, 2, 5, 3, 3, 3, 1, 0, false, false},    // one-pixel-wide output
      {1, 1, 48, 48, 4, 3, 1, 1, false, false},  // 2304 columns > kGemmNC
      {1, 1, 48, 48, 6, 3, 1, 1, true, true},    // ... pruned + ReLU
      {2, 32, 6, 6, 8, 3, 1, 1, false, false},   // depth 288 > kGemmKC
      {2, 32, 7, 6, 9, 3, 2, 1, true, false},    // ... strided, pruned
      {2, 16, 16, 16, 100, 3, 1, 1, true, true}, // cout spans two MC row blocks
  };
  static_assert(tensor::kGemmNC < 48 * 48 && tensor::kGemmKC < 32 * 3 * 3);

  for (const ConvCase& c : cases) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " cin=" << c.cin << " " << c.h << "x"
                                    << c.w << " cout=" << c.cout << " k=" << c.k
                                    << " s=" << c.stride << " p=" << c.padding
                                    << " prune=" << c.prune << " relu=" << c.relu);
    common::Rng rng(static_cast<std::uint64_t>(c.cin * 1000 + c.h * 10 + c.k));
    auto x = tensor::Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
    auto wt = tensor::Tensor::randn({c.cout, c.cin, c.k, c.k}, rng, 0.0f, 0.3f);
    auto bias = tensor::Tensor::randn({c.cout}, rng);
    std::vector<std::uint8_t> active(static_cast<std::size_t>(c.cout), 1);
    if (c.prune) {
      // Pruned as nn::Conv2d::set_unit_active leaves them: zero weights and bias.
      const std::size_t per = static_cast<std::size_t>(c.cin) * c.k * c.k;
      for (int oc = 1; oc < c.cout; oc += 3) {
        active[static_cast<std::size_t>(oc)] = 0;
        std::fill_n(&wt.data()[oc * per], per, 0.0f);
        bias.data()[static_cast<std::size_t>(oc)] = 0.0f;
      }
    }
    const std::uint8_t* mask = c.prune ? active.data() : nullptr;
    const tensor::Conv2dSpec spec{c.stride, c.padding};
    const int ho = (c.h + 2 * c.padding - c.k) / c.stride + 1;
    const int wo = (c.w + 2 * c.padding - c.k) / c.stride + 1;
    auto gy = tensor::Tensor::randn({c.n, c.cout, ho, wo}, rng);

    ConvOracle want;
    {
      AmbientPoolGuard guard(nullptr);
      want = conv_oracle(x, wt, bias, gy, c, mask);
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      common::ThreadPool pool(static_cast<std::size_t>(threads));
      AmbientPoolGuard guard(threads == 1 ? nullptr : &pool);
      const auto out = tensor::conv2d_forward(x, wt, bias, spec, mask, c.relu);
      const auto grads = tensor::conv2d_backward(x, wt, gy, spec, mask);
      expect_bits_equal(out, want.out, "output");
      expect_bits_equal(grads.grad_weight, want.grads.grad_weight, "grad_weight");
      expect_bits_equal(grads.grad_bias, want.grads.grad_bias, "grad_bias");
      expect_bits_equal(grads.grad_input, want.grads.grad_input, "grad_input");
    }
  }
}

TEST(ImplicitGemmConv, PatchOperandMatchesDenseUnderKMask) {
  // The conv kernels never drop contraction indices, but the patch pack
  // honours GemmMask::k_active like the dense pack: compare both transposes
  // against the dense gemm over the unfolded buffer, same mask.
  const int cin = 3, h = 9, w = 7, k = 3, stride = 2, ho = 4, wo = 3;
  const int rows = cin * k * k, cols = ho * wo, m = 5;
  common::Rng rng(21);
  std::vector<float> image(static_cast<std::size_t>(cin) * h * w);
  for (auto& v : image) v = static_cast<float>(rng.normal());
  std::vector<float> col(static_cast<std::size_t>(rows) * cols);
  im2col_oracle(image.data(), cin, h, w, k, stride, 0, ho, wo, col.data());
  const tensor::ConvPatches patches{image.data(), cin, h, w, k, k, stride, ho, wo};

  for (bool trans_b : {false, true}) {
    SCOPED_TRACE(testing::Message() << "trans_b=" << trans_b);
    const int depth = trans_b ? cols : rows, n = trans_b ? rows : cols;
    std::vector<std::uint8_t> k_active(static_cast<std::size_t>(depth), 1);
    for (int p = 0; p < depth; p += 4) k_active[static_cast<std::size_t>(p)] = 0;
    // Dropped indices must carry zero A columns for skipping to be exact.
    auto a = random_matrix(m, depth, 22);
    for (int i = 0; i < m; ++i) {
      for (int p = 0; p < depth; p += 4) a[static_cast<std::size_t>(i) * depth + p] = 0.0f;
    }
    const GemmMask mask{nullptr, k_active.data()};
    std::vector<float> want(static_cast<std::size_t>(m) * n), got(want.size());
    tensor::gemm(false, trans_b, m, n, depth, a.data(), depth, col.data(), cols, want.data(), n,
                 false, mask);
    tensor::gemm(false, trans_b, m, n, depth, a.data(), depth, patches, got.data(), n, false,
                 mask);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
          << "element " << i;
    }
  }
}

TEST(ImplicitGemmConv, MultiSamplePatchesMatchPerSampleColumns) {
  // A ConvPatches spanning n images is the per-sample patch matrices side by
  // side: column (s, oy, ox) of the n-sample operand is column (oy, ox) of
  // sample s. The images sit back to back with distinct values, so a read
  // that strays into the neighbouring image would show. Both transposes,
  // against the dense gemm over the concatenated im2col columns.
  const int n = 3, cin = 2, h = 7, w = 6, k = 3, stride = 2, ho = 3, wo = 2;
  const int image_floats = cin * h * w;
  const int rows = cin * k * k, pdim = ho * wo, cols = n * pdim, m = 6;
  common::Rng rng(23);
  std::vector<float> images(static_cast<std::size_t>(n) * image_floats);
  std::vector<float> col(static_cast<std::size_t>(rows) * cols);
  std::vector<float> one(static_cast<std::size_t>(rows) * pdim);
  for (int s = 0; s < n; ++s) {
    float* image = images.data() + static_cast<std::size_t>(s) * image_floats;
    for (int i = 0; i < image_floats; ++i) image[i] = static_cast<float>(rng.normal());
    im2col_oracle(image, cin, h, w, k, stride, 0, ho, wo, one.data());
    for (int r = 0; r < rows; ++r) {
      std::copy_n(one.data() + static_cast<std::size_t>(r) * pdim, pdim,
                  col.data() + static_cast<std::size_t>(r) * cols + s * pdim);
    }
  }
  const tensor::ConvPatches patches{images.data(), cin, h, w, k, k, stride, ho, wo, n};
  ASSERT_EQ(patches.cols(), cols);

  for (bool trans_b : {false, true}) {
    SCOPED_TRACE(testing::Message() << "trans_b=" << trans_b);
    const int depth = trans_b ? cols : rows, width = trans_b ? rows : cols;
    auto a = random_matrix(m, depth, 24);
    std::vector<float> want(static_cast<std::size_t>(m) * width), got(want.size());
    tensor::gemm(false, trans_b, m, width, depth, a.data(), depth, col.data(), cols,
                 want.data(), width, false);
    tensor::gemm(false, trans_b, m, width, depth, a.data(), depth, patches, got.data(), width,
                 false);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
          << "element " << i;
    }
  }
}

TEST(ImplicitGemmConv, BatchChunkingKeepsEveryBitOfTheOracle) {
  // The fp32 conv kernels run the batch in chunks of whole samples, sized by
  // the operand budget and, under a pool, capped so every worker gets one.
  // Batches 1, 3, 7 and 33 with no pool and a 4-worker pool give one chunk,
  // ragged last chunks and one-sample chunks; none may move a bit of the
  // per-sample oracle. The weights-only backward must match too.
  for (int n : {1, 3, 7, 33}) {
    for (int padding : {0, 1, 2}) {
      for (int stride : {1, 2}) {
        for (bool prune : {false, true}) {
          const ConvCase c{n, 3, 10, 9, 8, 3, stride, padding, prune, stride == 1};
          SCOPED_TRACE(testing::Message() << "n=" << n << " p=" << padding << " s=" << stride
                                          << " prune=" << prune);
          common::Rng rng(static_cast<std::uint64_t>(1000 * n + 10 * padding + stride));
          auto x = tensor::Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
          auto wt = tensor::Tensor::randn({c.cout, c.cin, c.k, c.k}, rng, 0.0f, 0.3f);
          auto bias = tensor::Tensor::randn({c.cout}, rng);
          std::vector<std::uint8_t> active(static_cast<std::size_t>(c.cout), 1);
          if (prune) {
            const std::size_t per = static_cast<std::size_t>(c.cin) * c.k * c.k;
            for (int oc : {2, 5}) {
              active[static_cast<std::size_t>(oc)] = 0;
              std::fill_n(&wt.data()[oc * per], per, 0.0f);
              bias.data()[static_cast<std::size_t>(oc)] = 0.0f;
            }
          }
          const std::uint8_t* mask = prune ? active.data() : nullptr;
          const tensor::Conv2dSpec spec{c.stride, c.padding};
          const int ho = (c.h + 2 * c.padding - c.k) / c.stride + 1;
          const int wo = (c.w + 2 * c.padding - c.k) / c.stride + 1;
          auto gy = tensor::Tensor::randn({c.n, c.cout, ho, wo}, rng);

          ConvOracle want;
          {
            AmbientPoolGuard guard(nullptr);
            want = conv_oracle(x, wt, bias, gy, c, mask);
          }
          for (int threads : {1, 4}) {
            SCOPED_TRACE(testing::Message() << "threads=" << threads);
            common::ThreadPool pool(static_cast<std::size_t>(threads));
            AmbientPoolGuard guard(threads == 1 ? nullptr : &pool);
            expect_bits_equal(tensor::conv2d_forward(x, wt, bias, spec, mask, c.relu), want.out,
                              "output");
            const auto grads = tensor::conv2d_backward(x, wt, gy, spec, mask);
            expect_bits_equal(grads.grad_weight, want.grads.grad_weight, "grad_weight");
            expect_bits_equal(grads.grad_bias, want.grads.grad_bias, "grad_bias");
            expect_bits_equal(grads.grad_input, want.grads.grad_input, "grad_input");
            const auto params = tensor::conv2d_backward(x, wt, gy, spec, mask, false);
            EXPECT_TRUE(params.grad_input.empty());
            expect_bits_equal(params.grad_weight, want.grads.grad_weight, "grad_weight (params)");
            expect_bits_equal(params.grad_bias, want.grads.grad_bias, "grad_bias (params)");
          }
        }
      }
    }
  }
}
