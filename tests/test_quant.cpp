// The reduced-precision path (DESIGN.md §16): quantize/dequantize round-trip
// error bounds, the int8 GEMM against the scalar oracle, the int8 conv scan
// against the fp32 conv, the fused GEMM epilogues against the unfused
// pipeline (bitwise for bias/ReLU/softmax, since their placement was chosen
// to replicate the unfused operation order), and an exact-grid case where
// even the int8 path must match bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

using namespace fedcleanse;
using tensor::ComputeKernel;
using tensor::GemmEpilogue;
using tensor::GemmMask;

namespace {

std::vector<float> random_matrix(int rows, int cols, std::uint64_t seed, float span = 1.0f) {
  common::Rng rng(seed);
  std::vector<float> m(static_cast<std::size_t>(rows) * cols);
  for (auto& v : m) v = span * static_cast<float>(rng.normal());
  return m;
}

// Max |c_ref - c| over the matrix, scaled by the max |c_ref|.
float rel_error(const std::vector<float>& ref, const std::vector<float>& got) {
  float err = 0.0f, mag = 0.0f;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err = std::max(err, std::fabs(ref[i] - got[i]));
    mag = std::max(mag, std::fabs(ref[i]));
  }
  return mag > 0.0f ? err / mag : err;
}

TEST(QuantPrimitives, KernelNamesRoundTrip) {
  for (auto k : {ComputeKernel::kF32, ComputeKernel::kInt8}) {
    const auto parsed = tensor::parse_compute_kernel(tensor::compute_kernel_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(tensor::parse_compute_kernel("f16").has_value());
  EXPECT_FALSE(tensor::parse_compute_kernel("bf16").has_value());
}

TEST(QuantPrimitives, MaxAbsMatchesScalarSweep) {
  common::Rng rng(7);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 1000u}) {
    std::vector<float> x(n);
    float want = 0.0f;
    for (auto& v : x) {
      v = static_cast<float>(rng.normal()) * 3.0f;
      want = std::max(want, std::fabs(v));
    }
    EXPECT_EQ(tensor::max_abs(x.data(), n), want) << "n=" << n;
  }
}

TEST(QuantPrimitives, Int8RoundTripBoundedByHalfStep) {
  common::Rng rng(11);
  std::vector<float> x(1000);
  for (auto& v : x) v = static_cast<float>(rng.normal()) * 2.5f;
  const float scale = tensor::int8_scale(tensor::max_abs(x.data(), x.size()));
  std::vector<std::int8_t> q(x.size());
  std::vector<float> back(x.size());
  tensor::quantize_s8(x.data(), x.size(), scale, q.data());
  tensor::dequantize_s8(q.data(), q.size(), scale, back.data());
  // Round-to-nearest leaves at most half a quantization step of error.
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::fabs(x[i] - back[i]), 0.5f * scale * 1.0001f) << "i=" << i;
  }
}

TEST(QuantPrimitives, Int8ZeroTensorStaysExactZero) {
  const std::vector<float> x(16, 0.0f);
  const float scale = tensor::int8_scale(tensor::max_abs(x.data(), x.size()));
  EXPECT_EQ(scale, 1.0f);
  std::vector<std::int8_t> q(x.size());
  std::vector<float> back(x.size());
  tensor::quantize_s8(x.data(), x.size(), scale, q.data());
  tensor::dequantize_s8(q.data(), q.size(), scale, back.data());
  for (float v : back) EXPECT_EQ(v, 0.0f);
}

TEST(QuantPrimitives, QuantizeClampsOutOfRangeValues) {
  const float x[3] = {1000.0f, -1000.0f, 0.25f};
  std::int8_t q[3];
  tensor::quantize_s8(x, 3, 1.0f, q);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -127);
  EXPECT_EQ(q[2], 0);
}

// ---------------------------------------------------------------------------
// int8 GEMM vs the scalar oracle

TEST(GemmS8, MatchesReferenceAcrossShapes) {
  // Conv-shaped (m=cout, k=cin·kh·kw, n=pdim) and ragged/blocked shapes that
  // straddle the MR/NR/KC boundaries.
  const int shapes[][3] = {{4, 16, 16},   {32, 144, 100}, {16, 27, 64},  {5, 7, 3},
                           {50, 500, 16}, {4, 513, 33},   {100, 800, 10}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    const auto a = random_matrix(m, k, 1000 + m);
    const auto b = random_matrix(k, n, 2000 + n);
    std::vector<float> ref(static_cast<std::size_t>(m) * n);
    tensor::gemm_reference(false, false, m, n, k, a.data(), k, b.data(), n, ref.data(), n,
                           false);
    const auto pa = tensor::pack_a_int8(a.data(), k, m, k, /*per_channel=*/true);
    std::vector<float> got(ref.size(), -7.0f);
    tensor::gemm_s8(pa, n, b.data(), n, got.data(), n, /*accumulate=*/false);
    // Two rounds of int8 quantization: error scales with sqrt(k)/127² of the
    // operand magnitudes; 2% relative is comfortably above what the kernel
    // produces and far below what a wrong kernel would produce.
    EXPECT_LT(rel_error(ref, got), 0.02f) << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(GemmS8, PerTensorScalesStayWithinLooserBound) {
  const int m = 32, k = 144, n = 100;
  const auto a = random_matrix(m, k, 31);
  const auto b = random_matrix(k, n, 32);
  std::vector<float> ref(static_cast<std::size_t>(m) * n);
  tensor::gemm_reference(false, false, m, n, k, a.data(), k, b.data(), n, ref.data(), n,
                         false);
  const auto pa = tensor::pack_a_int8(a.data(), k, m, k, /*per_channel=*/false);
  for (float s : pa.scales) EXPECT_EQ(s, pa.scales[0]);  // one scale, replicated
  std::vector<float> got(ref.size());
  tensor::gemm_s8(pa, n, b.data(), n, got.data(), n, false);
  EXPECT_LT(rel_error(ref, got), 0.04f);
}

TEST(GemmS8, AccumulateAddsOntoExistingC) {
  const int m = 8, k = 64, n = 24;
  const auto a = random_matrix(m, k, 41);
  const auto b = random_matrix(k, n, 42);
  const auto c0 = random_matrix(m, n, 43);
  const auto pa = tensor::pack_a_int8(a.data(), k, m, k, true);
  std::vector<float> once(c0), twice(c0);
  tensor::gemm_s8(pa, n, b.data(), n, once.data(), n, /*accumulate=*/true);
  std::vector<float> product(static_cast<std::size_t>(m) * n);
  tensor::gemm_s8(pa, n, b.data(), n, product.data(), n, /*accumulate=*/false);
  for (std::size_t i = 0; i < twice.size(); ++i) twice[i] += product[i];
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(once[i], twice[i], 1e-5f) << i;
  }
}

TEST(GemmS8, ExactOnInt8GridIsBitIdenticalToReference) {
  // Inputs already on an int8 grid with power-of-two scales: quantization is
  // lossless, int32 accumulation is exact, and the dequant multiply by a
  // power of two is exact — so even the int8 path must match the fp32
  // oracle bit for bit.
  common::Rng rng(99);
  const int m = 20, k = 300, n = 17;
  std::vector<float> a(static_cast<std::size_t>(m) * k), b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) {
    v = static_cast<float>(static_cast<int>(rng.next_u64() % 255) - 127) * 0.0078125f;
  }
  for (auto& v : b) {
    v = static_cast<float>(static_cast<int>(rng.next_u64() % 255) - 127) * 0.0078125f;
  }
  // Pin every A row's max (per-channel scales) and B's max (per-tensor) so
  // every derived scale is exactly 2^-7 · 127 / 127 = 2^-7.
  for (int i = 0; i < m; ++i) a[static_cast<std::size_t>(i) * k] = 127.0f * 0.0078125f;
  b[0] = 127.0f * 0.0078125f;
  std::vector<float> ref(static_cast<std::size_t>(m) * n), got(ref.size());
  tensor::gemm_reference(false, false, m, n, k, a.data(), k, b.data(), n, ref.data(), n,
                         false);
  const auto pa = tensor::pack_a_int8(a.data(), k, m, k, true);
  tensor::gemm_s8(pa, n, b.data(), n, got.data(), n, false);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// int8 conv scan vs the fp32 conv

TEST(ConvQuant, Int8TracksF32PrunesExactlyAndFallsBackBitwise) {
  common::Rng rng(131);
  struct Case {
    int n, cin, h, w, cout, k, stride, padding;
    bool relu;
  };
  // Padded and strided geometries, with and without the fused ReLU.
  const Case cases[] = {{2, 3, 12, 12, 8, 3, 1, 1, false},
                        {3, 4, 11, 9, 6, 3, 2, 1, true},
                        {2, 2, 13, 13, 5, 5, 2, 0, false},
                        {1, 5, 9, 10, 7, 3, 2, 2, true}};
  for (const auto& c : cases) {
    const auto x = tensor::Tensor::randn(tensor::Shape{c.n, c.cin, c.h, c.w}, rng);
    auto wt = tensor::Tensor::randn(tensor::Shape{c.cout, c.cin, c.k, c.k}, rng, 0.0f, 0.3f);
    auto bias = tensor::Tensor::randn(tensor::Shape{c.cout}, rng, 0.0f, 0.1f);
    const tensor::Conv2dSpec spec{c.stride, c.padding};
    const auto ref = tensor::conv2d_forward(x, wt, bias, spec, nullptr, c.relu);
    const auto got =
        tensor::conv2d_forward_quant(x, wt, bias, spec, ComputeKernel::kInt8, c.relu);
    ASSERT_EQ(got.shape(), ref.shape());
    float refmax = 0.0f;
    for (float v : ref.storage()) refmax = std::max(refmax, std::fabs(v));
    ASSERT_GT(refmax, 0.0f);
    for (std::size_t i = 0; i < ref.storage().size(); ++i) {
      EXPECT_NEAR(got.storage()[i], ref.storage()[i], 0.05f * refmax)
          << "stride=" << c.stride << " padding=" << c.padding << " i=" << i;
    }

    // A pruned channel (zeroed weights and bias, as set_unit_active leaves
    // it) quantizes to a zero row and comes out as exact zeros.
    const int pruned = c.cout / 2;
    const std::size_t wrow = static_cast<std::size_t>(c.cin) * c.k * c.k;
    std::fill_n(wt.storage().begin() + static_cast<std::ptrdiff_t>(pruned * wrow), wrow, 0.0f);
    bias.storage()[static_cast<std::size_t>(pruned)] = 0.0f;
    std::vector<std::uint8_t> active(static_cast<std::size_t>(c.cout), 1);
    active[static_cast<std::size_t>(pruned)] = 0;
    const auto masked = tensor::conv2d_forward_quant(x, wt, bias, spec, ComputeKernel::kInt8,
                                                     c.relu, active.data());
    const int plane = masked.shape()[2] * masked.shape()[3];
    for (int b = 0; b < c.n; ++b) {
      const float* ch = masked.storage().data() +
                        (static_cast<std::size_t>(b) * c.cout + pruned) * plane;
      for (int p = 0; p < plane; ++p) EXPECT_EQ(ch[p], 0.0f) << "sample " << b << " p=" << p;
    }
  }

  // ho·wo > kGemmNC exceeds the int8 kernel's single-pass column limit, so
  // the scan falls back to the fp32 conv bit for bit.
  const auto x = tensor::Tensor::randn(tensor::Shape{2, 2, 48, 48}, rng);
  const auto wt = tensor::Tensor::randn(tensor::Shape{4, 2, 3, 3}, rng, 0.0f, 0.3f);
  const auto bias = tensor::Tensor::randn(tensor::Shape{4}, rng, 0.0f, 0.1f);
  const tensor::Conv2dSpec spec{1, 1};
  ASSERT_GT(48 * 48, tensor::kGemmNC);
  const auto ref = tensor::conv2d_forward(x, wt, bias, spec, nullptr, true);
  const auto got = tensor::conv2d_forward_quant(x, wt, bias, spec, ComputeKernel::kInt8, true);
  EXPECT_EQ(got.shape(), ref.shape());
  EXPECT_EQ(got.storage(), ref.storage());
}

// ---------------------------------------------------------------------------
// Fused epilogues: bitwise against the unfused pipeline

TEST(GemmEpilogueTest, RowBiasMatchesPrefilledAccumulateBitwise) {
  // Unfused conv pipeline: prefill C with the per-row bias, accumulate.
  const int m = 19, k = 300, n = 37;
  const auto a = random_matrix(m, k, 71);
  const auto b = random_matrix(k, n, 72);
  const auto bias = random_matrix(m, 1, 73);
  std::vector<float> unfused(static_cast<std::size_t>(m) * n), fused(unfused.size());
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) unfused[static_cast<std::size_t>(i) * n + j] = bias[i];
  }
  tensor::gemm(false, false, m, n, k, a.data(), k, b.data(), n, unfused.data(), n,
               /*accumulate=*/true);
  GemmEpilogue epi;
  epi.row_bias = bias.data();
  tensor::gemm(false, false, m, n, k, a.data(), k, b.data(), n, fused.data(), n,
               /*accumulate=*/false, {}, epi);
  for (std::size_t i = 0; i < fused.size(); ++i) EXPECT_EQ(unfused[i], fused[i]) << i;
}

TEST(GemmEpilogueTest, ColBiasAndReluMatchPostPassBitwise) {
  // Unfused linear pipeline: GEMM, then y[i][j] += bias[j], then ReLU —
  // with k spanning multiple KC blocks so first-block placement would fail.
  const int m = 33, k = 700, n = 29;
  const auto a = random_matrix(m, k, 81);
  const auto b = random_matrix(k, n, 82);
  const auto bias = random_matrix(1, n, 83);
  std::vector<float> unfused(static_cast<std::size_t>(m) * n), fused(unfused.size());
  tensor::gemm(false, false, m, n, k, a.data(), k, b.data(), n, unfused.data(), n, false);
  for (int i = 0; i < m; ++i) {
    float* row = unfused.data() + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      row[j] += bias[j];
      if (row[j] < 0.0f) row[j] = 0.0f;
    }
  }
  GemmEpilogue epi;
  epi.col_bias = bias.data();
  epi.relu = true;
  tensor::gemm(false, false, m, n, k, a.data(), k, b.data(), n, fused.data(), n, false, {},
               epi);
  for (std::size_t i = 0; i < fused.size(); ++i) EXPECT_EQ(unfused[i], fused[i]) << i;
}

TEST(GemmEpilogueTest, SoftmaxMatchesSoftmaxRowsBitwise) {
  const int m = 26, k = 800, n = 10;
  const auto a = random_matrix(m, k, 91);
  const auto b = random_matrix(k, n, 92);
  const auto bias = random_matrix(1, n, 93);
  tensor::Tensor logits(tensor::Shape{m, n});
  tensor::gemm(false, false, m, n, k, a.data(), k, b.data(), n, logits.data().data(), n,
               false);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) logits.data()[static_cast<std::size_t>(i) * n + j] += bias[j];
  }
  const tensor::Tensor probs = tensor::softmax_rows(logits);
  std::vector<float> fused(static_cast<std::size_t>(m) * n);
  GemmEpilogue epi;
  epi.col_bias = bias.data();
  epi.softmax = true;
  tensor::gemm(false, false, m, n, k, a.data(), k, b.data(), n, fused.data(), n, false, {},
               epi);
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(probs.data()[i], fused[i]) << i;
  }
}

TEST(GemmEpilogueTest, RowMaskKeepsInactiveRowsUntouched) {
  const int m = 9, k = 120, n = 21;
  const auto a = random_matrix(m, k, 101);
  const auto b = random_matrix(k, n, 102);
  const auto bias = random_matrix(m, 1, 103);
  std::vector<std::uint8_t> active(m, 1);
  active[2] = active[7] = 0;
  // The caller owns inactive rows; both pipelines pre-zero them.
  std::vector<float> unfused(static_cast<std::size_t>(m) * n, 0.0f), fused = unfused;
  for (int i = 0; i < m; ++i) {
    if (!active[i]) continue;
    for (int j = 0; j < n; ++j) unfused[static_cast<std::size_t>(i) * n + j] = bias[i];
  }
  GemmMask mask;
  mask.row_active = active.data();
  tensor::gemm(false, false, m, n, k, a.data(), k, b.data(), n, unfused.data(), n, true,
               mask);
  for (int i = 0; i < m; ++i) {
    if (!active[i]) continue;
    float* row = unfused.data() + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) row[j] = row[j] < 0.0f ? 0.0f : row[j];
  }
  GemmEpilogue epi;
  epi.row_bias = bias.data();
  epi.relu = true;
  tensor::gemm(false, false, m, n, k, a.data(), k, b.data(), n, fused.data(), n, false,
               mask, epi);
  for (std::size_t i = 0; i < fused.size(); ++i) EXPECT_EQ(unfused[i], fused[i]) << i;
}

TEST(GemmEpilogueTest, QuantizedDriversApplyEpilogue) {
  const int m = 12, k = 90, n = 18;
  const auto a = random_matrix(m, k, 111);
  const auto b = random_matrix(k, n, 112);
  const auto rbias = random_matrix(m, 1, 113);
  std::vector<float> ref(static_cast<std::size_t>(m) * n);
  tensor::gemm_reference(false, false, m, n, k, a.data(), k, b.data(), n, ref.data(), n,
                         false);
  for (int i = 0; i < m; ++i) {
    float* row = ref.data() + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      row[j] += rbias[i];
      if (row[j] < 0.0f) row[j] = 0.0f;
    }
  }
  GemmEpilogue epi;
  epi.row_bias = rbias.data();
  epi.relu = true;
  const auto pa = tensor::pack_a_int8(a.data(), k, m, k, true);
  std::vector<float> q8(ref.size());
  tensor::gemm_s8(pa, n, b.data(), n, q8.data(), n, false, epi);
  // Quantization error scales with the accumulated magnitude, not the
  // (ReLU-clamped) per-element result, so bound it by the matrix max.
  float refmax = 0.0f;
  for (float v : ref) refmax = std::max(refmax, std::fabs(v));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(ref[i], q8[i], 0.03f * refmax) << i;
    EXPECT_GE(q8[i], 0.0f);  // ReLU must clamp
  }
}

}  // namespace
