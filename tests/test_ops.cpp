#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>

#include "common/rng.h"
#include "tensor/ops.h"

using namespace fedcleanse::tensor;
using fedcleanse::common::Rng;

namespace {

// Reference convolution: the obvious quadruple loop, independent of the
// implicit-GEMM production kernel.
Tensor conv_reference(const Tensor& input, const Tensor& weight, const Tensor& bias,
                      const Conv2dSpec& spec) {
  const int n = input.shape()[0], cin = input.shape()[1], h = input.shape()[2],
            w = input.shape()[3];
  const int cout = weight.shape()[0], kh = weight.shape()[2], kw = weight.shape()[3];
  const int ho = (h + 2 * spec.padding - kh) / spec.stride + 1;
  const int wo = (w + 2 * spec.padding - kw) / spec.stride + 1;
  Tensor out(Shape{n, cout, ho, wo});
  for (int b = 0; b < n; ++b) {
    for (int oc = 0; oc < cout; ++oc) {
      for (int oy = 0; oy < ho; ++oy) {
        for (int ox = 0; ox < wo; ++ox) {
          float acc = bias.at(oc);
          for (int ic = 0; ic < cin; ++ic) {
            for (int ky = 0; ky < kh; ++ky) {
              for (int kx = 0; kx < kw; ++kx) {
                const int iy = oy * spec.stride - spec.padding + ky;
                const int ix = ox * spec.stride - spec.padding + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                acc += input.at(b, ic, iy, ix) * weight.at(oc, ic, ky, kx);
              }
            }
          }
          out.at(b, oc, oy, ox) = acc;
        }
      }
    }
  }
  return out;
}

}  // namespace

TEST(Matmul, HandComputed) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  auto c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.storage(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(Matmul, InnerDimMismatchThrows) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{2, 3});
  EXPECT_THROW(matmul(a, b), fedcleanse::Error);
}

// Property: every transpose combination agrees with explicit transposition.
class MatmulTransposeTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(MatmulTransposeTest, AgreesWithExplicitTranspose) {
  auto [ta, tb] = GetParam();
  Rng rng(31);
  const int m = 4, k = 5, n = 3;
  Tensor a = Tensor::randn(ta ? Shape{k, m} : Shape{m, k}, rng);
  Tensor b = Tensor::randn(tb ? Shape{n, k} : Shape{k, n}, rng);

  auto transpose = [](const Tensor& t) {
    Tensor out(Shape{t.shape()[1], t.shape()[0]});
    for (int i = 0; i < t.shape()[0]; ++i) {
      for (int j = 0; j < t.shape()[1]; ++j) out.at(j, i) = t.at(i, j);
    }
    return out;
  };
  Tensor a_eff = ta ? transpose(a) : a;
  Tensor b_eff = tb ? transpose(b) : b;
  auto expected = matmul(a_eff, b_eff);
  auto actual = matmul_t(a, ta, b, tb);
  ASSERT_EQ(actual.shape(), expected.shape());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, MatmulTransposeTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

TEST(Conv2d, HandComputedIdentityKernel) {
  // 1x1 kernel with weight 2 and bias 1 is an affine map.
  Tensor x(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor w(Shape{1, 1, 1, 1}, {2});
  Tensor b(Shape{1}, {1});
  auto y = conv2d_forward(x, w, b, {1, 0});
  EXPECT_EQ(y.storage(), (std::vector<float>{3, 5, 7, 9}));
}

// Property sweep: production conv == reference conv across geometry.
class ConvGeometryTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};
// (cin, cout, kernel, stride, padding)

TEST_P(ConvGeometryTest, MatchesReference) {
  auto [cin, cout, kernel, stride, padding] = GetParam();
  Rng rng(17);
  Tensor x = Tensor::randn(Shape{2, cin, 7, 7}, rng);
  Tensor w = Tensor::randn(Shape{cout, cin, kernel, kernel}, rng, 0.0f, 0.5f);
  Tensor b = Tensor::randn(Shape{cout}, rng);
  Conv2dSpec spec{stride, padding};
  auto expected = conv_reference(x, w, b, spec);
  auto actual = conv2d_forward(x, w, b, spec);
  ASSERT_EQ(actual.shape(), expected.shape());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-4f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvGeometryTest,
                         ::testing::Values(std::make_tuple(1, 1, 3, 1, 0),
                                           std::make_tuple(1, 4, 3, 1, 1),
                                           std::make_tuple(3, 2, 3, 1, 1),
                                           std::make_tuple(2, 3, 5, 1, 2),
                                           std::make_tuple(2, 2, 3, 2, 1),
                                           std::make_tuple(4, 4, 1, 1, 0),
                                           std::make_tuple(1, 2, 5, 2, 0)));

TEST(Conv2d, BackwardMatchesFiniteDifference) {
  Rng rng(23);
  Tensor x = Tensor::randn(Shape{1, 2, 5, 5}, rng);
  Tensor w = Tensor::randn(Shape{3, 2, 3, 3}, rng, 0.0f, 0.5f);
  Tensor b = Tensor::randn(Shape{3}, rng);
  Conv2dSpec spec{1, 1};

  // Scalar objective: sum of outputs → grad_output of ones.
  auto y = conv2d_forward(x, w, b, spec);
  Tensor gy = Tensor::ones(y.shape());
  auto grads = conv2d_backward(x, w, gy, spec);

  const float eps = 1e-3f;
  auto objective = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    return conv2d_forward(xx, ww, bb, spec).sum();
  };
  // Sample a few coordinates of each gradient.
  for (std::size_t i : {0u, 7u, 24u}) {
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const float numeric = (objective(xp, w, b) - objective(xm, w, b)) / (2 * eps);
    EXPECT_NEAR(grads.grad_input[i], numeric, 5e-2f);
  }
  for (std::size_t i : {0u, 10u, 35u}) {
    Tensor wp = w;
    wp[i] += eps;
    Tensor wm = w;
    wm[i] -= eps;
    const float numeric = (objective(x, wp, b) - objective(x, wm, b)) / (2 * eps);
    EXPECT_NEAR(grads.grad_weight[i], numeric, 5e-2f);
  }
  for (std::size_t i : {0u, 2u}) {
    Tensor bp = b;
    bp[i] += eps;
    Tensor bm = b;
    bm[i] -= eps;
    const float numeric = (objective(x, w, bp) - objective(x, w, bm)) / (2 * eps);
    EXPECT_NEAR(grads.grad_bias[i], numeric, 5e-2f);
  }
}

TEST(Conv2d, ShapeValidation) {
  Tensor x(Shape{1, 2, 4, 4});
  Tensor w(Shape{1, 3, 3, 3});  // channel mismatch
  Tensor b(Shape{1});
  EXPECT_THROW(conv2d_forward(x, w, b, {1, 0}), fedcleanse::Error);
}

TEST(MaxPool, ForwardHandComputed) {
  Tensor x(Shape{1, 1, 4, 4}, {1, 2, 3, 4,    //
                               5, 6, 7, 8,    //
                               9, 10, 11, 12,  //
                               13, 14, 15, 16});
  auto out = maxpool2d_forward(x, 2, 2);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(out.storage(), (std::vector<float>{6, 8, 14, 16}));
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  Tensor x(Shape{1, 1, 2, 2}, {1, 9, 3, 4});
  std::vector<std::int64_t> argmax;
  maxpool2d_forward(x, 2, 2, &argmax);
  Tensor gy(Shape{1, 1, 1, 1}, {5});
  auto gx = maxpool2d_backward(x.shape(), argmax, gy);
  EXPECT_EQ(gx.storage(), (std::vector<float>{0, 5, 0, 0}));
}

TEST(MaxPool, OverlappingStride) {
  Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  auto out = maxpool2d_forward(x, 2, 1);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(out.storage(), (std::vector<float>{5, 6, 8, 9}));
}

namespace {

struct PoolResult {
  Tensor output;
  std::vector<std::int64_t> argmax;
};

// maxpool2d_forward with its argmax.
PoolResult maxpool_with_argmax(const Tensor& x, int kernel, int stride) {
  PoolResult r;
  r.output = maxpool2d_forward(x, kernel, stride, &r.argmax);
  return r;
}

// The generic window loop written out independently: first maximum in
// (ky, kx) order, seeded with the window's first tap.
PoolResult maxpool_reference(const Tensor& x, int kernel, int stride) {
  const int n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], w = x.shape()[3];
  const int ho = (h - kernel) / stride + 1, wo = (w - kernel) / stride + 1;
  PoolResult r{Tensor(Shape{n, c, ho, wo}), {}};
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      for (int oy = 0; oy < ho; ++oy) {
        for (int ox = 0; ox < wo; ++ox) {
          auto flat = [&](int y, int xx) {
            return ((static_cast<std::int64_t>(b) * c + ch) * h + y) * w + xx;
          };
          std::int64_t best = flat(oy * stride, ox * stride);
          for (int ky = 0; ky < kernel; ++ky) {
            for (int kx = 0; kx < kernel; ++kx) {
              const std::int64_t i = flat(oy * stride + ky, ox * stride + kx);
              if (x.data()[static_cast<std::size_t>(i)] >
                  x.data()[static_cast<std::size_t>(best)]) {
                best = i;
              }
            }
          }
          r.output.at(b, ch, oy, ox) = x.data()[static_cast<std::size_t>(best)];
          r.argmax.push_back(best);
        }
      }
    }
  }
  return r;
}

// Whether flat index idx of a [1, 1, h, w] input lies in window (oy, ox).
bool in_window(std::int64_t idx, int w, int oy, int ox, int kernel, int stride) {
  const int y = static_cast<int>(idx / w), xx = static_cast<int>(idx % w);
  return y >= oy * stride && y < oy * stride + kernel && xx >= ox * stride &&
         xx < ox * stride + kernel;
}

}  // namespace

TEST(MaxPool, TwoByTwoPathMatchesGenericLoopBitExactly) {
  // Small-integer data makes ties common; odd sizes leave a ragged last row
  // and column that the pool drops.
  Rng rng(31);
  for (auto [h, w] : {std::pair{20, 20}, std::pair{7, 9}, std::pair{5, 2}, std::pair{2, 3}}) {
    SCOPED_TRACE(testing::Message() << h << "x" << w);
    Tensor x(Shape{3, 4, h, w});
    for (auto& v : x.storage()) v = static_cast<float>(rng.int_range(0, 3)) - 1.0f;
    x.storage()[1] = -0.0f;  // a signed-zero tie with the +0 entries
    const auto got = maxpool_with_argmax(x, 2, 2);
    const auto want = maxpool_reference(x, 2, 2);
    const auto no_argmax = maxpool2d_forward(x, 2, 2);  // the inference kernel
    ASSERT_EQ(got.output.shape(), want.output.shape());
    ASSERT_EQ(no_argmax.shape(), want.output.shape());
    EXPECT_EQ(got.argmax, want.argmax);
    for (std::size_t i = 0; i < got.output.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got.output.data()[i]),
                std::bit_cast<std::uint32_t>(want.output.data()[i]))
          << "element " << i;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(no_argmax.data()[i]),
                std::bit_cast<std::uint32_t>(want.output.data()[i]))
          << "element " << i;
    }
  }
}

TEST(MaxPool, DegenerateWindowsKeepArgmaxInsideTheWindow) {
  // An all-NaN or all-(−∞) window has no tap that beats −∞; the argmax must
  // still name a tap of the window (backward writes there), and a NaN first
  // tap must come out as NaN rather than hiding a diverged model. Runs the
  // 2×2 fast path and the generic loop (3×3 windows).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (int k : {2, 3}) {
    SCOPED_TRACE(testing::Message() << "kernel " << k);
    const int h = 2 * k, w = 2 * k;
    Tensor x = Tensor::full(Shape{1, 1, h, w}, nan);  // window (0,0): all NaN
    for (int y = 0; y < k; ++y) {
      for (int xx = k; xx < w; ++xx) x.at(0, 0, y, xx) = -inf;  // (0,1): all −∞
    }
    for (int y = k; y < h; ++y) {
      for (int xx = 0; xx < k; ++xx) x.at(0, 0, y, xx) = 1.0f;  // (1,0): NaN first
    }
    x.at(0, 0, k, 0) = nan;
    for (int y = k; y < h; ++y) {
      for (int xx = k; xx < w; ++xx) x.at(0, 0, y, xx) = 2.0f;  // (1,1): ordinary
    }
    const auto r = maxpool_with_argmax(x, k, k);
    ASSERT_EQ(r.argmax.size(), 4u);
    for (int oy = 0; oy < 2; ++oy) {
      for (int ox = 0; ox < 2; ++ox) {
        EXPECT_TRUE(in_window(r.argmax[static_cast<std::size_t>(oy * 2 + ox)], w, oy, ox, k, k))
            << "window (" << oy << "," << ox << ") argmax "
            << r.argmax[static_cast<std::size_t>(oy * 2 + ox)];
      }
    }
    EXPECT_TRUE(std::isnan(r.output.at(0, 0, 0, 0)));
    EXPECT_EQ(r.output.at(0, 0, 0, 1), -inf);
    EXPECT_TRUE(std::isnan(r.output.at(0, 0, 1, 0)));
    EXPECT_EQ(r.output.at(0, 0, 1, 1), 2.0f);

    const auto gx = maxpool2d_backward(x.shape(), r.argmax, Tensor::ones(r.output.shape()));
    float total = 0.0f;
    for (float g : gx.storage()) total += g;
    EXPECT_EQ(total, 4.0f);  // every window routed its gradient to one in-bounds tap
  }
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(3);
  auto logits = Tensor::randn(Shape{5, 10}, rng, 0.0f, 3.0f);
  auto p = softmax_rows(logits);
  for (int i = 0; i < 5; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < 10; ++j) sum += p.at(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor logits(Shape{1, 3}, {1000.0f, 1000.0f, 1000.0f});
  auto p = softmax_rows(logits);
  for (float v : p.data()) EXPECT_NEAR(v, 1.0f / 3.0f, 1e-5f);
}

TEST(Softmax, PreservesOrdering) {
  Tensor logits(Shape{1, 3}, {1.0f, 3.0f, 2.0f});
  auto p = softmax_rows(logits);
  EXPECT_GT(p.at(0, 1), p.at(0, 2));
  EXPECT_GT(p.at(0, 2), p.at(0, 0));
}

TEST(Argmax, RowWise) {
  Tensor t(Shape{2, 3}, {0.1f, 0.9f, 0.3f, 0.7f, 0.2f, 0.1f});
  EXPECT_EQ(argmax_rows(t), (std::vector<int>{1, 0}));
}

TEST(MeanStddev, HandComputed) {
  std::vector<float> values{2, 4, 4, 4, 5, 5, 7, 9};
  auto [mean, stddev] = mean_stddev(values);
  EXPECT_DOUBLE_EQ(mean, 5.0);
  EXPECT_DOUBLE_EQ(stddev, 2.0);
}

TEST(MeanStddev, EmptyThrows) {
  std::vector<float> empty;
  EXPECT_THROW(mean_stddev(empty), fedcleanse::Error);
}
