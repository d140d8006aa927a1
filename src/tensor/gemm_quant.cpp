// int8 GEMM driver (DESIGN.md §16).
//
// The int8 path reuses the fp32 kernel's blocking (KC-depth panels, MR-row
// strips, NR-column slivers) but contracts int16 *pairs*: both AVX2's
// vpmaddwd and AVX-VNNI's vpdpwssd multiply two adjacent int16 lanes and
// add (into) an int32 lane, so depth is packed two-at-a-time. With |q| ≤ 127
// a pair-sum peaks at 32 258 and a KC=256 sweep at ~4.2e6 — far inside
// int32, so accumulation within a k block is exact; blocks fold into fp32 C.
//
// A (the weight operand) is quantized and packed once per scan via
// pack_a_int8; B (activations) quantizes per tensor with the conversion
// fused into its pack step (float load → scale → cvtps2dq → int16 merge),
// which is what keeps the end-to-end ratio above 2× — a separate scalar
// quantization pass costs more than the GEMM saves.
//
// The SIMD kernels are compiled with function-level target attributes and
// picked once at startup via __builtin_cpu_supports, so the fast paths
// exist regardless of the translation unit's -march baseline: vpdpwssd
// where AVX-VNNI is available, vpmaddwd+vpaddd on plain AVX2, and a
// portable scalar kernel (same exact int32 sums) everywhere else.
#include "tensor/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "tensor/gemm_internal.h"
#include "tensor/workspace.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define FC_QUANT_X86 1
#include <immintrin.h>
#endif

namespace fedcleanse::tensor {

namespace {

inline int ceil_div(int a, int b) { return (a + b - 1) / b; }

// int16 entries per packed depth-pair row of a strip / sliver.
constexpr int kPairA = kGemmMR * 2;
constexpr int kPairB = kGemmNR * 2;
constexpr int kPairsPerBlock = (kGemmKC + 1) / 2;

// int32 accumulator tile produced by the int8 microkernels.
using AccTile = std::int32_t[kGemmMR * kGemmNR];

// Portable kernel computing the same exact int32 pair sums as the SIMD
// variants — the dispatch fallback and the semantics reference.
void micro_s8_portable(int pairs, const std::int16_t* __restrict ap,
                       const std::int16_t* __restrict bp, std::int32_t* __restrict acc) {
  std::int32_t t[kGemmMR][kGemmNR] = {};
  for (int p = 0; p < pairs; ++p) {
    const std::int16_t* arow = ap + static_cast<std::size_t>(p) * kPairA;
    const std::int16_t* brow = bp + static_cast<std::size_t>(p) * kPairB;
    for (int i = 0; i < kGemmMR; ++i) {
      const std::int32_t x0 = arow[2 * i], x1 = arow[2 * i + 1];
      for (int j = 0; j < kGemmNR; ++j) {
        t[i][j] += x0 * brow[2 * j] + x1 * brow[2 * j + 1];
      }
    }
  }
  std::memcpy(acc, t, sizeof(t));
}

#if defined(FC_QUANT_X86)

inline std::int32_t load_i32(const std::int16_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// One microkernel body, instantiated for both dot-product instructions. The
// 8 accumulators (4 rows × 2 halves of NR=16) plus a broadcast and 2 B
// vectors stay in YMM registers across the whole depth sweep; depth is
// unrolled by two packed pairs to cover the broadcast latency.
#define FC_S8_MICRO_STEP(DOT, AOFF, BL, BH)                          \
  av = _mm256_set1_epi32(load_i32(arow + (AOFF)));                   \
  a0l = DOT(a0l, av, BL);                                            \
  a0h = DOT(a0h, av, BH);                                            \
  av = _mm256_set1_epi32(load_i32(arow + (AOFF) + 2));               \
  a1l = DOT(a1l, av, BL);                                            \
  a1h = DOT(a1h, av, BH);                                            \
  av = _mm256_set1_epi32(load_i32(arow + (AOFF) + 4));               \
  a2l = DOT(a2l, av, BL);                                            \
  a2h = DOT(a2h, av, BH);                                            \
  av = _mm256_set1_epi32(load_i32(arow + (AOFF) + 6));               \
  a3l = DOT(a3l, av, BL);                                            \
  a3h = DOT(a3h, av, BH);

#define FC_S8_MICRO_BODY(DOT)                                                        \
  __m256i a0l = _mm256_setzero_si256(), a0h = a0l, a1l = a0l, a1h = a0l, a2l = a0l,  \
          a2h = a0l, a3l = a0l, a3h = a0l;                                           \
  __m256i av;                                                                        \
  int p = 0;                                                                         \
  for (; p + 2 <= pairs; p += 2) {                                                   \
    const std::int16_t* arow = ap + static_cast<std::size_t>(p) * kPairA;            \
    const std::int16_t* brow = bp + static_cast<std::size_t>(p) * kPairB;            \
    __m256i bl = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow));         \
    __m256i bh = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + 16));    \
    FC_S8_MICRO_STEP(DOT, 0, bl, bh)                                                 \
    bl = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + 32));            \
    bh = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + 48));            \
    FC_S8_MICRO_STEP(DOT, 8, bl, bh)                                                 \
  }                                                                                  \
  for (; p < pairs; ++p) {                                                           \
    const std::int16_t* arow = ap + static_cast<std::size_t>(p) * kPairA;            \
    const std::int16_t* brow = bp + static_cast<std::size_t>(p) * kPairB;            \
    const __m256i bl = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow));   \
    const __m256i bh =                                                               \
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + 16));             \
    FC_S8_MICRO_STEP(DOT, 0, bl, bh)                                                 \
  }                                                                                  \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 0), a0l);                     \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 8), a0h);                     \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 16), a1l);                    \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 24), a1h);                    \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 32), a2l);                    \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 40), a2h);                    \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 48), a3l);                    \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 56), a3h);

#define FC_DOT_MADD(acc, a, b) _mm256_add_epi32(acc, _mm256_madd_epi16(a, b))
#define FC_DOT_VNNI(acc, a, b) _mm256_dpwssd_avx_epi32(acc, a, b)

__attribute__((target("avx2"))) void micro_s8_avx2(int pairs,
                                                   const std::int16_t* __restrict ap,
                                                   const std::int16_t* __restrict bp,
                                                   std::int32_t* __restrict acc) {
  FC_S8_MICRO_BODY(FC_DOT_MADD)
}

__attribute__((target("avxvnni"))) void micro_s8_vnni(int pairs,
                                                      const std::int16_t* __restrict ap,
                                                      const std::int16_t* __restrict bp,
                                                      std::int32_t* __restrict acc) {
  FC_S8_MICRO_BODY(FC_DOT_VNNI)
}

// Full-width (n_sub == NR) fused quantize+pack of one B sliver: float load,
// scale, cvtps2dq (round-to-nearest-even, same as std::rintf), and a merge
// of two depths into each 32-bit lane.
__attribute__((target("avx2"))) void pack_b_q8_full_avx2(const float* b, int ldb,
                                                         float binv, int k0, int kc,
                                                         int j0, std::int16_t* bp) {
  const int pairs = (kc + 1) / 2;
  const __m256 vinv = _mm256_set1_ps(binv);
  const __m256i mask16 = _mm256_set1_epi32(0xFFFF);
  for (int p = 0; p < pairs; ++p) {
    const float* r0 = b + static_cast<std::size_t>(k0 + 2 * p) * ldb + j0;
    const bool has2 = 2 * p + 1 < kc;
    const float* r1 =
        has2 ? b + static_cast<std::size_t>(k0 + 2 * p + 1) * ldb + j0 : nullptr;
    std::int16_t* dst = bp + static_cast<std::size_t>(p) * kPairB;
    for (int half = 0; half < 2; ++half) {
      const __m256i lo =
          _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(r0 + 8 * half), vinv));
      const __m256i hi =
          has2 ? _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(r1 + 8 * half), vinv))
               : _mm256_setzero_si256();
      const __m256i w =
          _mm256_or_si256(_mm256_slli_epi32(hi, 16), _mm256_and_si256(lo, mask16));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 16 * half), w);
    }
  }
}

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }
bool cpu_has_avxvnni() { return __builtin_cpu_supports("avxvnni"); }

#else

bool cpu_has_avx2() { return false; }
bool cpu_has_avxvnni() { return false; }

#endif  // FC_QUANT_X86

using MicroS8Fn = void (*)(int, const std::int16_t*, const std::int16_t*, std::int32_t*);

MicroS8Fn select_micro_s8() {
#if defined(FC_QUANT_X86)
  if (cpu_has_avxvnni()) return micro_s8_vnni;
  if (cpu_has_avx2()) return micro_s8_avx2;
#endif
  return micro_s8_portable;
}

}  // namespace

const char* int8_dispatch_name() {
  if (cpu_has_avxvnni()) return "avx-vnni";
  if (cpu_has_avx2()) return "avx2";
  return "scalar";
}

namespace {

// Fused quantize+pack of one B sliver: reads kc float rows of n_sub columns,
// writes packed int16 depth-pairs zero-padded to NR columns and a whole
// trailing pair.
void pack_b_q8(const float* b, int ldb, float binv, int k0, int kc, int j0, int n_sub,
               std::int16_t* bp) {
  static const bool have_avx2 = cpu_has_avx2();
#if defined(FC_QUANT_X86)
  if (have_avx2 && n_sub == kGemmNR) {
    pack_b_q8_full_avx2(b, ldb, binv, k0, kc, j0, bp);
    return;
  }
#else
  (void)have_avx2;
#endif
  const int pairs = (kc + 1) / 2;
  for (int p = 0; p < pairs; ++p) {
    const float* r0 = b + static_cast<std::size_t>(k0 + 2 * p) * ldb + j0;
    const float* r1 = 2 * p + 1 < kc
                          ? b + static_cast<std::size_t>(k0 + 2 * p + 1) * ldb + j0
                          : nullptr;
    std::int16_t* dst = bp + static_cast<std::size_t>(p) * kPairB;
    int j = 0;
    for (; j < n_sub; ++j) {
      dst[2 * j] = static_cast<std::int16_t>(static_cast<std::int32_t>(std::rintf(r0[j] * binv)));
      dst[2 * j + 1] =
          r1 != nullptr
              ? static_cast<std::int16_t>(static_cast<std::int32_t>(std::rintf(r1[j] * binv)))
              : 0;
    }
    for (; j < kGemmNR; ++j) {
      dst[2 * j] = 0;
      dst[2 * j + 1] = 0;
    }
  }
}

// Dequantize an int32 accumulator tile into C: c = (float)acc · (sa[i]·sb).
void store_tile_s8(const std::int32_t* acc, float* c, int ldc, int m_sub, int n_sub,
                   bool accumulate, const float* sa, float sb) {
  for (int i = 0; i < m_sub; ++i) {
    const float s = sa[i] * sb;
    const std::int32_t* arow = acc + static_cast<std::size_t>(i) * kGemmNR;
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    if (accumulate) {
      for (int j = 0; j < n_sub; ++j) crow[j] += static_cast<float>(arow[j]) * s;
    } else {
      for (int j = 0; j < n_sub; ++j) crow[j] = static_cast<float>(arow[j]) * s;
    }
  }
}

void add_row_bias(float* c, int ldc, int m, int n, const float* rb) {
  for (int i = 0; i < m; ++i) {
    const float bi = rb[i];
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    for (int j = 0; j < n; ++j) crow[j] += bi;
  }
}

// The whole epilogue runs as a post-pass here (the int8 path carries no
// bitwise-identity contract, so there is nothing to stage block-by-block).
void apply_epilogue(float* c, int ldc, int m, int n, const GemmEpilogue& epi) {
  if (epi.row_bias != nullptr) add_row_bias(c, ldc, m, n, epi.row_bias);
  detail::epilogue_cols(c, ldc, 0, m, 0, n, nullptr, epi);
  if (epi.softmax) detail::epilogue_softmax(c, ldc, 0, m, n, nullptr);
}

}  // namespace

PackedInt8A pack_a_int8(const float* a, int lda, int m, int k, bool per_channel) {
  FC_REQUIRE(m > 0 && k > 0, "pack_a_int8 requires a non-empty matrix");
  PackedInt8A pa;
  pa.m = m;
  pa.k = k;
  pa.kc_blocks = ceil_div(k, kGemmKC);
  const int n_strips = ceil_div(m, kGemmMR);
  pa.strip_stride = static_cast<std::size_t>(kPairsPerBlock) * kPairA;
  pa.block_stride = static_cast<std::size_t>(n_strips) * pa.strip_stride;

  pa.scales.assign(static_cast<std::size_t>(m), 0.0f);
  std::vector<std::int8_t> aq(static_cast<std::size_t>(m) * k);
  float tensor_scale = 1.0f;
  if (!per_channel) {
    float mx = 0.0f;
    for (int i = 0; i < m; ++i) {
      mx = std::max(mx, max_abs(a + static_cast<std::size_t>(i) * lda,
                                static_cast<std::size_t>(k)));
    }
    tensor_scale = int8_scale(mx);
  }
  for (int i = 0; i < m; ++i) {
    const float* row = a + static_cast<std::size_t>(i) * lda;
    const float scale =
        per_channel ? int8_scale(max_abs(row, static_cast<std::size_t>(k))) : tensor_scale;
    pa.scales[static_cast<std::size_t>(i)] = scale;
    quantize_s8(row, static_cast<std::size_t>(k), scale,
                aq.data() + static_cast<std::size_t>(i) * k);
  }

  pa.data.assign(static_cast<std::size_t>(pa.kc_blocks) * pa.block_stride, 0);
  for (int pc = 0, blk = 0; pc < k; pc += kGemmKC, ++blk) {
    const int kc = std::min(kGemmKC, k - pc);
    const int pairs = (kc + 1) / 2;
    for (int is = 0; is < n_strips; ++is) {
      const int i0 = is * kGemmMR;
      const int m_sub = std::min(kGemmMR, m - i0);
      std::int16_t* dst0 = pa.data.data() + static_cast<std::size_t>(blk) * pa.block_stride +
                           static_cast<std::size_t>(is) * pa.strip_stride;
      for (int p = 0; p < pairs; ++p) {
        std::int16_t* dst = dst0 + static_cast<std::size_t>(p) * kPairA;
        for (int i = 0; i < m_sub; ++i) {
          dst[2 * i] = aq[static_cast<std::size_t>(i0 + i) * k + pc + 2 * p];
          dst[2 * i + 1] =
              2 * p + 1 < kc ? aq[static_cast<std::size_t>(i0 + i) * k + pc + 2 * p + 1] : 0;
        }
      }
    }
  }
  return pa;
}

void gemm_s8(const PackedInt8A& pa, int n, const float* b, int ldb, float* c, int ldc,
             bool accumulate, const GemmEpilogue& epi) {
  static const MicroS8Fn micro = select_micro_s8();
  const int m = pa.m, k = pa.k;
  if (m <= 0 || n <= 0) return;
  FC_REQUIRE(n <= kGemmNC, "gemm_s8 requires n <= kGemmNC");
  FC_REQUIRE(epi.row_bias == nullptr || !accumulate,
             "gemm_s8 row_bias epilogue requires accumulate == false");
  FC_METRIC(gemm_calls().inc());
  FC_METRIC(gemm_flops().add(2 * static_cast<std::uint64_t>(m) * n * k));

  // Per-tensor activation scale over the k×n view of B.
  float bmax = 0.0f;
  for (int p = 0; p < k; ++p) {
    bmax = std::max(bmax, max_abs(b + static_cast<std::size_t>(p) * ldb,
                                  static_cast<std::size_t>(n)));
  }
  const float sb = int8_scale(bmax);
  const float binv = bmax > 0.0f ? 1.0f / sb : 0.0f;

  Workspace& ws = Workspace::tls();
  const Workspace::Mark mark = ws.mark();
  const int n_slivers = ceil_div(n, kGemmNR);
  const std::size_t sliver_stride = static_cast<std::size_t>(kPairsPerBlock) * kPairB;
  auto* bp = static_cast<std::int16_t*>(
      ws.alloc_bytes(static_cast<std::size_t>(n_slivers) * sliver_stride * sizeof(std::int16_t)));

  const int n_strips = ceil_div(m, kGemmMR);
  for (int pc = 0, blk = 0; pc < k; pc += kGemmKC, ++blk) {
    const int kc = std::min(kGemmKC, k - pc);
    const int pairs = (kc + 1) / 2;
    const bool acc_block = accumulate || blk > 0;
    for (int js = 0; js < n_slivers; ++js) {
      pack_b_q8(b, ldb, binv, pc, kc, js * kGemmNR, std::min(kGemmNR, n - js * kGemmNR),
                bp + static_cast<std::size_t>(js) * sliver_stride);
    }
    const std::int16_t* ablk = pa.data.data() + static_cast<std::size_t>(blk) * pa.block_stride;
    for (int js = 0; js < n_slivers; ++js) {
      const int j0 = js * kGemmNR;
      const int n_sub = std::min(kGemmNR, n - j0);
      const std::int16_t* bsl = bp + static_cast<std::size_t>(js) * sliver_stride;
      for (int is = 0; is < n_strips; ++is) {
        const int r0 = is * kGemmMR;
        const int m_sub = std::min(kGemmMR, m - r0);
        alignas(32) AccTile acc;
        micro(pairs, ablk + static_cast<std::size_t>(is) * pa.strip_stride, bsl, acc);
        store_tile_s8(acc, c + static_cast<std::size_t>(r0) * ldc + j0, ldc, m_sub, n_sub,
                      acc_block, pa.scales.data() + r0, sb);
      }
    }
  }
  ws.release(mark);
  apply_epilogue(c, ldc, m, n, epi);
}

}  // namespace fedcleanse::tensor
