#include "tensor/gemm.h"

#include <algorithm>
#include <cstddef>

#include "common/error.h"
#include "common/threadpool.h"
#include "obs/metrics.h"
#include "tensor/gemm_internal.h"
#include "tensor/workspace.h"

namespace fedcleanse::tensor {

namespace {

using detail::epilogue_cols;
using detail::epilogue_softmax;
using detail::micro_edge;
using detail::micro_full;

// Row blocks only pay for pool dispatch above this many multiply-accumulates
// (m·k·n); smaller products run inline (same threshold as the old matmul).
constexpr std::size_t kParallelFlops = 1u << 20;

constexpr int kStripsPerBlock = (kGemmMC + kGemmMR - 1) / kGemmMR;

inline int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Pack a kc×nr sliver of op(B) columns [j0, j0+n_sub) into bp, zero-padded to
// NR so the microkernel never needs a column edge case. kidx maps packed
// depth p to the stored k index (nullptr → identity starting at k0).
void pack_b_sliver(const float* b, int ldb, bool tb, int k0, int kc, const int* kidx,
                   int j0, int n_sub, float* bp) {
  for (int p = 0; p < kc; ++p) {
    const int kk = kidx != nullptr ? kidx[p] : k0 + p;
    float* dst = bp + static_cast<std::size_t>(p) * kGemmNR;
    int j = 0;
    if (!tb) {
      const float* src = b + static_cast<std::size_t>(kk) * ldb + j0;
      for (; j < n_sub; ++j) dst[j] = src[j];
    } else {
      for (; j < n_sub; ++j) dst[j] = b[static_cast<std::size_t>(j0 + j) * ldb + kk];
    }
    for (; j < kGemmNR; ++j) dst[j] = 0.0f;
  }
}

// Pack an mr-strip of op(A) rows [i0, i0+m_sub) into ap, zero-padded to MR.
void pack_a_strip(const float* a, int lda, bool ta, int k0, int kc, const int* kidx,
                  int i0, int m_sub, float* ap) {
  for (int p = 0; p < kc; ++p) {
    const int kk = kidx != nullptr ? kidx[p] : k0 + p;
    float* dst = ap + static_cast<std::size_t>(p) * kGemmMR;
    int i = 0;
    if (ta) {
      const float* src = a + static_cast<std::size_t>(kk) * lda + i0;
      for (; i < m_sub; ++i) dst[i] = src[i];
    } else {
      for (; i < m_sub; ++i) dst[i] = a[static_cast<std::size_t>(i0 + i) * lda + kk];
    }
    for (; i < kGemmMR; ++i) dst[i] = 0.0f;
  }
}

// Where op(B) comes from: a dense row-major matrix, or (when `image` is set)
// a gather, op(B)[kk][j] = image[depth_off[kk] + col_off[j]]. A conv patch
// matrix is such a gather over tap and pixel offset tables (see gemm below).
struct BSource {
  const float* b = nullptr;
  int ldb = 0;
  bool trans = false;
  const float* image = nullptr;
  const int* depth_off = nullptr;
  const int* col_off = nullptr;
};

// Pack one zero-padded kc×nr sliver of op(B), columns [j0, j0+n_sub).
void pack_b(const BSource& src, int k0, int kc, const int* kidx, int j0, int n_sub,
            float* bp) {
  if (src.image == nullptr) {
    pack_b_sliver(src.b, src.ldb, src.trans, k0, kc, kidx, j0, n_sub, bp);
    return;
  }
  const int* col_off = src.col_off + j0;
  for (int p = 0; p < kc; ++p) {
    const float* row = src.image + src.depth_off[kidx != nullptr ? kidx[p] : k0 + p];
    float* dst = bp + static_cast<std::size_t>(p) * kGemmNR;
    int j = 0;
    for (; j < n_sub; ++j) dst[j] = row[col_off[j]];
    for (; j < kGemmNR; ++j) dst[j] = 0.0f;
  }
}

// The blocked driver shared by both B sources.
void gemm_impl(bool trans_a, int m, int n, int k, const float* a, int lda, const BSource& b,
               float* c, int ldc, bool accumulate, const GemmMask& mask,
               const GemmEpilogue& epi) {
  if (m <= 0 || n <= 0) return;
  FC_REQUIRE(epi.row_bias == nullptr || !accumulate,
             "gemm row_bias epilogue requires accumulate == false");
  FC_REQUIRE(!epi.softmax || n <= kGemmNC,
             "gemm softmax epilogue requires a row to finish in one column block");

  Workspace& cws = Workspace::tls();
  const Workspace::Mark outer = cws.mark();

  // Compact the contraction dimension when a k mask prunes entries; an
  // all-active mask degenerates to the unmasked fast path.
  const int* kidx = nullptr;
  int keff = std::max(k, 0);
  if (mask.k_active != nullptr && k > 0) {
    int* idx = static_cast<int*>(cws.alloc_bytes(static_cast<std::size_t>(k) * sizeof(int)));
    int cnt = 0;
    for (int p = 0; p < k; ++p) {
      if (mask.k_active[p] != 0) idx[cnt++] = p;
    }
    if (cnt < k) {
      kidx = idx;
      keff = cnt;
    }
  }
  const std::uint8_t* row_active = mask.row_active;
  if (row_active != nullptr &&
      std::all_of(row_active, row_active + m, [](std::uint8_t v) { return v != 0; })) {
    row_active = nullptr;
  }

  if (keff == 0) {
    // Empty contraction contributes nothing; overwrite mode still owns the
    // active rows of C (filled with the row bias, or zero), and the
    // post-accumulation epilogue still applies.
    if (!accumulate) {
      for (int i = 0; i < m; ++i) {
        if (row_active != nullptr && row_active[i] == 0) continue;
        std::fill_n(c + static_cast<std::size_t>(i) * ldc, n,
                    epi.row_bias != nullptr ? epi.row_bias[i] : 0.0f);
      }
    }
    epilogue_cols(c, ldc, 0, m, 0, n, row_active, epi);
    if (epi.softmax) epilogue_softmax(c, ldc, 0, m, n, row_active);
    cws.release(outer);
    return;
  }

  const std::size_t work = static_cast<std::size_t>(m) * static_cast<std::size_t>(n) *
                           static_cast<std::size_t>(keff);
  FC_METRIC(gemm_calls().inc());
  FC_METRIC(gemm_flops().add(2 * static_cast<std::uint64_t>(work)));
  const int n_mblocks = ceil_div(m, kGemmMC);
  const bool parallel = work >= kParallelFlops && n_mblocks > 1;

  for (int jc = 0; jc < n; jc += kGemmNC) {
    const int nc = std::min(kGemmNC, n - jc);
    const int n_slivers = ceil_div(nc, kGemmNR);
    for (int pc = 0, pcn = 0; pc < keff; pc += kGemmKC, ++pcn) {
      const int kc = std::min(kGemmKC, keff - pc);
      const bool acc_block = accumulate || pcn > 0;
      const bool last_kblock = pc + kc == keff;
      // The row bias rides on the first k block's overwrite store; the rest
      // of the epilogue waits for the last block to finish the columns.
      const float* rb = !acc_block ? epi.row_bias : nullptr;
      const int* kslice = kidx != nullptr ? kidx + pc : nullptr;

      // B panel packed once per (jc, pc) on the calling thread; row blocks
      // below only read it.
      const Workspace::Mark bmark = cws.mark();
      float* bp = cws.alloc_floats(static_cast<std::size_t>(n_slivers) * kc * kGemmNR);
      for (int js = 0; js < n_slivers; ++js) {
        pack_b(b, pc, kc, kslice, jc + js * kGemmNR, std::min(kGemmNR, nc - js * kGemmNR),
               bp + static_cast<std::size_t>(js) * kc * kGemmNR);
      }

      // Each MC-row block owns its rows of C exclusively and sweeps k in the
      // same order no matter which thread runs it → bit-identical results
      // for every thread count. The epilogue runs inside the block for the
      // same reason: the rows it touches belong to exactly one task.
      auto run_mblock = [&](std::size_t blk) {
        const int i0 = static_cast<int>(blk) * kGemmMC;
        const int mc = std::min(kGemmMC, m - i0);
        const int n_strips = ceil_div(mc, kGemmMR);

        Workspace& ws = Workspace::tls();
        const Workspace::Mark amark = ws.mark();
        float* ap = ws.alloc_floats(static_cast<std::size_t>(n_strips) * kc * kGemmMR);

        bool strip_live[kStripsPerBlock];
        for (int is = 0; is < n_strips; ++is) {
          const int r0 = i0 + is * kGemmMR;
          const int m_sub = std::min(kGemmMR, m - r0);
          bool live = true;
          if (row_active != nullptr) {
            live = false;
            for (int i = 0; i < m_sub; ++i) live |= row_active[r0 + i] != 0;
          }
          strip_live[is] = live;
          if (live) {
            pack_a_strip(a, lda, trans_a, pc, kc, kslice, r0, m_sub,
                         ap + static_cast<std::size_t>(is) * kc * kGemmMR);
          }
        }

        for (int js = 0; js < n_slivers; ++js) {
          const int j0 = jc + js * kGemmNR;
          const int n_sub = std::min(kGemmNR, nc - js * kGemmNR);
          const float* bsl = bp + static_cast<std::size_t>(js) * kc * kGemmNR;
          for (int is = 0; is < n_strips; ++is) {
            if (!strip_live[is]) continue;
            const int r0 = i0 + is * kGemmMR;
            const int m_sub = std::min(kGemmMR, m - r0);
            const float* asl = ap + static_cast<std::size_t>(is) * kc * kGemmMR;
            float* csl = c + static_cast<std::size_t>(r0) * ldc + j0;
            if (m_sub == kGemmMR && n_sub == kGemmNR && row_active == nullptr) {
              if (acc_block) {
                micro_full<true, false>(kc, asl, bsl, csl, ldc);
              } else if (rb != nullptr) {
                micro_full<false, true>(kc, asl, bsl, csl, ldc, rb + r0);
              } else {
                micro_full<false, false>(kc, asl, bsl, csl, ldc);
              }
            } else {
              micro_edge(kc, asl, bsl, csl, ldc, m_sub, n_sub, acc_block,
                         row_active != nullptr ? row_active + r0 : nullptr,
                         rb != nullptr ? rb + r0 : nullptr);
            }
          }
        }
        if (last_kblock) {
          epilogue_cols(c, ldc, i0, mc, jc, nc, row_active, epi);
          if (epi.softmax) epilogue_softmax(c, ldc, i0, mc, n, row_active);
        }
        ws.release(amark);
      };

      if (parallel) {
        common::ambient_parallel_for(static_cast<std::size_t>(n_mblocks), run_mblock);
      } else {
        for (int blk = 0; blk < n_mblocks; ++blk) run_mblock(static_cast<std::size_t>(blk));
      }
      cws.release(bmark);
    }
  }
  cws.release(outer);
}

}  // namespace

void gemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a, int lda,
          const float* b, int ldb, float* c, int ldc, bool accumulate,
          const GemmMask& mask, const GemmEpilogue& epi) {
  gemm_impl(trans_a, m, n, k, a, lda, BSource{.b = b, .ldb = ldb, .trans = trans_b}, c, ldc,
            accumulate, mask, epi);
}

void gemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a, int lda,
          const ConvPatches& b, float* c, int ldc, bool accumulate, const GemmMask& mask,
          const GemmEpilogue& epi) {
  FC_REQUIRE(k == (trans_b ? b.cols() : b.rows()) && n == (trans_b ? b.rows() : b.cols()),
             "gemm conv-patch operand does not match k/n");
  FC_REQUIRE((b.ho - 1) * b.stride + b.kh <= b.h && (b.wo - 1) * b.stride + b.kw <= b.w,
             "gemm conv patches must lie inside the image");
  // Entry (tap, pixel) of the patch matrix is image[tap_off + pix_off]: the
  // tap's offset from a patch's top-left plus that corner's offset within
  // its sample's image. Every patch lies inside its image, so the pack
  // gathers with no bounds test.
  Workspace& ws = Workspace::tls();
  const Workspace::Mark mark = ws.mark();
  int* tap_off = static_cast<int*>(ws.alloc_bytes(sizeof(int) * b.rows()));
  int* pix_off = static_cast<int*>(ws.alloc_bytes(sizeof(int) * b.cols()));
  for (int ic = 0, r = 0; ic < b.cin; ++ic) {
    for (int ky = 0; ky < b.kh; ++ky) {
      for (int kx = 0; kx < b.kw; ++kx) tap_off[r++] = (ic * b.h + ky) * b.w + kx;
    }
  }
  for (int s = 0, q = 0; s < b.n; ++s) {
    for (int oy = 0; oy < b.ho; ++oy) {
      for (int ox = 0; ox < b.wo; ++ox) {
        pix_off[q++] = s * b.cin * b.h * b.w + (oy * b.w + ox) * b.stride;
      }
    }
  }
  const BSource src{.image = b.image,
                    .depth_off = trans_b ? pix_off : tap_off,
                    .col_off = trans_b ? tap_off : pix_off};
  gemm_impl(trans_a, m, n, k, a, lda, src, c, ldc, accumulate, mask, epi);
  ws.release(mark);
}

void gemm_reference(bool trans_a, bool trans_b, int m, int n, int k, const float* a,
                    int lda, const float* b, int ldb, float* c, int ldc, bool accumulate) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    if (!accumulate) std::fill_n(crow, n, 0.0f);
    for (int p = 0; p < k; ++p) {
      const float aik = trans_a ? a[static_cast<std::size_t>(p) * lda + i]
                                : a[static_cast<std::size_t>(i) * lda + p];
      if (aik == 0.0f) continue;
      if (!trans_b) {
        const float* brow = b + static_cast<std::size_t>(p) * ldb;
        for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
      } else {
        for (int j = 0; j < n; ++j) crow[j] += aik * b[static_cast<std::size_t>(j) * ldb + p];
      }
    }
  }
}

}  // namespace fedcleanse::tensor
