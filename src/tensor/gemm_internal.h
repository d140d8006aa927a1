// Register-tile microkernels of the fp32 GEMM (gemm.cpp) and the epilogue
// passes it shares with the int8 driver (gemm_quant.cpp). Internal to
// src/tensor — not part of the public kernel API.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/gemm.h"

namespace fedcleanse::tensor::detail {

// The register tile: a full MR×NR block of C accumulated over kc packed
// depths. Every trip count except kc is a compile-time constant and the
// unroll pragmas flatten both tile loops, so the j dimension vectorizes
// (two 8-lane FMAs per row on AVX2) and `acc` is scalar-replaced into
// registers across the whole k sweep. The store loops must also have
// constant bounds — a runtime-bounded read of `acc` would force the whole
// block onto the stack — which is why edges go through micro_edge instead.
//
// HasBias fuses the per-row bias into the overwrite store (bias + acc is
// bitwise acc + bias, so this equals accumulating into a bias-prefilled C).
template <bool Accumulate, bool HasBias>
inline void micro_full(int kc, const float* __restrict ap, const float* __restrict bp,
                       float* __restrict c, int ldc, const float* __restrict rb = nullptr) {
  static_assert(!(Accumulate && HasBias), "row bias is a store-time epilogue");
  float acc[kGemmMR][kGemmNR] = {};
  for (int p = 0; p < kc; ++p) {
    const float* __restrict arow = ap + static_cast<std::size_t>(p) * kGemmMR;
    const float* __restrict brow = bp + static_cast<std::size_t>(p) * kGemmNR;
#pragma GCC unroll 16
    for (int i = 0; i < kGemmMR; ++i) {
      const float ai = arow[i];
#pragma GCC unroll 32
      for (int j = 0; j < kGemmNR; ++j) acc[i][j] += ai * brow[j];
    }
  }
#pragma GCC unroll 16
  for (int i = 0; i < kGemmMR; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * ldc;
#pragma GCC unroll 32
    for (int j = 0; j < kGemmNR; ++j) {
      if constexpr (Accumulate) {
        crow[j] += acc[i][j];
      } else if constexpr (HasBias) {
        crow[j] = acc[i][j] + rb[i];
      } else {
        crow[j] = acc[i][j];
      }
    }
  }
}

// Edge / masked tiles: run the full kernel into a stack tile (the packs are
// zero-padded, so the extra lanes compute exact zeros), then copy out only
// the live m_sub×n_sub sub-block, honoring the row mask. The extra copy is
// confined to ragged borders and pruned strips. rb, when non-null, is the
// per-row bias for an overwrite store (callers pass it only when the tile
// belongs to the first k block of a non-accumulating product).
inline void micro_edge(int kc, const float* __restrict ap, const float* __restrict bp,
                       float* __restrict c, int ldc, int m_sub, int n_sub, bool accumulate,
                       const std::uint8_t* row_active, const float* rb = nullptr) {
  float tmp[kGemmMR][kGemmNR];
  micro_full<false, false>(kc, ap, bp, &tmp[0][0], kGemmNR);
  for (int i = 0; i < m_sub; ++i) {
    if (row_active != nullptr && row_active[i] == 0) continue;
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    if (accumulate) {
      for (int j = 0; j < n_sub; ++j) crow[j] += tmp[i][j];
    } else if (rb != nullptr) {
      const float bi = rb[i];
      for (int j = 0; j < n_sub; ++j) crow[j] = tmp[i][j] + bi;
    } else {
      for (int j = 0; j < n_sub; ++j) crow[j] = tmp[i][j];
    }
  }
}

// Post-pass epilogue over finished rows [i0, i0+mc) × cols [jc, jc+nc):
// column bias then ReLU, both while the tile range is still cache-hot.
// Inactive rows hold caller-owned exact zeros and are left untouched.
inline void epilogue_cols(float* c, int ldc, int i0, int mc, int jc, int nc,
                          const std::uint8_t* row_active, const GemmEpilogue& epi) {
  if (epi.col_bias == nullptr && !epi.relu) return;
  const float* cb = epi.col_bias != nullptr ? epi.col_bias + jc : nullptr;
  for (int i = 0; i < mc; ++i) {
    if (row_active != nullptr && row_active[i0 + i] == 0) continue;
    float* crow = c + static_cast<std::size_t>(i0 + i) * ldc + jc;
    if (cb != nullptr) {
      for (int j = 0; j < nc; ++j) crow[j] += cb[j];
    }
    if (epi.relu) {
      // `v < 0 ? 0 : v`, not max(): preserves -0.0f exactly like nn::ReLU.
      for (int j = 0; j < nc; ++j) crow[j] = crow[j] < 0.0f ? 0.0f : crow[j];
    }
  }
}

// Row softmax over complete rows [i0, i0+mc), replicating ops.cpp's
// softmax_rows element for element (same max sweep, same accumulation
// order for the denominator) so the fused head is bit-identical.
inline void epilogue_softmax(float* c, int ldc, int i0, int mc, int n,
                             const std::uint8_t* row_active) {
  for (int i = 0; i < mc; ++i) {
    if (row_active != nullptr && row_active[i0 + i] == 0) continue;
    float* crow = c + static_cast<std::size_t>(i0 + i) * ldc;
    float mx = crow[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, crow[j]);
    float denom = 0.0f;
    for (int j = 0; j < n; ++j) {
      crow[j] = std::exp(crow[j] - mx);
      denom += crow[j];
    }
    for (int j = 0; j < n; ++j) crow[j] /= denom;
  }
}

}  // namespace fedcleanse::tensor::detail
