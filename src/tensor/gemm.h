// Cache-blocked, register-tiled single-precision GEMM.
//
//   C[m,n] (+)= op(A)[m,k] · op(B)[k,n]
//
// The kernel packs panels of A and B into contiguous, 64-byte-aligned
// workspace buffers (handling all four transpose variants in the pack step)
// and runs an mr×nr register tile over them, written as plain loops with
// compile-time trip counts so the compiler auto-vectorizes the inner
// dimension to FMA on any target (portable scalar code on targets without
// SIMD). Blocking follows the classic Goto/BLIS scheme: KC×NR slivers of B
// stream from L1, MC×KC panels of A sit in L2, NC bounds the packed-B
// footprint.
//
// Determinism: for a fixed (shape, mask) the floating-point accumulation
// order per C element is a function of the blocking constants only — k is
// swept in ascending KC blocks by every thread, and threads partition rows
// of C, which they own exclusively. Results are therefore bit-identical for
// every thread count, which the determinism suite pins.
#pragma once

#include <cstdint>

namespace fedcleanse::tensor {

// Register tile and cache-blocking constants (see DESIGN.md §8). With AVX2
// (8-wide) the 4×16 tile holds 8 accumulator vectors plus 4 broadcasts and
// 2 B vectors — 14 of the 16 architectural YMM registers, the largest shape
// GCC allocates without spilling accumulators to the stack.
inline constexpr int kGemmMR = 4;
inline constexpr int kGemmNR = 16;
inline constexpr int kGemmMC = 96;    // A panel rows:   MC·KC floats ≈ 96 KiB (L2)
inline constexpr int kGemmKC = 256;   // shared k depth: KC·NR floats ≈ 16 KiB (L1)
inline constexpr int kGemmNC = 2048;  // packed-B bound: KC·NC floats ≈ 2 MiB

// Optional sparsity structure, used by the pruning defense: a pruned conv
// channel is a zero row of the weight matrix, and skipping it explicitly
// preserves the speed the legacy kernel got from its `a == 0` test.
struct GemmMask {
  // [m] entries; rows of C whose entry is 0 are neither computed nor written
  // (the caller must pre-initialize them — typically to exact zeros).
  const std::uint8_t* row_active = nullptr;
  // [k] entries; contraction indices whose entry is 0 are dropped in the pack
  // step. Skipping is value-preserving when the corresponding A column or B
  // row is exactly zero (pruned weights are), since x + (±0·y) == x for the
  // accumulators this kernel produces.
  const std::uint8_t* k_active = nullptr;
};

// Fused epilogue, applied while the C tile is still cache-hot instead of in
// a separate pass over memory. Each piece is placed so the floating-point
// operation order matches the unfused pipeline bit for bit:
//   row_bias — added when the first k block *stores* its tile
//     (bias + acc == acc + bias, so this equals pre-filling C with the bias
//     and accumulating into it, which is what conv2d_forward does).
//     Requires accumulate == false.
//   col_bias — added after the last k block finishes a column range
//     (equals nn::Linear's post-GEMM `y[i][j] += bias[j]` sweep; adding at
//     the first block would NOT match once k spans multiple KC blocks).
//   relu — clamped after the last k block, `v < 0 ? 0 : v` (preserves -0.0f
//     exactly like nn::ReLU::forward). Runs after col_bias.
//   softmax — row softmax over the finished row after the last k block,
//     replicating ops.cpp's softmax_rows element for element. Requires
//     n <= kGemmNC so a row is finished within a single column block.
struct GemmEpilogue {
  const float* row_bias = nullptr;  // [m]
  const float* col_bias = nullptr;  // [n]
  bool relu = false;
  bool softmax = false;
  bool any() const {
    return row_bias != nullptr || col_bias != nullptr || relu || softmax;
  }
};

// C is row-major with leading dimension ldc; A/B are row-major as *stored*
// (lda/ldb are the stored row strides; the transpose flags select how they
// are read). accumulate=false overwrites C, accumulate=true adds to it.
// Rows ≥ m·n·k of work are spread over the ambient thread pool in MC-row
// blocks; see the determinism note above.
void gemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a, int lda,
          const float* b, int ldb, float* c, int ldc, bool accumulate,
          const GemmMask& mask = {}, const GemmEpilogue& epi = {});

// Implicit im2col operand: the [cin·kh·kw, n·ho·wo] patch matrix of n NCHW
// [cin, h, w] images stored back to back, read straight from the images by
// the B pack and never materialized. Row r = (ic, ky, kx) and column
// q = (sample, oy, ox), both row-major; the entry is
// image[((sample·cin + ic)·h + oy·stride + ky)·w + ox·stride + kx].
// Every patch must lie inside its image, so the pack needs no bounds test: a
// zero-padded convolution passes its input with the zero border already in
// place (tensor::conv2d_forward stages one such copy per batch chunk).
struct ConvPatches {
  const float* image = nullptr;  // n × [cin, h, w], back to back
  int cin = 0, h = 0, w = 0;
  int kh = 0, kw = 0;
  int stride = 1;
  int ho = 0, wo = 0;
  int n = 1;
  int rows() const { return cin * kh * kw; }
  int cols() const { return n * ho * wo; }
};

// gemm with B taken from conv patches: op(B) is the patch matrix itself
// (trans_b == false: k == rows(), n == cols()) or its transpose (trans_b ==
// true: k == cols(), n == rows()). The pack writes the same values an im2col
// buffer would hold and the driver is shared with the dense overload, so the
// result is bit-identical to im2col followed by gemm on that buffer.
void gemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a, int lda,
          const ConvPatches& b, float* c, int ldc, bool accumulate,
          const GemmMask& mask = {}, const GemmEpilogue& epi = {});

// The legacy scalar i-k-j kernel (with its `aik == 0` skip), kept as the
// correctness oracle for tests and the baseline for bench comparisons.
void gemm_reference(bool trans_a, bool trans_b, int m, int n, int k, const float* a,
                    int lda, const float* b, int ldb, float* c, int ldc, bool accumulate);

}  // namespace fedcleanse::tensor
