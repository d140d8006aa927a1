// Reduced-precision compute primitives (DESIGN.md §16).
//
// int8 rides on the same blocked-GEMM skeleton as the fp32 kernel and is
// strictly opt-in — fp32 stays the determinism reference. It is symmetric
// linear quantization (zero-point 0): weights quantize per output channel
// (scale_i = max|row_i| / 127), activations per tensor; products accumulate
// in int32 (a KC=256 depth of 127·127 pair-sums peaks at ~4.2e6, far inside
// int32) and dequantize into fp32 C with a single fused multiply.
//
// Quantized GEMMs are serial by design: conv callers parallelize across
// batch samples, which keeps per-element work deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tensor/gemm.h"

namespace fedcleanse::tensor {

// Per-call kernel selector for forward paths that tolerate reduced
// precision (the defense's activation-profiling scans).
enum class ComputeKernel : std::uint8_t { kF32 = 0, kInt8 = 1 };

const char* compute_kernel_name(ComputeKernel kernel);
std::optional<ComputeKernel> parse_compute_kernel(const std::string& name);

// Which int8 microkernel runtime CPU detection selected: "avx-vnni", "avx2",
// or "scalar". Diagnostic only (journal "open" lines record it so a result
// can be traced back to the machine tier that produced it).
const char* int8_dispatch_name();

// max |x[i]| over n entries (0 for n == 0). Written so GCC vectorizes the
// reduction without -ffast-math.
float max_abs(const float* x, std::size_t n);

// Symmetric int8 scale for a tensor whose magnitudes reach `maxabs`:
// q = round(x / scale) spans [-127, 127]. A zero tensor gets scale 1 so
// dequantization stays exact (0 * 1 == 0) and nothing divides by zero.
float int8_scale(float maxabs);

// q[i] = clamp(round(x[i] / scale), -127, 127), round-to-nearest-even.
void quantize_s8(const float* x, std::size_t n, float scale, std::int8_t* q);
void dequantize_s8(const std::int8_t* q, std::size_t n, float scale, float* x);

// A (the weight operand) quantized and packed once per scan: row-major
// [m, k] source laid out as KC-depth blocks of MR-row strips, each depth
// *pair* interleaved as int16 (the AVX2 vpmaddwd / AVX-VNNI vpdpwssd
// contract multiplies int16 pairs into int32 lanes). Odd k and ragged m
// pad with zeros; padded rows carry scale 0 so they dequantize to 0.
struct PackedInt8A {
  std::vector<std::int16_t> data;
  std::vector<float> scales;  // [m] per-row dequant scales
  int m = 0;
  int k = 0;
  int kc_blocks = 0;
  std::size_t strip_stride = 0;  // int16 entries per (strip, k block)
  std::size_t block_stride = 0;  // int16 entries per k block
};

// per_channel=true gives every row its own scale (weights); false derives
// one scale from max|A| and replicates it (per-tensor).
PackedInt8A pack_a_int8(const float* a, int lda, int m, int k, bool per_channel);

// C[m,n] (+)= dequant(Aq · quant(B)): B quantizes per tensor on the fly
// (fused into its pack step), products accumulate in int32 per KC block and
// fold into fp32 C. Supports the full GemmEpilogue; requires n <= kGemmNC.
void gemm_s8(const PackedInt8A& a, int n, const float* b, int ldb, float* c, int ldc,
             bool accumulate, const GemmEpilogue& epi = {});

}  // namespace fedcleanse::tensor
