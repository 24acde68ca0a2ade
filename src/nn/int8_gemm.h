// Shared int8 x int8 -> int32 GEMM kernels with a fused requantization
// epilogue.
//
// These are the building blocks of the batched quantized inference engine
// (src/qnn). Because the accumulators are exact 32-bit integers, any
// tiling / threading / batching order produces bit-identical results; the
// float epilogue is a fixed per-output expression, so two kernels that
// share it (e.g. the naive direct convolution and the packed conv GEMM)
// agree byte-for-byte. That exactness is what lets campaign reports be
// CI-diffed across engines, SIMD levels and thread counts.
//
// The conv GEMM reads its activations in one packed layout, the k-quad
// patch matrix: for reduction index k and output column p,
//
//   packed[((k / 4) * packed_cols(p_count) + p) * 4 + k % 4] = x(k, p) ^ 0x80
//
// i.e. [ceil(K/4)][P padded to kPackCols][4] bytes, each activation biased
// to u8 (x + 128). The rows past K in the last quad and the columns past P
// hold 0x80 (a biased zero). Four consecutive k of one column are one
// 32-bit lane, which is the operand shape of AVX-512 VNNI `vpdpbusd`
// (u8 x s8, four products summed into one int32 lane). The weights stay
// the signed rows of the live arena; the bias is removed exactly per row:
//
//   sum_k (x_k + 128) * w_k  -  128 * sum_k w_k  =  sum_k x_k * w_k.
#pragma once

#include <cstdint>

namespace radar::nn {

/// Largest reduction depth K for which K biased products (u8 x s8, |p| <=
/// 255 * 128 = 32640) cannot overflow an int32 accumulator. Every signed
/// int8 x int8 sum (|p| <= 16384) of that depth fits too.
constexpr std::int64_t kInt8GemmMaxK = (std::int64_t{1} << 31) / 32640;

/// Column granularity of the packed patch layout (one 64-byte vector of
/// k-quads): packed matrices pad P up to a multiple of this.
constexpr std::int64_t kPackCols = 16;

/// Quads (groups of 4 reduction rows) of a depth-`k` packed matrix.
constexpr std::int64_t packed_quads(std::int64_t k) { return (k + 3) / 4; }

/// Padded column count of a packed matrix with `p` output columns.
constexpr std::int64_t packed_cols(std::int64_t p) {
  return (p + kPackCols - 1) / kPackCols * kPackCols;
}

/// Bytes of one packed [K x P] patch matrix.
constexpr std::int64_t packed_bytes(std::int64_t k, std::int64_t p) {
  return packed_quads(k) * packed_cols(p) * 4;
}

/// Per-output-row requantization epilogue: y = float(acc) * scale[m] +
/// bias[m], then optional ReLU. `bias == nullptr` means zero bias.
struct RequantEpilogue {
  const float* scale = nullptr;
  const float* bias = nullptr;
  bool relu = false;
};

/// The one epilogue expression both the reference and the tiled kernels
/// evaluate — keep it a single inline function so the two paths cannot
/// drift apart numerically. Only ever called from code compiled for the
/// baseline target (no FMA), so `* scale + bias` cannot be contracted.
inline float requant_one(std::int32_t acc, float scale, float bias,
                         bool relu) {
  const float v = static_cast<float>(acc) * scale + bias;
  return (relu && v < 0.0f) ? 0.0f : v;
}

/// Packed conv GEMM: for m in [m0, m1), p in [0, p),
///   out[m * ldo + p] = epilogue_m( sum_k a[m * lda + k] * x(k, p) ).
/// `a` is row-major [M x K] signed weights (K contiguous, read live — no
/// copy is kept); `packed` is one k-quad patch matrix of depth `k` and `p`
/// columns (layout above). Register tiles accumulate the biased sums
/// exactly in int32 (K <= kInt8GemmMaxK) and each row subtracts
/// 128 * sum(w) before the epilogue.
void gemm_i8_packed(const std::int8_t* a, const std::uint8_t* packed,
                    float* out, std::int64_t m0, std::int64_t m1,
                    std::int64_t k, std::int64_t p, std::int64_t lda,
                    std::int64_t ldo, const RequantEpilogue& epi);

/// Dot-product GEMM (the linear kernel): for n in [n0, n1), m in [0, m),
///   y[n * ldy + m] = epilogue_m( sum_k x[n * ldx + k] * w[m * ldw + k] ).
/// Both operands are K-contiguous rows.
void gemm_i8_dot(const std::int8_t* x, const std::int8_t* w, float* y,
                 std::int64_t n0, std::int64_t n1, std::int64_t m,
                 std::int64_t k, std::int64_t ldx, std::int64_t ldw,
                 std::int64_t ldy, const RequantEpilogue& epi);

}  // namespace radar::nn
