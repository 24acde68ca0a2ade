// Dispatched SIMD primitives shared by the scan kernels and the arena
// snapshot compare.
//
// Three primitives cover the scan-side hot loops (the int8 GEMM keeps
// its own register-tiled variants in nn/int8_gemm.cpp, and the CRC its
// slicing tables in codes/crc.cpp — each with the same table-per-kernel
// dispatch shape):
//
//   * dot_i8     — contiguous int8 x int8 -> int32 dot product: the
//                  contiguous-group masked sum and the linear-layer
//                  reduction. AVX-512 uses `vpdpbusd` (VNNI) when the
//                  machine has it, with the exact +128 bias correction.
//   * masked_add_rows — acc[k] += sum_j w[j][k] * s[j][k] over up to 8
//                  rows with signs in {-1, 0, +1}: one row pass of the
//                  interleaved masked-sum scan, summed in int16 lanes.
//   * bytes_equal — whole-buffer equality: snapshot compare / restore's
//                  changed-layer and changed-block probes.
//
// Every variant accumulates in exact integer arithmetic, so all levels
// return bit-identical results; callers guarantee the same no-overflow
// precondition the scalar paths already rely on (|true dot| < 2^31).
// Variants live in per-kernel function-pointer tables indexed by
// cpu::SimdLevel; each call reads cpu::active_level(), so tests can
// sweep levels at runtime via cpu::ScopedSimdLevel.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu_features.h"

namespace radar::simd {

using DotI8Fn = std::int32_t (*)(const std::int8_t*, const std::int8_t*,
                                 std::int64_t);
using MaskedAddRowsFn = void (*)(std::int32_t*, const std::int8_t* const*,
                                 const std::int8_t* const*, int,
                                 std::int64_t);
using BytesEqualFn = bool (*)(const void*, const void*, std::size_t);

/// The per-kernel dispatch tables, indexed by cpu::SimdLevel. Entries
/// for levels this build / machine cannot run point at the scalar
/// reference (set_active_level clamps before they would be hit anyway).
const DotI8Fn* dot_i8_table();
const MaskedAddRowsFn* masked_add_rows_table();
const BytesEqualFn* bytes_equal_table();

/// Contiguous dot product sum_k a[k]*b[k] with exact int32 result.
/// Precondition (inherited from the scalar paths): the true sum and
/// every partial |sum of a subset of products| fit in int32 — holds for
/// masked-sum scans (one operand is +1/-1/0 signs, n <= 2^22) and for
/// the GEMM reductions (k <= nn::kInt8GemmMaxK).
inline std::int32_t dot_i8(const std::int8_t* a, const std::int8_t* b,
                           std::int64_t n) {
  return dot_i8_table()[static_cast<int>(cpu::active_level())](a, b, n);
}

/// Most rows one masked_add_rows call folds.
inline constexpr int kMaskedAddMaxRows = 8;

/// acc[k] += sum_{j < nrows} w[j][k] * s[j][k] for k in [0, n), with
/// 1 <= nrows <= kMaskedAddMaxRows and every s[j][k] in {-1, 0, +1}.
inline void masked_add_rows(std::int32_t* acc, const std::int8_t* const* w,
                            const std::int8_t* const* s, int nrows,
                            std::int64_t n) {
  masked_add_rows_table()[static_cast<int>(cpu::active_level())](acc, w, s,
                                                                 nrows, n);
}

/// memcmp(a, b, n) == 0, vectorized at the active level.
inline bool bytes_equal(const void* a, const void* b, std::size_t n) {
  return bytes_equal_table()[static_cast<int>(cpu::active_level())](a, b, n);
}

}  // namespace radar::simd
