#include "common/simd_ops.h"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define RADAR_SIMD_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define RADAR_SIMD_NEON 1
#endif

namespace radar::simd {

namespace {

// Vector accumulator lanes are drained to int64 every kDrainBlock
// elements: the largest per-lane partial sum inside one block is
// (kDrainBlock / lanes) * max|pair of products|, which stays far from
// int32 wrap for every caller (scan groups reach 2^22 elements; without
// draining, a lane's running sum could exceed the bound of the *total*
// the precondition guarantees).
constexpr std::int64_t kDrainBlock = std::int64_t{1} << 19;

// ---- scalar reference (the bit-identity anchor) ----

std::int32_t dot_i8_scalar(const std::int8_t* a, const std::int8_t* b,
                           std::int64_t n) {
  std::int32_t acc = 0;
  for (std::int64_t k = 0; k < n; ++k)
    acc += static_cast<std::int32_t>(a[k]) * static_cast<std::int32_t>(b[k]);
  return acc;
}

/// Columns [k, n) of masked_add_rows: the scalar variant (k = 0) and the
/// vector variants' tails.
void masked_add_rows_from(std::int32_t* acc, const std::int8_t* const* w,
                          const std::int8_t* const* s, int nrows,
                          std::int64_t k, std::int64_t n) {
  for (int j = 0; j < nrows; ++j)
    for (std::int64_t i = k; i < n; ++i)
      acc[i] += static_cast<std::int32_t>(w[j][i]) * s[j][i];
}

void masked_add_rows_scalar(std::int32_t* acc, const std::int8_t* const* w,
                            const std::int8_t* const* s, int nrows,
                            std::int64_t n) {
  masked_add_rows_from(acc, w, s, nrows, 0, n);
}

bool bytes_equal_scalar(const void* a, const void* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

#if defined(RADAR_SIMD_X86)

// ---- AVX2 ----

__attribute__((target("avx2"))) std::int64_t hsum_i32x8(__m256i v) {
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  std::int64_t s = 0;
  for (int i = 0; i < 8; ++i) s += lanes[i];
  return s;
}

__attribute__((target("avx2"))) std::int32_t dot_i8_avx2(
    const std::int8_t* a, const std::int8_t* b, std::int64_t n) {
  std::int64_t total = 0;
  std::int64_t i = 0;
  const std::int64_t vec_end = n & ~std::int64_t{15};
  while (i < vec_end) {
    const std::int64_t block_end = std::min(vec_end, i + kDrainBlock);
    __m256i acc = _mm256_setzero_si256();
    for (; i < block_end; i += 16) {
      const __m256i va = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
      const __m256i vb = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
    }
    total += hsum_i32x8(acc);
  }
  auto result = static_cast<std::int32_t>(total);
  for (; i < n; ++i)
    result += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  return result;
}

// Each row's products are widened to int16 lanes and summed there: with
// signs in {-1, 0, +1} a lane of R <= 8 rows stays within |8 * 128| =
// 1024, so the int16 sum is exact and reaches int32 with one add.
__attribute__((target("avx2"))) void masked_add_rows_avx2(
    std::int32_t* acc, const std::int8_t* const* w,
    const std::int8_t* const* s, int nrows, std::int64_t n) {
  std::int64_t k = 0;
  for (; k + 16 <= n; k += 16) {
    __m256i sum = _mm256_setzero_si256();
    for (int j = 0; j < nrows; ++j) {
      const __m256i vw = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w[j] + k)));
      const __m256i vs = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(s[j] + k)));
      sum = _mm256_add_epi16(sum, _mm256_sign_epi16(vw, vs));
    }
    __m256i* a0 = reinterpret_cast<__m256i*>(acc + k);
    __m256i* a1 = reinterpret_cast<__m256i*>(acc + k + 8);
    _mm256_storeu_si256(a0, _mm256_add_epi32(_mm256_loadu_si256(a0),
        _mm256_cvtepi16_epi32(_mm256_castsi256_si128(sum))));
    _mm256_storeu_si256(a1, _mm256_add_epi32(_mm256_loadu_si256(a1),
        _mm256_cvtepi16_epi32(_mm256_extracti128_si256(sum, 1))));
  }
  masked_add_rows_from(acc, w, s, nrows, k, n);
}

__attribute__((target("avx2"))) bool bytes_equal_avx2(const void* pa,
                                                      const void* pb,
                                                      std::size_t n) {
  const auto* a = static_cast<const char*>(pa);
  const auto* b = static_cast<const char*>(pb);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)) != -1) return false;
  }
  return i == n || std::memcmp(a + i, b + i, n - i) == 0;
}

// ---- AVX-512 (F+BW+VL; madd form) ----

__attribute__((target("avx512f,avx512bw,avx512vl"))) std::int64_t
hsum_i32x16(__m512i v) {
  alignas(64) std::int32_t lanes[16];
  _mm512_store_si512(lanes, v);
  std::int64_t s = 0;
  for (int i = 0; i < 16; ++i) s += lanes[i];
  return s;
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) std::int32_t
dot_i8_avx512(const std::int8_t* a, const std::int8_t* b, std::int64_t n) {
  std::int64_t total = 0;
  std::int64_t i = 0;
  const std::int64_t vec_end = n & ~std::int64_t{31};
  while (i < vec_end) {
    const std::int64_t block_end = std::min(vec_end, i + kDrainBlock);
    __m512i acc = _mm512_setzero_si512();
    for (; i < block_end; i += 32) {
      const __m512i va = _mm512_cvtepi8_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
      const __m512i vb = _mm512_cvtepi8_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
      acc = _mm512_add_epi32(acc, _mm512_madd_epi16(va, vb));
    }
    total += hsum_i32x16(acc);
  }
  auto result = static_cast<std::int32_t>(total);
  for (; i < n; ++i)
    result += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  return result;
}

// ---- AVX-512 VNNI (vpdpbusd) ----
//
// vpdpbusd multiplies unsigned bytes by signed bytes. Biasing `a` by
// +128 (a ^ 0x80 reinterpreted as u8) gives
//   sum (a_k + 128) * b_k = dot + 128 * sum b_k,
// and a second vpdpbusd chain against constant 1-bytes produces
// sum b_k, so the exact dot is recovered as S1 - 128*S2 (in int64:
// S1 alone can exceed int32 even when the true dot does not).

__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) std::int32_t
dot_i8_vnni(const std::int8_t* a, const std::int8_t* b, std::int64_t n) {
  const __m512i flip = _mm512_set1_epi8(static_cast<char>(0x80));
  const __m512i ones = _mm512_set1_epi8(1);
  std::int64_t total = 0;
  std::int64_t i = 0;
  const std::int64_t vec_end = n & ~std::int64_t{63};
  while (i < vec_end) {
    const std::int64_t block_end = std::min(vec_end, i + kDrainBlock);
    __m512i s1 = _mm512_setzero_si512();
    __m512i s2 = _mm512_setzero_si512();
    for (; i < block_end; i += 64) {
      const __m512i va = _mm512_loadu_si512(a + i);
      const __m512i vb = _mm512_loadu_si512(b + i);
      s1 = _mm512_dpbusd_epi32(s1, _mm512_xor_si512(va, flip), vb);
      s2 = _mm512_dpbusd_epi32(s2, ones, vb);
    }
    total += hsum_i32x16(s1) - 128 * hsum_i32x16(s2);
  }
  auto result = static_cast<std::int32_t>(total);
  for (; i < n; ++i)
    result += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  return result;
}

// 32 columns per step; the last step runs under a lane mask (masked-off
// lanes are neither loaded nor stored), so short rows stay vectorized.
__attribute__((target("avx512f,avx512bw,avx512vl"))) void
masked_add_rows_avx512(std::int32_t* acc, const std::int8_t* const* w,
                       const std::int8_t* const* s, int nrows,
                       std::int64_t n) {
  for (std::int64_t k = 0; k < n; k += 32) {
    const __mmask32 m =
        n - k >= 32 ? ~__mmask32{0} : (__mmask32{1} << (n - k)) - 1;
    __m512i sum = _mm512_setzero_si512();
    for (int j = 0; j < nrows; ++j) {
      const __m512i vw =
          _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(m, w[j] + k));
      const __m512i vs =
          _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(m, s[j] + k));
      sum = _mm512_add_epi16(sum, _mm512_mullo_epi16(vw, vs));
    }
    const auto lo = static_cast<__mmask16>(m);
    const auto hi = static_cast<__mmask16>(m >> 16);
    _mm512_mask_storeu_epi32(acc + k, lo, _mm512_add_epi32(
        _mm512_maskz_loadu_epi32(lo, acc + k),
        _mm512_cvtepi16_epi32(_mm512_castsi512_si256(sum))));
    _mm512_mask_storeu_epi32(acc + k + 16, hi, _mm512_add_epi32(
        _mm512_maskz_loadu_epi32(hi, acc + k + 16),
        _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(sum, 1))));
  }
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) bool bytes_equal_avx512(
    const void* pa, const void* pb, std::size_t n) {
  const auto* a = static_cast<const char*>(pa);
  const auto* b = static_cast<const char*>(pb);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    if (_mm512_cmpneq_epi8_mask(va, vb) != 0) return false;
  }
  return i == n || std::memcmp(a + i, b + i, n - i) == 0;
}

#endif  // RADAR_SIMD_X86

#if defined(RADAR_SIMD_NEON)

// ---- NEON (aarch64) ----
// The sdot form needs the dotprod extension (armv8.2+); the vmull form
// runs on every aarch64 core. Both are exact int32 paths.

std::int32_t dot_i8_neon(const std::int8_t* a, const std::int8_t* b,
                         std::int64_t n) {
  std::int64_t total = 0;
  std::int64_t i = 0;
  const std::int64_t vec_end = n & ~std::int64_t{15};
  while (i < vec_end) {
    const std::int64_t block_end = std::min(vec_end, i + kDrainBlock);
    int32x4_t acc = vdupq_n_s32(0);
    for (; i < block_end; i += 16) {
      const int8x16_t va = vld1q_s8(a + i);
      const int8x16_t vb = vld1q_s8(b + i);
#if defined(__ARM_FEATURE_DOTPROD)
      acc = vdotq_s32(acc, va, vb);
#else
      const int16x8_t lo = vmull_s8(vget_low_s8(va), vget_low_s8(vb));
      const int16x8_t hi = vmull_s8(vget_high_s8(va), vget_high_s8(vb));
      acc = vpadalq_s16(vpadalq_s16(acc, lo), hi);
#endif
    }
    total += vaddlvq_s32(acc);
  }
  auto result = static_cast<std::int32_t>(total);
  for (; i < n; ++i)
    result += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  return result;
}

void masked_add_rows_neon(std::int32_t* acc, const std::int8_t* const* w,
                          const std::int8_t* const* s, int nrows,
                          std::int64_t n) {
  std::int64_t k = 0;
  for (; k + 8 <= n; k += 8) {
    int16x8_t sum = vdupq_n_s16(0);
    for (int j = 0; j < nrows; ++j)
      sum = vmlal_s8(sum, vld1_s8(w[j] + k), vld1_s8(s[j] + k));
    vst1q_s32(acc + k, vaddw_s16(vld1q_s32(acc + k), vget_low_s16(sum)));
    vst1q_s32(acc + k + 4,
              vaddw_s16(vld1q_s32(acc + k + 4), vget_high_s16(sum)));
  }
  masked_add_rows_from(acc, w, s, nrows, k, n);
}

#endif  // RADAR_SIMD_NEON

}  // namespace

const DotI8Fn* dot_i8_table() {
  static const std::array<DotI8Fn, cpu::kNumSimdLevels> table = [] {
    std::array<DotI8Fn, cpu::kNumSimdLevels> t;
    t.fill(&dot_i8_scalar);
#if defined(RADAR_SIMD_X86)
    if (cpu::level_supported(cpu::SimdLevel::kAvx2))
      t[static_cast<int>(cpu::SimdLevel::kAvx2)] = &dot_i8_avx2;
    if (cpu::level_supported(cpu::SimdLevel::kAvx512))
      t[static_cast<int>(cpu::SimdLevel::kAvx512)] =
          cpu::has_avx512_vnni() ? &dot_i8_vnni : &dot_i8_avx512;
#endif
#if defined(RADAR_SIMD_NEON)
    t[static_cast<int>(cpu::SimdLevel::kNeon)] = &dot_i8_neon;
#endif
    return t;
  }();
  return table.data();
}

const MaskedAddRowsFn* masked_add_rows_table() {
  static const std::array<MaskedAddRowsFn, cpu::kNumSimdLevels> table = [] {
    std::array<MaskedAddRowsFn, cpu::kNumSimdLevels> t;
    t.fill(&masked_add_rows_scalar);
#if defined(RADAR_SIMD_X86)
    if (cpu::level_supported(cpu::SimdLevel::kAvx2))
      t[static_cast<int>(cpu::SimdLevel::kAvx2)] = &masked_add_rows_avx2;
    if (cpu::level_supported(cpu::SimdLevel::kAvx512))
      t[static_cast<int>(cpu::SimdLevel::kAvx512)] = &masked_add_rows_avx512;
#endif
#if defined(RADAR_SIMD_NEON)
    t[static_cast<int>(cpu::SimdLevel::kNeon)] = &masked_add_rows_neon;
#endif
    return t;
  }();
  return table.data();
}

const BytesEqualFn* bytes_equal_table() {
  static const std::array<BytesEqualFn, cpu::kNumSimdLevels> table = [] {
    std::array<BytesEqualFn, cpu::kNumSimdLevels> t;
    t.fill(&bytes_equal_scalar);
#if defined(RADAR_SIMD_X86)
    if (cpu::level_supported(cpu::SimdLevel::kAvx2))
      t[static_cast<int>(cpu::SimdLevel::kAvx2)] = &bytes_equal_avx2;
    if (cpu::level_supported(cpu::SimdLevel::kAvx512))
      t[static_cast<int>(cpu::SimdLevel::kAvx512)] = &bytes_equal_avx512;
#endif
    return t;
  }();
  return table.data();
}

}  // namespace radar::simd
