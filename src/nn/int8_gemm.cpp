#include "nn/int8_gemm.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/cpu_features.h"
#include "common/error.h"
#include "common/simd_ops.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define RADAR_GEMM_X86 1
#endif

namespace radar::nn {

namespace {

// Every tile is 4 weight rows by at most 64 columns; its int32
// accumulators (1 KiB) stay in L1 between the tile and the epilogue.
constexpr int kTileRows = 4;
constexpr std::int64_t kMaxColBlock = 64;

/// The register tile: for r < kTileRows and c < cols,
///   acc[r * kMaxColBlock + c] = sum_k packed(k, c) * w[r][k]
/// over the biased (u8) activations of one k-quad patch matrix, `b`
/// pointing at its column c = 0 and `ldq` bytes between quads. `cols` is a
/// multiple of kPackCols, at most kMaxColBlock. Rows past the caller's real
/// rows repeat a real row, so no tile needs a row tail. Every variant reads
/// the live weight rows during the call (the AVX2 tile through a stack copy
/// widened to int16), never past byte k (the last, partial quad is
/// assembled with zero bytes), and sums exactly in int32 — they are
/// bit-identical.
using TileFn = void (*)(const std::int8_t* const* w, std::int64_t k,
                        const std::uint8_t* b, std::int64_t ldq,
                        std::int64_t cols, std::int32_t* acc);

/// The 32-bit lane of weight bytes k = 4q .. 4q+3 (byte j = w[4q + j]),
/// zero past `k`.
inline std::uint32_t weight_quad(const std::int8_t* w, std::int64_t q,
                                 std::int64_t k) {
  std::uint32_t v = 0;
  std::memcpy(&v, w + 4 * q,
              static_cast<std::size_t>(std::min<std::int64_t>(4, k - 4 * q)));
  return v;
}

void tile_scalar(const std::int8_t* const* w, std::int64_t k,
                 const std::uint8_t* b, std::int64_t ldq, std::int64_t cols,
                 std::int32_t* acc) {
  const std::int64_t nq = packed_quads(k);
  for (int r = 0; r < kTileRows; ++r) {
    std::int32_t* arow = acc + r * kMaxColBlock;
    std::fill(arow, arow + cols, 0);
    for (std::int64_t q = 0; q < nq; ++q) {
      std::int8_t wq[4] = {0, 0, 0, 0};
      for (std::int64_t j = 0; j < 4 && 4 * q + j < k; ++j)
        wq[j] = w[r][4 * q + j];
      const std::uint8_t* bq = b + q * ldq;
      for (std::int64_t c = 0; c < cols; ++c)
        arow[c] += bq[4 * c] * wq[0] + bq[4 * c + 1] * wq[1] +
                   bq[4 * c + 2] * wq[2] + bq[4 * c + 3] * wq[3];
    }
  }
}

#if defined(RADAR_GEMM_X86)

#define RADAR_AVX2_TARGET __attribute__((target("avx2")))
#define RADAR_VNNI_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni")))

inline std::int32_t load_quad(const std::int8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

// AVX2: a 16-byte load holds 4 columns' quads; widened to 16 u16 lanes it
// meets the [w0 w1 w2 w3] x4 i16 weight pattern in pmaddwd, which leaves
// two pair partials per column in int32. They are folded once, after the
// K loop: hadd pairs the partials, permute4x64 restores column order. The
// tile widens its 4 weight rows to int16 once per chunk of quads (on the
// stack, from the live rows), so each row's pattern is one 8-byte
// broadcast, shared by all of the tile's 8-column sub-tiles.

constexpr std::int64_t kAvx2ChunkQuads = 256;

/// Pair partials of one 4-row x 8-column sub-tile.
using Avx2Partials = __m256i[kTileRows][2];

/// Adds quads [0, n) of one sub-tile to `part`: `wide[r]` points at row
/// r's widened weights of the chunk, `b` at the sub-tile's first quad.
RADAR_AVX2_TARGET void avx2_block(const std::int16_t* const* wide,
                                  std::int64_t n, const std::uint8_t* b,
                                  std::int64_t ldq, Avx2Partials& part) {
  // Register copies: `part` is memory that the byte loads may alias.
  __m256i c[kTileRows][2];
  for (int r = 0; r < kTileRows; ++r) {
    c[r][0] = part[r][0];
    c[r][1] = part[r][1];
  }
  for (std::int64_t q = 0; q < n; ++q, b += ldq) {
    const __m256i b0 = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b)));
    const __m256i b1 = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + 16)));
    for (int r = 0; r < kTileRows; ++r) {
      std::int64_t pattern;
      std::memcpy(&pattern, wide[r] + 4 * q, 8);
      const __m256i wv = _mm256_set1_epi64x(pattern);
      c[r][0] = _mm256_add_epi32(c[r][0], _mm256_madd_epi16(b0, wv));
      c[r][1] = _mm256_add_epi32(c[r][1], _mm256_madd_epi16(b1, wv));
    }
  }
  for (int r = 0; r < kTileRows; ++r) {
    part[r][0] = c[r][0];
    part[r][1] = c[r][1];
  }
}

RADAR_AVX2_TARGET void tile_avx2(const std::int8_t* const* w,
                                 std::int64_t k, const std::uint8_t* b,
                                 std::int64_t ldq, std::int64_t cols,
                                 std::int32_t* acc) {
  alignas(32) std::int16_t wide[kTileRows][4 * kAvx2ChunkQuads];
  const std::int16_t* const rows[kTileRows] = {wide[0], wide[1], wide[2],
                                               wide[3]};
  Avx2Partials part[kMaxColBlock / 8];
  const std::int64_t nsub = cols / 8;
  for (std::int64_t s = 0; s < nsub; ++s)
    for (auto& r : part[s]) r[0] = r[1] = _mm256_setzero_si256();
  const std::int64_t nq = packed_quads(k);
  for (std::int64_t q0 = 0; q0 < nq; q0 += kAvx2ChunkQuads) {
    const std::int64_t n = std::min(kAvx2ChunkQuads, nq - q0);
    // Widen the chunk's weights, zero past k (never read past the row).
    const std::int64_t k0 = 4 * q0, kn = std::min(k, 4 * (q0 + n)) - k0;
    for (int r = 0; r < kTileRows; ++r) {
      for (std::int64_t i = 0; i < kn; ++i) wide[r][i] = w[r][k0 + i];
      for (std::int64_t i = kn; i < 4 * n; ++i) wide[r][i] = 0;
    }
    for (std::int64_t s = 0; s < nsub; ++s)
      avx2_block(rows, n, b + q0 * ldq + 32 * s, ldq, part[s]);
  }
  for (std::int64_t s = 0; s < nsub; ++s)
    for (int r = 0; r < kTileRows; ++r)
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(acc + r * kMaxColBlock + 8 * s),
          _mm256_permute4x64_epi64(
              _mm256_hadd_epi32(part[s][r][0], part[s][r][1]), 0xD8));
}

// AVX-512 VNNI: a 64-byte load holds 16 columns' quads, and one vpdpbusd
// per (row, vector) adds the four u8 x s8 products of a column into its
// int32 lane against the row's 4 weight bytes broadcast.

template <int NV>
RADAR_VNNI_TARGET inline __attribute__((always_inline)) void vnni_quad(
    __m512i (&c)[kTileRows][NV], const std::uint8_t* bq,
    const std::int32_t (&wq)[kTileRows]) {
  __m512i bv[NV];
  for (int v = 0; v < NV; ++v) bv[v] = _mm512_loadu_si512(bq + 64 * v);
  for (int r = 0; r < kTileRows; ++r) {
    const __m512i wv = _mm512_set1_epi32(wq[r]);
    for (int v = 0; v < NV; ++v)
      c[r][v] = _mm512_dpbusd_epi32(c[r][v], bv[v], wv);
  }
}

template <int NV>
RADAR_VNNI_TARGET void vnni_block(const std::int8_t* const* w, std::int64_t k,
                                  const std::uint8_t* b, std::int64_t ldq,
                                  std::int32_t* acc) {
  __m512i c[kTileRows][NV];
  for (auto& row : c)
    for (auto& v : row) v = _mm512_setzero_si512();
  const std::int64_t full = k / 4;
  std::int32_t wq[kTileRows];
  for (std::int64_t q = 0; q < full; ++q) {
    for (int r = 0; r < kTileRows; ++r) wq[r] = load_quad(w[r] + 4 * q);
    vnni_quad<NV>(c, b + q * ldq, wq);
  }
  if (full * 4 < k) {
    for (int r = 0; r < kTileRows; ++r)
      wq[r] = static_cast<std::int32_t>(weight_quad(w[r], full, k));
    vnni_quad<NV>(c, b + full * ldq, wq);
  }
  for (int r = 0; r < kTileRows; ++r)
    for (int v = 0; v < NV; ++v)
      _mm512_storeu_si512(acc + r * kMaxColBlock + 16 * v, c[r][v]);
}

RADAR_VNNI_TARGET void tile_vnni(const std::int8_t* const* w,
                                 std::int64_t k, const std::uint8_t* b,
                                 std::int64_t ldq, std::int64_t cols,
                                 std::int32_t* acc) {
  switch (cols / kPackCols) {
    case 4: return vnni_block<4>(w, k, b, ldq, acc);
    case 3: return vnni_block<3>(w, k, b, ldq, acc);
    case 2: return vnni_block<2>(w, k, b, ldq, acc);
    default: return vnni_block<1>(w, k, b, ldq, acc);
  }
}

#endif  // RADAR_GEMM_X86

const TileFn* tile_table() {
  static const std::array<TileFn, cpu::kNumSimdLevels> table = [] {
    std::array<TileFn, cpu::kNumSimdLevels> t;
    t.fill(&tile_scalar);
#if defined(RADAR_GEMM_X86)
    if (cpu::level_supported(cpu::SimdLevel::kAvx2))
      t[static_cast<int>(cpu::SimdLevel::kAvx2)] = &tile_avx2;
    if (cpu::level_supported(cpu::SimdLevel::kAvx512))
      t[static_cast<int>(cpu::SimdLevel::kAvx512)] =
          cpu::has_avx512_vnni() ? &tile_vnni : &tile_avx2;
#endif
    return t;
  }();
  return table.data();
}

}  // namespace

void gemm_i8_packed(const std::int8_t* a, const std::uint8_t* packed,
                    float* out, std::int64_t m0, std::int64_t m1,
                    std::int64_t k, std::int64_t p, std::int64_t lda,
                    std::int64_t ldo, const RequantEpilogue& epi) {
  RADAR_REQUIRE(k <= kInt8GemmMaxK, "int8 GEMM depth overflows int32");
  const TileFn tile = tile_table()[static_cast<int>(cpu::active_level())];
  const std::int64_t ldq = packed_cols(p) * 4;
  alignas(64) std::int32_t acc[kTileRows * kMaxColBlock];
  std::int32_t corr[kTileRows];
  const std::int8_t* w[kTileRows];
  for (std::int64_t g = m0; g < m1; g += kTileRows) {
    const std::int64_t gm = std::min<std::int64_t>(kTileRows, m1 - g);
    // 128 * sum(w) per row, from the live row: the activation bias.
    for (std::int64_t r = 0; r < gm; ++r) {
      const std::int8_t* row = a + (g + r) * lda;
      std::int32_t s = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) s += row[kk];
      corr[r] = 128 * s;
    }
    for (int r = 0; r < kTileRows; ++r)
      w[r] = a + (g + std::min<std::int64_t>(r, gm - 1)) * lda;
    for (std::int64_t p0 = 0; p0 < p; p0 += kMaxColBlock) {
      const std::int64_t pc = std::min(kMaxColBlock, p - p0);
      tile(w, k, packed + p0 * 4, ldq, packed_cols(pc), acc);
      // Fused epilogue: bias removal + requant (+ ReLU) over the block.
      // The subtraction wraps like the tile's int32 sums; without a
      // concurrent writer both are exact.
      for (std::int64_t r = 0; r < gm; ++r) {
        const float s = epi.scale[g + r];
        const float bs = epi.bias != nullptr ? epi.bias[g + r] : 0.0f;
        const auto c = static_cast<std::uint32_t>(corr[r]);
        const std::int32_t* arow = acc + r * kMaxColBlock;
        float* orow = out + (g + r) * ldo + p0;
        if (epi.relu) {
          for (std::int64_t pp = 0; pp < pc; ++pp)
            orow[pp] = requant_one(
                static_cast<std::int32_t>(
                    static_cast<std::uint32_t>(arow[pp]) - c),
                s, bs, true);
        } else {
          for (std::int64_t pp = 0; pp < pc; ++pp)
            orow[pp] = requant_one(
                static_cast<std::int32_t>(
                    static_cast<std::uint32_t>(arow[pp]) - c),
                s, bs, false);
        }
      }
    }
  }
}

void gemm_i8_dot(const std::int8_t* x, const std::int8_t* w, float* y,
                 std::int64_t n0, std::int64_t n1, std::int64_t m,
                 std::int64_t k, std::int64_t ldx, std::int64_t ldw,
                 std::int64_t ldy, const RequantEpilogue& epi) {
  RADAR_REQUIRE(k <= kInt8GemmMaxK, "int8 GEMM depth overflows int32");
  // Each output is a contiguous dot product, so this rides the shared
  // dispatched primitive (AVX-512 VNNI / AVX2 / NEON / scalar — all
  // bit-identical); the x row stays L1-resident across the m loop.
  for (std::int64_t n = n0; n < n1; ++n) {
    const std::int8_t* xr = x + n * ldx;
    float* yr = y + n * ldy;
    for (std::int64_t mm = 0; mm < m; ++mm) {
      const std::int32_t acc = simd::dot_i8(xr, w + mm * ldw, k);
      yr[mm] = requant_one(acc, epi.scale[mm],
                           epi.bias != nullptr ? epi.bias[mm] : 0.0f,
                           epi.relu);
    }
  }
}

}  // namespace radar::nn
