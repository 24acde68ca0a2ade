// Dispatch-level plumbing and differential checks for the shared SIMD
// primitives (dot_i8 / masked_add_rows / bytes_equal): every level the
// machine supports must be bit-identical to the scalar reference on
// adversarial lengths (sub-vector, exactly-vector, vector+tail) and
// extreme values (+-127, the int16-product corners), including the
// positions around the int64 drain boundary of the widened accumulators.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/simd_ops.h"

namespace radar {
namespace {

std::vector<cpu::SimdLevel> supported_levels() {
  std::vector<cpu::SimdLevel> out;
  for (int l = 0; l < cpu::kNumSimdLevels; ++l) {
    const auto lvl = static_cast<cpu::SimdLevel>(l);
    if (cpu::level_supported(lvl)) out.push_back(lvl);
  }
  return out;
}

TEST(CpuFeatures, ScalarAlwaysSupportedAndDetectedIsSupported) {
  EXPECT_TRUE(cpu::level_supported(cpu::SimdLevel::kScalar));
  EXPECT_TRUE(cpu::level_supported(cpu::detected_level()));
  if (cpu::has_avx512_vnni()) {
    EXPECT_TRUE(cpu::level_supported(cpu::SimdLevel::kAvx512));
  }
}

TEST(CpuFeatures, SetActiveLevelClampsToSupported) {
  const cpu::SimdLevel prev = cpu::active_level();
  // Requesting the top tier installs the best supported level <= it.
  const cpu::SimdLevel got =
      cpu::set_active_level(cpu::SimdLevel::kAvx512);
  EXPECT_TRUE(cpu::level_supported(got));
  EXPECT_LE(static_cast<int>(got),
            static_cast<int>(cpu::SimdLevel::kAvx512));
  EXPECT_EQ(cpu::set_active_level(cpu::SimdLevel::kScalar),
            cpu::SimdLevel::kScalar);
  cpu::set_active_level(prev);
}

TEST(CpuFeatures, ScopedLevelRestores) {
  const cpu::SimdLevel prev = cpu::active_level();
  {
    cpu::ScopedSimdLevel guard(cpu::SimdLevel::kScalar);
    EXPECT_EQ(cpu::active_level(), cpu::SimdLevel::kScalar);
  }
  EXPECT_EQ(cpu::active_level(), prev);
}

TEST(CpuFeatures, ParseLevelRoundTripsAndNativeDetects) {
  for (int l = 0; l < cpu::kNumSimdLevels; ++l) {
    const auto lvl = static_cast<cpu::SimdLevel>(l);
    EXPECT_EQ(cpu::parse_level(cpu::level_name(lvl)), lvl);
  }
  EXPECT_EQ(cpu::parse_level("native"), cpu::detected_level());
  EXPECT_EQ(cpu::parse_level("bogus"), cpu::detected_level());
}

TEST(SimdOps, DotMatchesScalarAcrossLevelsLengthsAndExtremes) {
  Rng rng(0xD07);
  // Lengths straddling every vector width and its tail handling, plus
  // large enough to cross the int64 drain boundary at least twice.
  const std::vector<std::int64_t> lengths = {0,  1,  7,   15,  16,  17,
                                             31, 32, 33,  63,  64,  65,
                                             127, 255, 4096, (1 << 20) + 3};
  for (const std::int64_t n : lengths) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(n));
    std::vector<std::int8_t> b(static_cast<std::size_t>(n));
    for (auto& v : a)
      v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    // Signs only, as the scan kernels guarantee: keeps the true sum in
    // int32 at every length while the products hit the +-127 corners.
    for (auto& v : b)
      v = static_cast<std::int8_t>(rng.uniform_int(0, 1) * 2 - 1);
    cpu::ScopedSimdLevel scalar_guard(cpu::SimdLevel::kScalar);
    const std::int32_t want = simd::dot_i8(a.data(), b.data(), n);
    for (const cpu::SimdLevel lvl : supported_levels()) {
      cpu::ScopedSimdLevel guard(lvl);
      EXPECT_EQ(simd::dot_i8(a.data(), b.data(), n), want)
          << "n=" << n << " level=" << cpu::level_name(lvl);
    }
  }
}

// masked_add_rows against scalar at every level: every row count 1..8,
// lengths around each vector width and its tail, signs from {-1, 0, +1},
// and the int16 lane extremes: every row -128 under sign -1 (+1024 in a
// lane after eight rows), 127 under +1, and the negative corners -128
// under +1 (-1024) and 127 under -1.
TEST(SimdOps, MaskedAddRowsMatchesScalarAcrossLevels) {
  Rng rng(0xA4B1);
  constexpr int kRows = simd::kMaskedAddMaxRows;
  for (const std::int64_t n :
       {0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 4099}) {
    const auto len = static_cast<std::size_t>(n);
    std::vector<std::int32_t> init(len);
    for (auto& v : init)
      v = static_cast<std::int32_t>(rng.uniform_int(-1000000, 1000000));
    // Pattern 0 is random; the others fill every row with one (w, s).
    const std::int8_t fills[][2] = {
        {0, 0}, {-128, -1}, {127, 1}, {-128, 1}, {127, -1}};
    for (int pattern = 0; pattern < 5; ++pattern) {
      std::vector<std::vector<std::int8_t>> w(kRows,
                                              std::vector<std::int8_t>(len));
      std::vector<std::vector<std::int8_t>> s(kRows,
                                              std::vector<std::int8_t>(len));
      for (int j = 0; j < kRows; ++j) {
        for (std::size_t k = 0; k < len; ++k) {
          if (pattern == 0) {
            w[j][k] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
            s[j][k] = static_cast<std::int8_t>(rng.uniform_int(-1, 1));
          } else {
            w[j][k] = fills[pattern][0];
            s[j][k] = fills[pattern][1];
          }
        }
      }
      const std::int8_t* wp[kRows];
      const std::int8_t* sp[kRows];
      for (int j = 0; j < kRows; ++j) {
        wp[j] = w[j].data();
        sp[j] = s[j].data();
      }
      for (int nrows = 1; nrows <= kRows; ++nrows) {
        std::vector<std::int32_t> want = init;
        {
          cpu::ScopedSimdLevel guard(cpu::SimdLevel::kScalar);
          simd::masked_add_rows(want.data(), wp, sp, nrows, n);
        }
        if (pattern > 0 && n > 0) {
          ASSERT_EQ(want[0] - init[0],
                    nrows * fills[pattern][0] * fills[pattern][1]);
        }
        for (const cpu::SimdLevel lvl : supported_levels()) {
          cpu::ScopedSimdLevel guard(lvl);
          std::vector<std::int32_t> got = init;
          simd::masked_add_rows(got.data(), wp, sp, nrows, n);
          EXPECT_EQ(got, want) << "n=" << n << " nrows=" << nrows
                               << " pattern=" << pattern
                               << " level=" << cpu::level_name(lvl);
        }
      }
    }
  }
}

TEST(SimdOps, BytesEqualMatchesMemcmpAcrossLevels) {
  Rng rng(0xBE5);
  for (const std::int64_t n : {0, 1, 31, 32, 33, 63, 64, 65, 4097}) {
    std::vector<std::uint8_t> a(static_cast<std::size_t>(n));
    for (auto& v : a)
      v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<std::uint8_t> b = a;
    for (const cpu::SimdLevel lvl : supported_levels()) {
      cpu::ScopedSimdLevel guard(lvl);
      EXPECT_TRUE(simd::bytes_equal(a.data(), b.data(),
                                    static_cast<std::size_t>(n)))
          << "n=" << n << " level=" << cpu::level_name(lvl);
      if (n == 0) continue;
      // Flip one byte at the front, middle, back: each must be caught.
      for (const std::int64_t pos : {std::int64_t{0}, n / 2, n - 1}) {
        b[static_cast<std::size_t>(pos)] ^= 0x40;
        EXPECT_FALSE(simd::bytes_equal(a.data(), b.data(),
                                       static_cast<std::size_t>(n)))
            << "n=" << n << " pos=" << pos
            << " level=" << cpu::level_name(lvl);
        b[static_cast<std::size_t>(pos)] ^= 0x40;
      }
    }
  }
}

}  // namespace
}  // namespace radar
