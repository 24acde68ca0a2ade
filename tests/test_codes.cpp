// Integrity-code baselines: CRC known-answer + property tests, Hamming
// SEC-DED behaviour, Fletcher/addition checksums.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "codes/crc.h"
#include "codes/fletcher.h"
#include "codes/hamming.h"
#include "common/cpu_features.h"
#include "common/error.h"
#include "common/rng.h"

namespace radar::codes {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(Crc, Crc16XmodemKnownAnswer) {
  // CRC-16/XMODEM (poly 0x1021, init 0, no reflection): "123456789"
  // -> 0x31C3. Our engine implements exactly that convention.
  Crc crc(CrcSpec::crc16_ccitt());
  const auto data = bytes_of("123456789");
  EXPECT_EQ(crc.compute(data), 0x31C3u);
}

TEST(Crc, TableMatchesBitwiseAcrossSpecs) {
  Rng rng(1);
  std::vector<std::uint8_t> data(257);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
  for (const auto& spec :
       {CrcSpec::crc7(), CrcSpec::crc10(), CrcSpec::crc13(),
        CrcSpec::crc16_ccitt(), CrcSpec::crc32()}) {
    Crc crc(spec);
    EXPECT_EQ(crc.compute(data), crc.compute_bitwise(data)) << spec.name;
  }
}

TEST(Crc, SlicingMatchesBitwiseOverRandomBuffers) {
  // Differential battery for the slicing kernels: every spec (narrow
  // widths included — they share the same left-aligned tables), every
  // length 0..64 plus larger odd sizes, fresh random bytes per length,
  // under every dispatch level this machine supports (scalar takes the
  // slicing-by-8 kernel, wider tiers slicing-by-16). Covers both wide
  // kernels, the byte-at-a-time tail, and their seams.
  for (int l = 0; l < cpu::kNumSimdLevels; ++l) {
    const auto lvl = static_cast<cpu::SimdLevel>(l);
    if (!cpu::level_supported(lvl)) continue;
    SCOPED_TRACE(cpu::level_name(lvl));
    cpu::ScopedSimdLevel guard(lvl);
    Rng rng(99);
    for (const auto& spec :
         {CrcSpec::crc7(), CrcSpec::crc10(), CrcSpec::crc13(),
          CrcSpec::crc16_ccitt(), CrcSpec::crc32()}) {
      Crc crc(spec);
      for (std::size_t len = 0; len <= 64; ++len) {
        std::vector<std::uint8_t> data(len);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
        EXPECT_EQ(crc.compute(data), crc.compute_bitwise(data))
            << spec.name << " len=" << len;
      }
      for (const std::size_t len : {255u, 512u, 1021u, 4096u}) {
        std::vector<std::uint8_t> data(len);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
        EXPECT_EQ(crc.compute(data), crc.compute_bitwise(data))
            << spec.name << " len=" << len;
      }
    }
  }
}

TEST(Crc, EmptyDataIsZero) {
  Crc crc(CrcSpec::crc13());
  EXPECT_EQ(crc.compute({}), 0u);
}

TEST(Crc, ResultFitsWidth) {
  Rng rng(2);
  std::vector<std::uint8_t> data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
  for (const auto& spec : {CrcSpec::crc7(), CrcSpec::crc10(), CrcSpec::crc13()}) {
    Crc crc(spec);
    EXPECT_LT(crc.compute(data), 1u << spec.width) << spec.name;
  }
}

class CrcErrorDetection : public ::testing::TestWithParam<int> {};

TEST_P(CrcErrorDetection, DetectsAllSingleBitErrors) {
  // Any CRC detects every single-bit error.
  const int size = GetParam();
  Rng rng(static_cast<std::uint64_t>(size));
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
  Crc crc(CrcSpec::crc13());
  const auto clean = crc.compute(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc.compute(data), clean)
          << "missed single error at " << byte << ":" << bit;
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST_P(CrcErrorDetection, DetectsSampledDoubleBitErrors) {
  // HD=3 at these block lengths: every 2-bit error detected (sampled).
  const int size = GetParam();
  Rng rng(static_cast<std::uint64_t>(size) * 31);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
  Crc crc(CrcSpec::crc13());
  const auto clean = crc.compute(data);
  const std::int64_t total_bits = size * 8;
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = rng.uniform_int(0, total_bits - 1);
    auto b = rng.uniform_int(0, total_bits - 1);
    if (a == b) b = (b + 1) % total_bits;
    data[static_cast<std::size_t>(a / 8)] ^=
        static_cast<std::uint8_t>(1u << (a % 8));
    data[static_cast<std::size_t>(b / 8)] ^=
        static_cast<std::uint8_t>(1u << (b % 8));
    EXPECT_NE(crc.compute(data), clean) << "missed double " << a << "," << b;
    data[static_cast<std::size_t>(a / 8)] ^=
        static_cast<std::uint8_t>(1u << (a % 8));
    data[static_cast<std::size_t>(b / 8)] ^=
        static_cast<std::uint8_t>(1u << (b % 8));
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, CrcErrorDetection,
                         ::testing::Values(8, 64, 512));

TEST(Crc, RejectsBadSpecs) {
  CrcSpec bad{2, 0x3, "too-narrow"};
  EXPECT_THROW(Crc{bad}, radar::InvalidArgument);
  CrcSpec wide_poly{7, 0xFF, "poly-overflow"};
  EXPECT_THROW(Crc{wide_poly}, radar::InvalidArgument);
}

TEST(Crc, Crc10DetectsDoubleErrorsAt512Bits) {
  // CRC-10's role in the paper: protect the 512 MSBs of a G=512 group.
  // Our generator is primitive (order 1023 > 512), so all double-bit
  // errors within that span must be caught.
  Rng rng(77);
  std::vector<std::uint8_t> data(64);  // 512 bits
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
  Crc crc(CrcSpec::crc10());
  const auto clean = crc.compute(data);
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = rng.uniform_int(0, 511);
    auto b = rng.uniform_int(0, 511);
    if (a == b) b = (b + 1) % 512;
    data[static_cast<std::size_t>(a / 8)] ^= static_cast<std::uint8_t>(1u << (a % 8));
    data[static_cast<std::size_t>(b / 8)] ^= static_cast<std::uint8_t>(1u << (b % 8));
    EXPECT_NE(crc.compute(data), clean);
    data[static_cast<std::size_t>(a / 8)] ^= static_cast<std::uint8_t>(1u << (a % 8));
    data[static_cast<std::size_t>(b / 8)] ^= static_cast<std::uint8_t>(1u << (b % 8));
  }
}

TEST(Crc, DifferentPolynomialsDisagree) {
  const auto data = bytes_of("radar");
  Crc a(CrcSpec::crc13()), b(CrcSpec::crc16_ccitt());
  EXPECT_NE(a.compute(data), b.compute(data));
}

TEST(Hamming, ParityBitCounts) {
  // Classic table: 64 data bits -> 7 parity (+1 overall = 8 stored);
  // 4096 data bits -> 13 parity (the numbers quoted in §VII.B).
  EXPECT_EQ(HammingSecDed::parity_bits_for(64), 7);
  EXPECT_EQ(HammingSecDed::parity_bits_for(4096), 13);
  EXPECT_EQ(HammingSecDed::parity_bits_for(1), 2);
  EXPECT_EQ(HammingSecDed(64).storage_bits(), 8);
  EXPECT_EQ(HammingSecDed(4096).storage_bits(), 14);
}

TEST(Hamming, CleanDataChecksOk) {
  Rng rng(3);
  std::vector<std::uint8_t> data(8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
  HammingSecDed code(64);
  const auto check = code.encode(data);
  const auto r = code.check(data, check);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.corrected);
  EXPECT_FALSE(r.double_error);
}

TEST(Hamming, SingleErrorFlaggedAsCorrectable) {
  Rng rng(4);
  std::vector<std::uint8_t> data(8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
  HammingSecDed code(64);
  const auto check = code.encode(data);
  for (int bit = 0; bit < 64; bit += 5) {
    data[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    const auto r = code.check(data, check);
    EXPECT_TRUE(r.corrected) << "bit " << bit;
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.double_error);
    data[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

TEST(Hamming, DoubleErrorDetectedNotCorrected) {
  Rng rng(5);
  std::vector<std::uint8_t> data(8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
  HammingSecDed code(64);
  const auto check = code.encode(data);
  int detected = 0, trials = 0;
  for (int a = 0; a < 64; a += 7) {
    for (int b = a + 3; b < 64; b += 11) {
      data[static_cast<std::size_t>(a / 8)] ^=
          static_cast<std::uint8_t>(1u << (a % 8));
      data[static_cast<std::size_t>(b / 8)] ^=
          static_cast<std::uint8_t>(1u << (b % 8));
      const auto r = code.check(data, check);
      ++trials;
      if (r.double_error) ++detected;
      EXPECT_FALSE(r.ok);
      data[static_cast<std::size_t>(a / 8)] ^=
          static_cast<std::uint8_t>(1u << (a % 8));
      data[static_cast<std::size_t>(b / 8)] ^=
          static_cast<std::uint8_t>(1u << (b % 8));
    }
  }
  EXPECT_EQ(detected, trials);
}

TEST(Hamming, I8ConvenienceMatchesBytes) {
  std::vector<std::int8_t> w = {-5, 17, -128, 127, 0, 33, -1, 64};
  HammingSecDed code(64);
  const auto c1 = code.encode_i8(w);
  const auto r = code.check_i8(w, c1);
  EXPECT_TRUE(r.ok);
}

// Closed form of data bit i's 1-based codeword position: the (i+1)-th
// position that is not a power of two is i + 1 + k, where k counts the
// powers of two (parity positions) at or below it.
std::uint32_t reference_position(std::int64_t i) {
  std::int64_t k = 0;
  while ((std::int64_t{1} << k) <= i + 1 + k) ++k;
  return static_cast<std::uint32_t>(i + 1 + k);
}

std::uint32_t reference_encode(const std::vector<std::uint8_t>& data,
                               std::int64_t data_bits, int parity_bits) {
  std::uint32_t syndrome = 0;
  bool total = false;
  for (std::int64_t i = 0; i < data_bits; ++i)
    if ((data[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1u) {
      syndrome ^= reference_position(i);
      total = !total;
    }
  for (int b = 0; b < parity_bits; ++b)
    if ((syndrome >> b) & 1u) total = !total;
  return syndrome | (static_cast<std::uint32_t>(total) << parity_bits);
}

TEST(Hamming, EncodeMatchesClosedFormPositions) {
  EXPECT_EQ(reference_position(0), 3u);
  EXPECT_EQ(reference_position(1), 5u);
  EXPECT_EQ(reference_position(3), 7u);
  EXPECT_EQ(reference_position(4), 9u);
  for (const std::int64_t data_bits : {8, 64, 128, 4096}) {
    const HammingSecDed code(data_bits);
    Rng rng(static_cast<std::uint64_t>(data_bits));
    std::vector<std::uint8_t> data(static_cast<std::size_t>(data_bits / 8));
    for (int trial = 0; trial < 8; ++trial) {
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
      const std::uint32_t word = code.encode(data);
      EXPECT_EQ(word, reference_encode(data, data_bits, code.parity_bits()))
          << "data_bits " << data_bits << " trial " << trial;
      // A single data-bit error reports that bit's codeword position.
      const auto i = static_cast<std::int64_t>(rng.bits() % data_bits);
      data[static_cast<std::size_t>(i / 8)] ^=
          static_cast<std::uint8_t>(1u << (i % 8));
      const SecDedResult r = code.check(data, word);
      EXPECT_TRUE(r.corrected);
      EXPECT_EQ(r.error_bit, std::int64_t{reference_position(i)})
          << "data bit " << i;
    }
  }
}

TEST(Fletcher, KnownAnswers) {
  // Standard example: "abcde" -> Fletcher-16 = 0xC8F0.
  EXPECT_EQ(fletcher16(bytes_of("abcde")), 0xC8F0);
  EXPECT_EQ(fletcher16(bytes_of("abcdef")), 0x2057);
}

TEST(Fletcher, F32DetectsReordering) {
  // Position sensitivity is Fletcher's advantage over plain addition.
  const auto a = bytes_of("AB");
  const auto b = bytes_of("BA");
  EXPECT_NE(fletcher32(a), fletcher32(b));
  EXPECT_EQ(addition_checksum(a, 16), addition_checksum(b, 16));
}

TEST(AdditionChecksum, WidthMasking) {
  std::vector<std::uint8_t> data(300, 0xFF);  // sum = 76500
  EXPECT_EQ(addition_checksum(data, 8), 76500 % 256);
  EXPECT_EQ(addition_checksum(data, 16), 76500 % 65536);
  EXPECT_EQ(addition_checksum(data, 32), 76500u);
  EXPECT_THROW(addition_checksum(data, 0), radar::InvalidArgument);
}

TEST(AdditionChecksum, BlindToCancellingPair) {
  // The documented weakness RADAR inherits and mitigates via masking.
  std::vector<std::uint8_t> data = {10, 20, 30};
  const auto clean = addition_checksum(data, 16);
  data[0] += 5;
  data[1] -= 5;
  EXPECT_EQ(addition_checksum(data, 16), clean);
}

// ---- row-streaming folds and zero extension ----
//
// The grouped-code scans fold many blocks at once, one byte of each per
// row, and code contiguous tail groups without copying their padding.
// Each entry point must equal the plain whole-block code.

/// `blocks` random blocks of `len` bytes, block-major.
std::vector<std::vector<std::uint8_t>> random_blocks(Rng& rng,
                                                     std::size_t blocks,
                                                     std::size_t len) {
  std::vector<std::vector<std::uint8_t>> out(blocks,
                                             std::vector<std::uint8_t>(len));
  for (auto& block : out)
    for (auto& b : block) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
  return out;
}

/// Row j of `blocks` (byte j of every block), and pointers to `count`
/// such rows starting at `first`.
std::vector<std::vector<std::uint8_t>> rows_of(
    const std::vector<std::vector<std::uint8_t>>& blocks) {
  std::vector<std::vector<std::uint8_t>> rows(blocks[0].size());
  for (std::size_t j = 0; j < rows.size(); ++j)
    for (const auto& block : blocks) rows[j].push_back(block[j]);
  return rows;
}
std::vector<const std::uint8_t*> row_ptrs(
    const std::vector<std::vector<std::uint8_t>>& rows, std::size_t first,
    std::size_t count) {
  std::vector<const std::uint8_t*> out;
  for (std::size_t j = first; j < first + count; ++j)
    out.push_back(rows[j].data());
  return out;
}

// Block lengths straddle the 8-row fused step; the fold is called with
// pass sizes 1..11 so fused runs, leftover rows and their seams all occur.
constexpr std::size_t kFoldLens[] = {1, 7, 8, 9, 16, 23, 64};

TEST(Crc, RowFoldEqualsCompute) {
  Rng rng(17);
  for (const auto& spec : {CrcSpec::crc7(), CrcSpec::crc13(),
                           CrcSpec::crc16_ccitt(), CrcSpec::crc32()}) {
    const Crc crc(spec);
    for (const std::size_t len : kFoldLens) {
      const auto blocks = random_blocks(rng, 13, len);
      const auto rows = rows_of(blocks);
      for (std::size_t pass = 1; pass <= 11; ++pass) {
        std::vector<std::uint32_t> regs(blocks.size(), 0);
        for (std::size_t j = 0; j < len; j += pass) {
          const auto p = row_ptrs(rows, j, std::min(pass, len - j));
          crc.fold(regs, p);
        }
        for (std::size_t k = 0; k < blocks.size(); ++k)
          EXPECT_EQ(crc.finish(regs[k]), crc.compute_bitwise(blocks[k]))
              << spec.name << " len " << len << " pass " << pass;
      }
    }
  }
}

TEST(Crc, ExtendZerosEqualsZeroPaddedCompute) {
  Rng rng(3);
  for (const auto& spec : {CrcSpec::crc7(), CrcSpec::crc13(),
                           CrcSpec::crc16_ccitt(), CrcSpec::crc32()}) {
    const Crc crc(spec);
    for (const std::size_t len : {0, 1, 5, 40}) {
      std::vector<std::uint8_t> data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
      for (const std::int64_t zeros : {0, 1, 15, 16, 17, 33, 1000}) {
        std::vector<std::uint8_t> padded = data;
        padded.resize(len + static_cast<std::size_t>(zeros), 0);
        EXPECT_EQ(crc.extend_zeros(crc.compute(data), zeros),
                  crc.compute_bitwise(padded))
            << spec.name << " len " << len << " zeros " << zeros;
      }
    }
  }
  EXPECT_THROW(Crc(CrcSpec::crc13()).extend_zeros(0, -1),
               radar::InvalidArgument);
}

TEST(Hamming, DataBitPositionIsClosedForm) {
  for (std::int64_t i = 0; i < 70000; ++i)
    ASSERT_EQ(HammingSecDed::data_bit_position(i),
              std::int64_t{reference_position(i)})
        << "data bit " << i;
  // Around the largest block a grouped code can have (2^27 data bits).
  for (const std::int64_t i :
       {(std::int64_t{1} << 27) - 30, (std::int64_t{1} << 27) - 1}) {
    const std::int64_t p = HammingSecDed::data_bit_position(i);
    EXPECT_EQ(p, i + 1 + static_cast<std::int64_t>(std::bit_width(
                             static_cast<std::uint64_t>(p))));
    EXPECT_NE(p & (p - 1), 0);  // never a parity (power-of-two) position
  }
}

TEST(Hamming, RowFoldEqualsEncode) {
  Rng rng(29);
  for (const std::size_t len : kFoldLens) {
    const HammingSecDed code(static_cast<std::int64_t>(len) * 8);
    const auto blocks = random_blocks(rng, 13, len);
    const auto rows = rows_of(blocks);
    for (std::size_t pass = 1; pass <= 11; ++pass) {
      std::vector<std::uint32_t> states(blocks.size(), 0);
      for (std::size_t j = 0; j < len; j += pass) {
        const std::size_t count = std::min(pass, len - j);
        std::vector<HammingSecDed::ByteTerms> terms;
        for (std::size_t r = 0; r < count; ++r)
          terms.push_back(code.byte_terms(static_cast<std::int64_t>(j + r)));
        code.fold(states, row_ptrs(rows, j, count), terms.data());
      }
      for (std::size_t k = 0; k < blocks.size(); ++k)
        EXPECT_EQ(code.finish(states[k]), code.encode(blocks[k]))
            << "len " << len << " pass " << pass;
    }
  }
  EXPECT_THROW(HammingSecDed(64).byte_terms(8), radar::InvalidArgument);
}

TEST(Hamming, ShortDataIsZeroPadded) {
  Rng rng(31);
  for (const std::int64_t data_bits : {64, 4096}) {
    const HammingSecDed code(data_bits);
    for (const std::size_t len : {0, 1, 3, 7}) {
      std::vector<std::uint8_t> data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
      std::vector<std::uint8_t> padded = data;
      padded.resize(static_cast<std::size_t>(data_bits / 8), 0);
      EXPECT_EQ(code.encode(data), code.encode(padded))
          << "data_bits " << data_bits << " len " << len;
      EXPECT_TRUE(code.check(data, code.encode(padded)).ok);
    }
  }
}

TEST(Fletcher, RowFoldEqualsFletcher16) {
  Rng rng(37);
  for (const std::size_t len : kFoldLens) {
    // All-0xFF blocks drive both sums through their reduction edge.
    auto blocks = random_blocks(rng, 13, len);
    std::fill(blocks[0].begin(), blocks[0].end(), std::uint8_t{0xFF});
    const auto rows = rows_of(blocks);
    for (std::size_t pass = 1; pass <= 11; ++pass) {
      std::vector<std::uint32_t> states(blocks.size(), 0);
      for (std::size_t j = 0; j < len; j += pass)
        fletcher16_fold(states, row_ptrs(rows, j, std::min(pass, len - j)));
      for (std::size_t k = 0; k < blocks.size(); ++k)
        EXPECT_EQ(fletcher16_finish(states[k]), fletcher16(blocks[k]))
            << "len " << len << " pass " << pass;
    }
  }
}

TEST(Fletcher, ExtendZerosEqualsZeroPaddedFletcher16) {
  Rng rng(41);
  for (const std::size_t len : {0, 1, 9, 300}) {
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
    for (const std::int64_t zeros : {0, 1, 254, 255, 256, 5000}) {
      std::vector<std::uint8_t> padded = data;
      padded.resize(len + static_cast<std::size_t>(zeros), 0);
      EXPECT_EQ(fletcher16_extend_zeros(fletcher16(data), zeros),
                fletcher16(padded))
          << "len " << len << " zeros " << zeros;
    }
  }
}

}  // namespace
}  // namespace radar::codes
