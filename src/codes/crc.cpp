#include "codes/crc.h"

#include "codes/row_fold.h"
#include "common/cpu_features.h"
#include "common/error.h"

namespace radar::codes {

// Generator choices: primitive polynomials, so x has order 2^width - 1 and
// every double-bit error within that span yields a nonzero syndrome
// (HD >= 3). CRC-7 covers G=8 groups (64 bits << 127), CRC-10 covers
// MSB-only streams at G=512 (512 bits << 1023), CRC-13 covers full G=512
// groups (4096 bits << 8191) — exactly the configurations of Table V.
CrcSpec CrcSpec::crc7() { return {7, 0x65, "CRC-7"}; }
CrcSpec CrcSpec::crc10() { return {10, 0x009, "CRC-10"}; }
CrcSpec CrcSpec::crc13() { return {13, 0x001B, "CRC-13"}; }
CrcSpec CrcSpec::crc16_ccitt() { return {16, 0x1021, "CRC-16-CCITT"}; }
CrcSpec CrcSpec::crc32() { return {32, 0x04C11DB7, "CRC-32"}; }

Crc::Crc(const CrcSpec& spec) : spec_(spec) {
  RADAR_REQUIRE(spec.width >= 3 && spec.width <= 32, "CRC width 3..32");
  mask_ = spec.width == 32 ? 0xFFFFFFFFu
                           : ((1u << spec.width) - 1u);
  top_bit_ = 1u << (spec.width - 1);
  la_shift_ = 32 - spec.width;
  RADAR_REQUIRE((spec.poly & ~mask_) == 0, "polynomial wider than CRC");
  // Left-aligned tables: the register lives at bit 31, so the same byte
  // step — and the same tables — work for every width, including < 8
  // (which the old right-aligned table could not serve). tables_[0][b] is
  // one byte step from a zero register; tables_[k] advances tables_[k-1]
  // by one further zero-byte step, giving the slicing-by-8 kernel its
  // "byte b, k+1 steps ago" lookups.
  const std::uint32_t poly_la = spec.poly << la_shift_;
  tables_.resize(16 * 256);
  for (std::uint32_t byte = 0; byte < 256; ++byte) {
    std::uint32_t reg = byte << 24;
    for (int b = 0; b < 8; ++b)
      reg = (reg & 0x80000000u) ? (reg << 1) ^ poly_la : reg << 1;
    tables_[byte] = reg;
  }
  for (int k = 1; k < 16; ++k) {
    for (std::uint32_t byte = 0; byte < 256; ++byte) {
      const std::uint32_t prev = tables_[(k - 1) * 256 + byte];
      tables_[k * 256 + byte] = (prev << 8) ^ tables_[prev >> 24];
    }
  }
}

std::uint32_t Crc::compute_bitwise(std::span<const std::uint8_t> data) const {
  std::uint32_t reg = 0;
  for (const std::uint8_t byte : data) {
    for (int b = 7; b >= 0; --b) {
      const bool in_bit = (byte >> b) & 1u;
      const bool top = (reg & top_bit_) != 0;
      reg = (reg << 1) & mask_;
      if (top != in_bit) reg ^= spec_.poly;
    }
  }
  return reg;
}

std::uint32_t Crc::compute(std::span<const std::uint8_t> data) const {
  // The wider kernel is pure ILP (more independent table lookups per
  // iteration), so it rides the same dispatch switch as the true SIMD
  // kernels: scalar stays the differential reference, every wider tier
  // takes the 16-byte step. Both fold the identical polynomial algebra,
  // so results are bit-equal by construction (and tested).
  return cpu::active_level() == cpu::SimdLevel::kScalar
             ? compute_sliced8(data)
             : compute_sliced16(data);
}

std::uint32_t Crc::compute_sliced8(
    std::span<const std::uint8_t> data) const {
  const std::uint32_t* t = tables_.data();
  const std::uint8_t* d = data.data();
  std::size_t n = data.size();
  std::uint32_t reg = 0;  // left-aligned at bit 31
  // Slicing-by-8: fold 4 data bytes into the register, then advance all
  // twelve byte positions (4 register bytes + 8 data bytes) through their
  // per-distance tables in one XOR tree — 8 loads per 8 bytes instead of
  // 8 dependent byte steps.
  while (n >= 8) {
    reg ^= (static_cast<std::uint32_t>(d[0]) << 24) |
           (static_cast<std::uint32_t>(d[1]) << 16) |
           (static_cast<std::uint32_t>(d[2]) << 8) |
           static_cast<std::uint32_t>(d[3]);
    reg = t[7 * 256 + (reg >> 24)] ^ t[6 * 256 + ((reg >> 16) & 0xFFu)] ^
          t[5 * 256 + ((reg >> 8) & 0xFFu)] ^ t[4 * 256 + (reg & 0xFFu)] ^
          t[3 * 256 + d[4]] ^ t[2 * 256 + d[5]] ^ t[1 * 256 + d[6]] ^
          t[0 * 256 + d[7]];
    d += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++d) reg = (reg << 8) ^ t[(reg >> 24) ^ *d];
  return reg >> la_shift_;
}

std::uint32_t Crc::compute_sliced16(
    std::span<const std::uint8_t> data) const {
  const std::uint32_t* t = tables_.data();
  const std::uint8_t* d = data.data();
  std::size_t n = data.size();
  std::uint32_t reg = 0;  // left-aligned at bit 31
  // Slicing-by-16: a byte j positions before the end of the step needs
  // j-1 further zero-byte advances, hence table j-1 — the 4 register
  // bytes land in tables 15..12, the remaining 12 data bytes in 11..0.
  while (n >= 16) {
    reg ^= (static_cast<std::uint32_t>(d[0]) << 24) |
           (static_cast<std::uint32_t>(d[1]) << 16) |
           (static_cast<std::uint32_t>(d[2]) << 8) |
           static_cast<std::uint32_t>(d[3]);
    reg = t[15 * 256 + (reg >> 24)] ^ t[14 * 256 + ((reg >> 16) & 0xFFu)] ^
          t[13 * 256 + ((reg >> 8) & 0xFFu)] ^ t[12 * 256 + (reg & 0xFFu)] ^
          t[11 * 256 + d[4]] ^ t[10 * 256 + d[5]] ^ t[9 * 256 + d[6]] ^
          t[8 * 256 + d[7]] ^ t[7 * 256 + d[8]] ^ t[6 * 256 + d[9]] ^
          t[5 * 256 + d[10]] ^ t[4 * 256 + d[11]] ^ t[3 * 256 + d[12]] ^
          t[2 * 256 + d[13]] ^ t[1 * 256 + d[14]] ^ t[0 * 256 + d[15]];
    d += 16;
    n -= 16;
  }
  for (; n > 0; --n, ++d) reg = (reg << 8) ^ t[(reg >> 24) ^ *d];
  return reg >> la_shift_;
}

std::uint32_t Crc::extend_zeros(std::uint32_t crc, std::int64_t zeros) const {
  RADAR_REQUIRE(zeros >= 0, "negative zero count");
  const std::uint32_t* t = tables_.data();
  // The left-aligned register's low la_shift_ bits are always zero.
  std::uint32_t reg = crc << la_shift_;
  for (; zeros >= 16; zeros -= 16)
    reg = t[15 * 256 + (reg >> 24)] ^ t[14 * 256 + ((reg >> 16) & 0xFFu)] ^
          t[13 * 256 + ((reg >> 8) & 0xFFu)] ^ t[12 * 256 + (reg & 0xFFu)];
  for (; zeros > 0; --zeros) reg = (reg << 8) ^ t[reg >> 24];
  return reg >> la_shift_;
}

void Crc::fold(std::span<std::uint32_t> regs,
               std::span<const std::uint8_t* const> rows) const {
  const std::uint32_t* t = tables_.data();
  std::uint32_t* reg = regs.data();
  const std::size_t n = regs.size();
  for_each_row_run(
      rows,
      [&](std::size_t j) {
        // Eight rows are one slicing-by-8 step of compute_sliced8, with
        // block k's 8 bytes read down the rows instead of along a buffer.
        static_assert(kFusedRows == 8);
        const std::uint8_t* const* d = rows.data() + j;
        for (std::size_t k = 0; k < n; ++k) {
          const std::uint32_t x =
              reg[k] ^ ((static_cast<std::uint32_t>(d[0][k]) << 24) |
                        (static_cast<std::uint32_t>(d[1][k]) << 16) |
                        (static_cast<std::uint32_t>(d[2][k]) << 8) |
                        static_cast<std::uint32_t>(d[3][k]));
          reg[k] = t[7 * 256 + (x >> 24)] ^ t[6 * 256 + ((x >> 16) & 0xFFu)] ^
                   t[5 * 256 + ((x >> 8) & 0xFFu)] ^ t[4 * 256 + (x & 0xFFu)] ^
                   t[3 * 256 + d[4][k]] ^ t[2 * 256 + d[5][k]] ^
                   t[1 * 256 + d[6][k]] ^ t[0 * 256 + d[7][k]];
        }
      },
      [&](std::size_t j) {
        const std::uint8_t* d = rows[j];
        for (std::size_t k = 0; k < n; ++k)
          reg[k] = (reg[k] << 8) ^ t[(reg[k] >> 24) ^ d[k]];
      });
}

std::uint32_t Crc::compute_i8(std::span<const std::int8_t> data) const {
  return compute(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

}  // namespace radar::codes
