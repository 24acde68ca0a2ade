// Cyclic redundancy checks with Koopman-selected polynomials.
//
// Baseline for the paper's Table V: CRC-7 / CRC-10 / CRC-13 achieve HD=3
// at the relevant block lengths (Koopman & Chakravarty, DSN'04) but cost
// `width` bits of storage per group and a bit-serial (or table-driven)
// pass over every byte. Both engines are provided; they produce identical
// codes (tested), the table engine being the fast path.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace radar::codes {

/// A CRC configuration. `poly` is the normal-form polynomial without the
/// implicit leading x^width term.
struct CrcSpec {
  int width = 13;
  std::uint32_t poly = 0x1CF5;
  std::string name = "CRC-13";

  // Presets used by the paper's comparison.
  static CrcSpec crc7();   ///< 0x65 — HD=3 to 56+ data bits (G=8 bytes)
  static CrcSpec crc10();  ///< 0x327 — MSB-only protection alternative
  static CrcSpec crc13();  ///< 0x1CF5 — HD=3 at 4096 data bits (G=512)
  static CrcSpec crc16_ccitt();
  static CrcSpec crc32();
};

class Crc {
 public:
  explicit Crc(const CrcSpec& spec);

  const CrcSpec& spec() const { return spec_; }

  /// Bit-serial reference implementation (MSB-first).
  std::uint32_t compute_bitwise(std::span<const std::uint8_t> data) const;

  /// Fast path; equals compute_bitwise. Works on a left-aligned (bit-31)
  /// register so one 16x256 table set serves every width 3..32 — narrow
  /// CRCs included. Dispatches on cpu::active_level(): the scalar tier
  /// consumes 8 bytes per step (slicing-by-8); wider tiers consume 16
  /// (slicing-by-16 — a wider independent-XOR tree for machines with the
  /// load ports to retire it, not lane-parallel SIMD: CRC's serial
  /// dependence leaves ILP as the lever).
  std::uint32_t compute(std::span<const std::uint8_t> data) const;

  /// Convenience for int8 weight groups.
  std::uint32_t compute_i8(std::span<const std::int8_t> data) const;

  /// CRC of the data `crc` was computed over followed by `zeros` zero
  /// bytes, without touching them: 16 zero bytes cost one slicing-by-16
  /// step with no data lookups.
  std::uint32_t extend_zeros(std::uint32_t crc, std::int64_t zeros) const;

  /// Row-streaming form: regs[k] is one block's left-aligned register
  /// (start at 0), advanced by rows.size() bytes in order: rows[j][k] is
  /// regs[k]'s j-th byte. Folding all of a block's bytes and then calling
  /// finish() equals compute() over it.
  void fold(std::span<std::uint32_t> regs,
            std::span<const std::uint8_t* const> rows) const;
  /// Check word of a folded register.
  std::uint32_t finish(std::uint32_t reg) const { return reg >> la_shift_; }

  /// Storage bits per protected group.
  int storage_bits() const { return spec_.width; }

 private:
  CrcSpec spec_;
  std::uint32_t mask_;
  std::uint32_t top_bit_;
  int la_shift_;  ///< 32 - width: left-alignment shift of the register
  /// tables_[k][b]: byte b advanced through k+1 zero-byte steps,
  /// left-aligned. tables_[0] is the classic byte-at-a-time table;
  /// tables_[1..7] feed the slicing-by-8 kernel, tables_[8..15] the
  /// slicing-by-16 kernel.
  std::vector<std::uint32_t> tables_;

  std::uint32_t compute_sliced8(std::span<const std::uint8_t> data) const;
  std::uint32_t compute_sliced16(std::span<const std::uint8_t> data) const;
};

}  // namespace radar::codes
