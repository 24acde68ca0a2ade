// Hamming SEC-DED code over a block of data bits.
//
// The second baseline in the paper's §VII.B comparison: r parity bits with
// 2^r >= m + r + 1 plus one overall parity bit give single-error
// correction + double-error detection. For G = 8 weights (64 data bits)
// that is 7+1 bits; for G = 512 (4096 bits), 13+1 bits.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace radar::codes {

/// Outcome of a SEC-DED check.
struct SecDedResult {
  bool ok = false;             ///< no error detected
  bool corrected = false;      ///< single error found (and correctable)
  bool double_error = false;   ///< uncorrectable double error detected
  std::int64_t error_bit = -1; ///< data/parity position of a single error
};

class HammingSecDed {
 public:
  /// Code over `data_bits` payload bits.
  explicit HammingSecDed(std::int64_t data_bits);

  std::int64_t data_bits() const { return data_bits_; }
  /// Hamming parity bits (excluding the overall parity bit).
  int parity_bits() const { return parity_bits_; }
  /// Total stored check bits per block (parity + overall).
  int storage_bits() const { return parity_bits_ + 1; }

  /// Parity bits needed for m data bits (static helper for overhead
  /// tables).
  static int parity_bits_for(std::int64_t data_bits);

  /// Encode: returns the check word (parity bits | overall parity at MSB).
  /// Data bits past the end of `data` read as zero, so a short buffer is
  /// a zero-padded block; bytes past data_bits are ignored.
  std::uint32_t encode(std::span<const std::uint8_t> data) const;

  /// Check data against a stored check word (`data` read as in encode).
  SecDedResult check(std::span<const std::uint8_t> data,
                     std::uint32_t stored_check) const;

  /// Convenience for int8 weight groups.
  std::uint32_t encode_i8(std::span<const std::int8_t> data) const;
  SecDedResult check_i8(std::span<const std::int8_t> data,
                        std::uint32_t stored_check) const;

  /// 1-based codeword position of data bit i, in O(1): the (i+1)-th
  /// position that is not a power of two.
  static std::int64_t data_bit_position(std::int64_t i);

  /// Row-streaming form. A block's fold state (start at 0) holds its data
  /// syndrome in bits 0..30 and its data parity in bit 31. Both are linear
  /// over GF(2), so byte b at byte index i adds lo[b & 15] ^ hi[b >> 4] of
  /// that index's ByteTerms.
  struct ByteTerms {
    std::uint32_t lo[16], hi[16];
  };
  ByteTerms byte_terms(std::int64_t byte_index) const;
  /// Advances states[k] by rows.size() bytes of its block: rows[j][k] is
  /// its byte at the index terms[j] was built for. Folding all of a
  /// block's bytes and then calling finish() equals encode() over it.
  void fold(std::span<std::uint32_t> states,
            std::span<const std::uint8_t* const> rows,
            const ByteTerms* terms) const;
  /// Check word of a folded state. As in encode(), the overall parity
  /// covers data and parity bits.
  std::uint32_t finish(std::uint32_t state) const {
    const std::uint32_t syndrome = state & 0x7FFFFFFFu;
    const auto syndrome_parity =
        static_cast<std::uint32_t>(std::popcount(syndrome)) & 1u;
    return syndrome | (((state >> 31) ^ syndrome_parity) << parity_bits_);
  }

 private:
  bool data_bit(std::span<const std::uint8_t> data, std::int64_t i) const {
    return (data[static_cast<std::size_t>(i >> 3)] >> (i & 7)) & 1u;
  }
  std::uint32_t syndrome_and_parity(std::span<const std::uint8_t> data,
                                    bool& overall) const;

  std::int64_t data_bits_;
  int parity_bits_;
};

}  // namespace radar::codes
