// Additional checksums from the Maxino taxonomy (ref [17] of the paper):
// Fletcher-16/32 and the plain two's-complement addition checksum RADAR's
// scheme is built on. Used for ablation benches comparing detection
// strength vs cost across checksum families.
#pragma once

#include <cstdint>
#include <span>

namespace radar::codes {

/// Plain two's-complement addition checksum (mod 2^width).
std::uint32_t addition_checksum(std::span<const std::uint8_t> data,
                                int width);

/// Fletcher-16: two running 8-bit one's-complement sums.
std::uint16_t fletcher16(std::span<const std::uint8_t> data);

/// Fletcher-16 of the data `sum` was computed over followed by `zeros`
/// zero bytes: a zero byte keeps a and adds a to b, so b grows by
/// zeros * a (mod 255).
std::uint16_t fletcher16_extend_zeros(std::uint16_t sum, std::int64_t zeros);

/// Row-streaming Fletcher-16. states[k] holds one block's running sums
/// (start at 0): a in bits 0..15, b in bits 16..31. Each is advanced by
/// rows.size() bytes in order: rows[j][k] is states[k]'s j-th byte.
/// Folding all of a block's bytes and then calling fletcher16_finish()
/// equals fletcher16() over it.
void fletcher16_fold(std::span<std::uint32_t> states,
                     std::span<const std::uint8_t* const> rows);
inline std::uint16_t fletcher16_finish(std::uint32_t state) {
  return static_cast<std::uint16_t>(((state >> 16) << 8) | (state & 0xFFu));
}

/// Fletcher-32 over 16-bit words (odd trailing byte zero-padded).
std::uint32_t fletcher32(std::span<const std::uint8_t> data);

}  // namespace radar::codes
