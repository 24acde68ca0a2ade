// Packed golden-code storage ("secure on-chip SRAM" in the paper).
//
// There is one packing, read and written by words: group g's `width`-bit
// word occupies stream bits [g*width, (g+1)*width), LSB first, where
// stream bit p is bit p % 8 of byte p / 8. A word of at most 32 bits
// spans at most 5 bytes, so get/set load or modify those bytes with one
// shift and mask instead of walking bits. IntegrityScheme keeps one
// PackedWordStore per layer for every scheme: RADAR's 2/3-bit signatures
// and the baseline codes' check words (up to 32 bits) alike.
// storage_bytes() is exactly the number the paper's Fig. 6 x-axis
// reports (5.6 KB for ResNet-18 at G = 512).
//
// A dense scan ends in one bulk golden compare, append_mismatches: the
// scheme computes the words of a contiguous run of groups into a buffer,
// and the store checks the run's bounds once, then reads each stored word
// with one unaligned 8-byte load (a word plus its bit offset is at most
// 39 bits), falling back to the byte loop only for the words within 8
// bytes of the end of the packed bytes.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"

namespace radar::core {

/// Bit-packed storage of one fixed-width code word per group: RADAR's
/// signatures and the baseline codes' check words (CRC-7..CRC-16,
/// Fletcher, Hamming SEC-DED).
class PackedWordStore {
 public:
  PackedWordStore() = default;
  /// `width` in [1, 32] bits per group.
  PackedWordStore(std::int64_t num_groups, int width);

  std::int64_t num_groups() const { return num_groups_; }
  int width() const { return width_; }

  void set(std::int64_t group, std::uint32_t word);
  std::uint32_t get(std::int64_t group) const {
    RADAR_REQUIRE(group >= 0 && group < num_groups_, "group out of range");
    const std::int64_t pos = group * width_;
    const std::uint64_t v = load_span(pos) >> (pos & 7);
    return static_cast<std::uint32_t>(v & word_mask());
  }

  /// Bulk golden compare: for every k, compares words[k] with the stored
  /// word of group first + k and appends first + k to `mismatches` when
  /// they differ, so the ids come out in ascending order. The run must
  /// lie inside the store (checked once, not per group).
  void append_mismatches(std::int64_t first,
                         std::span<const std::uint32_t> words,
                         std::vector<std::int64_t>& mismatches) const;

  /// Bytes needed to hold all words (bit-packed, rounded up).
  std::int64_t storage_bytes() const {
    return (num_groups_ * width_ + 7) / 8;
  }

  const std::vector<std::uint8_t>& packed() const { return bits_; }
  /// Replace the packed bytes (must match storage_bytes()).
  void set_packed(std::vector<std::uint8_t> bytes);

 private:
  std::uint64_t word_mask() const { return (std::uint64_t{1} << width_) - 1; }
  /// Bytes (at most 5) holding the word that starts at stream bit `pos`.
  int span_bytes(std::int64_t pos) const {
    return static_cast<int>(((pos & 7) + width_ + 7) >> 3);
  }
  /// Little-endian value of those bytes; never reads past the last one.
  std::uint64_t load_span(std::int64_t pos) const {
    const std::uint8_t* p = bits_.data() + (pos >> 3);
    std::uint64_t v = 0;
    for (int k = 0, n = span_bytes(pos); k < n; ++k)
      v |= std::uint64_t{p[k]} << (8 * k);
    return v;
  }

  std::int64_t num_groups_ = 0;
  int width_ = 0;
  std::vector<std::uint8_t> bits_;
};

}  // namespace radar::core
