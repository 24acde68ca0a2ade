#include "core/signature_store.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace radar::core {

// append_mismatches reads stored words with native 8-byte loads, which
// match the LSB-first stream format only on a little-endian host.
static_assert(std::endian::native == std::endian::little);

PackedWordStore::PackedWordStore(std::int64_t num_groups, int width)
    : num_groups_(num_groups), width_(width) {
  RADAR_REQUIRE(num_groups >= 0, "negative group count");
  RADAR_REQUIRE(width >= 1 && width <= 32,
                "code word width must be in [1, 32]");
  bits_.assign(static_cast<std::size_t>((num_groups * width + 7) / 8), 0);
}

void PackedWordStore::set(std::int64_t group, std::uint32_t word) {
  RADAR_REQUIRE(group >= 0 && group < num_groups_, "group out of range");
  RADAR_REQUIRE(width_ == 32 || word < (1u << width_),
                "code word exceeds store width");
  const std::int64_t pos = group * width_;
  const int shift = static_cast<int>(pos & 7);
  std::uint64_t v = load_span(pos);
  v = (v & ~(word_mask() << shift)) | (std::uint64_t{word} << shift);
  std::uint8_t* p = bits_.data() + (pos >> 3);
  for (int k = 0, n = span_bytes(pos); k < n; ++k)
    p[k] = static_cast<std::uint8_t>(v >> (8 * k));
}

void PackedWordStore::append_mismatches(
    std::int64_t first, std::span<const std::uint32_t> words,
    std::vector<std::int64_t>& mismatches) const {
  const auto n = static_cast<std::int64_t>(words.size());
  RADAR_REQUIRE(first >= 0 && first <= num_groups_ && n <= num_groups_ - first,
                "group range out of bounds");
  const std::uint64_t mask = word_mask();
  // Groups whose first byte lies at least 8 bytes before the end take one
  // unaligned 8-byte load; the last few take the bounded byte loop.
  const auto nbytes = static_cast<std::int64_t>(bits_.size());
  const std::int64_t wide_end =
      nbytes < 8 ? 0 : ((nbytes - 8) * 8 + 7) / width_ + 1;
  const std::int64_t n_wide = std::clamp<std::int64_t>(wide_end - first, 0, n);
  const std::uint8_t* bytes = bits_.data();
  std::int64_t pos = first * width_;
  std::int64_t k = 0;
  for (; k < n_wide; ++k, pos += width_) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes + (pos >> 3), sizeof v);
    if (((v >> (pos & 7)) & mask) != words[static_cast<std::size_t>(k)])
      mismatches.push_back(first + k);
  }
  for (; k < n; ++k, pos += width_) {
    if (((load_span(pos) >> (pos & 7)) & mask) !=
        words[static_cast<std::size_t>(k)])
      mismatches.push_back(first + k);
  }
}

void PackedWordStore::set_packed(std::vector<std::uint8_t> bytes) {
  RADAR_REQUIRE(static_cast<std::int64_t>(bytes.size()) == storage_bytes(),
                "packed code word size mismatch");
  bits_ = std::move(bytes);
}

}  // namespace radar::core
