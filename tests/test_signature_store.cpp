// PackedWordStore, the golden-word store of every scheme: bit-packing
// round trips at every width from 1 to 32 (RADAR's 2/3-bit signatures
// included), the packed byte format against a bit-by-bit reference, the
// bulk golden compare against per-group reads, and storage accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/signature_store.h"

namespace radar::core {
namespace {

TEST(PackedWordStore, StorageBytesRoundUp) {
  EXPECT_EQ(PackedWordStore(4, 2).storage_bytes(), 1);    // 8 bits
  EXPECT_EQ(PackedWordStore(5, 2).storage_bytes(), 2);    // 10 bits
  EXPECT_EQ(PackedWordStore(8, 3).storage_bytes(), 3);    // 24 bits
  EXPECT_EQ(PackedWordStore(3, 13).storage_bytes(), 5);   // 39 bits
  EXPECT_EQ(PackedWordStore(0, 2).storage_bytes(), 0);
}

// Reference for the packed format: word g's bit b is stream bit
// g*width + b, stored as bit (pos % 8) of byte pos / 8 (LSB first).
std::vector<std::uint8_t> reference_pack(
    const std::vector<std::uint32_t>& words, int width) {
  std::vector<std::uint8_t> bytes((words.size() * width + 7) / 8, 0);
  for (std::size_t g = 0; g < words.size(); ++g)
    for (int b = 0; b < width; ++b)
      if ((words[g] >> b) & 1u) {
        const std::size_t pos = g * static_cast<std::size_t>(width) + b;
        bytes[pos / 8] = static_cast<std::uint8_t>(bytes[pos / 8] |
                                                   (1u << (pos % 8)));
      }
  return bytes;
}

std::vector<std::uint32_t> reference_unpack(
    const std::vector<std::uint8_t>& bytes, std::size_t n, int width) {
  std::vector<std::uint32_t> words(n, 0);
  for (std::size_t g = 0; g < n; ++g)
    for (int b = 0; b < width; ++b) {
      const std::size_t pos = g * static_cast<std::size_t>(width) + b;
      if ((bytes[pos / 8] >> (pos % 8)) & 1u) words[g] |= 1u << b;
    }
  return words;
}

std::uint32_t width_mask(int width) {
  return width == 32 ? 0xFFFFFFFFu : (1u << width) - 1u;
}

// Group counts include 8 (and 1 for byte-multiple widths), where the last
// word ends exactly on the last byte, so a read past it trips ASan.
const std::int64_t kGroupCounts[] = {1, 3, 8, 13, 64, 257};

class PackedWidth : public ::testing::TestWithParam<int> {};

TEST_P(PackedWidth, RoundTripsAndMatchesReferenceFormat) {
  const int width = GetParam();
  for (const std::int64_t n : kGroupCounts) {
    PackedWordStore store(n, width);
    Rng rng(static_cast<std::uint64_t>(width * 1000 + n));
    std::vector<std::uint32_t> words(static_cast<std::size_t>(n));
    // Two passes: the second overwrites every word, so set() must clear
    // the old bits as well as set the new ones.
    for (int pass = 0; pass < 2; ++pass)
      for (std::int64_t g = 0; g < n; ++g) {
        auto& w = words[static_cast<std::size_t>(g)];
        w = static_cast<std::uint32_t>(rng.bits()) & width_mask(width);
        store.set(g, w);
      }
    for (std::int64_t g = 0; g < n; ++g)
      ASSERT_EQ(store.get(g), words[static_cast<std::size_t>(g)])
          << "width " << width << " groups " << n << " group " << g;
    EXPECT_EQ(store.packed(), reference_pack(words, width))
        << "width " << width << " groups " << n;
  }
}

TEST_P(PackedWidth, SetPackedDecodesLikeReference) {
  const int width = GetParam();
  for (const std::int64_t n : kGroupCounts) {
    PackedWordStore store(n, width);
    Rng rng(static_cast<std::uint64_t>(width * 7919 + n));
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(store.storage_bytes()));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.bits());
    const auto expected =
        reference_unpack(bytes, static_cast<std::size_t>(n), width);
    store.set_packed(bytes);
    for (std::int64_t g = 0; g < n; ++g)
      ASSERT_EQ(store.get(g), expected[static_cast<std::size_t>(g)])
          << "width " << width << " groups " << n << " group " << g;
  }
}

// The bulk compare must agree with per-group get() for every start offset
// mod 8 (every bit phase of the 8-byte loads), for runs ending at the last
// group (the byte-loop tail near the end of the packed bytes), for the
// empty run, and must report planted mismatches in ascending order.
TEST_P(PackedWidth, AppendMismatchesMatchesPerGroupGet) {
  const int width = GetParam();
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{13},
                               std::int64_t{64}, std::int64_t{257}}) {
    PackedWordStore store(n, width);
    Rng rng(static_cast<std::uint64_t>(width * 31 + n));
    for (std::int64_t g = 0; g < n; ++g)
      store.set(g, static_cast<std::uint32_t>(rng.bits()) & width_mask(width));
    for (std::int64_t first = 0; first < std::min<std::int64_t>(n, 8);
         ++first) {
      for (const std::int64_t last : {first, std::min(first + 5, n), n}) {
        std::vector<std::uint32_t> words;
        for (std::int64_t g = first; g < last; ++g)
          words.push_back(store.get(g));
        // Plant a mismatch at every third word of the run.
        std::size_t planted = 0;
        for (std::size_t k = 0; k < words.size(); k += 3, ++planted)
          words[k] ^= 1u << (k % static_cast<std::size_t>(width));
        std::vector<std::int64_t> expected = {-1};
        for (std::int64_t g = first; g < last; ++g)
          if (store.get(g) != words[static_cast<std::size_t>(g - first)])
            expected.push_back(g);
        ASSERT_EQ(expected.size(), planted + 1);
        std::vector<std::int64_t> got = {-1};  // appended to, not cleared
        store.append_mismatches(first, words, got);
        ASSERT_EQ(got, expected) << "width " << width << " groups " << n
                                 << " run [" << first << ", " << last << ")";
      }
    }
    std::vector<std::int64_t> none;
    store.append_mismatches(n, {}, none);
    EXPECT_TRUE(none.empty());
    const std::vector<std::uint32_t> two(2, 0u);
    EXPECT_THROW(store.append_mismatches(n - 1, two, none), InvalidArgument);
    EXPECT_THROW(store.append_mismatches(-1, {}, none), InvalidArgument);
    EXPECT_THROW(store.append_mismatches(n + 1, {}, none), InvalidArgument);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, PackedWidth, ::testing::Range(1, 33));

TEST(PackedWordStore, RangeChecks) {
  PackedWordStore store(4, 13);
  EXPECT_THROW(store.set(4, 0), InvalidArgument);
  EXPECT_THROW(store.get(-1), InvalidArgument);
  EXPECT_THROW(store.set(0, 1u << 13), InvalidArgument);
  EXPECT_THROW(store.set_packed(std::vector<std::uint8_t>(6)),
               InvalidArgument);
  EXPECT_THROW(PackedWordStore(4, 0), InvalidArgument);
  EXPECT_THROW(PackedWordStore(4, 33), InvalidArgument);
}

}  // namespace
}  // namespace radar::core
