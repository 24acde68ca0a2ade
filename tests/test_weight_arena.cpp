// WeightArena: contiguous storage geometry, span plumbing, global-index
// mapping, one-memcpy snapshots, and the QuantizedModel arena contract
// (baseline compares, load_weights, dirty tracking interplay).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "common/bits.h"
#include "common/rng.h"
#include "quant/qmodel.h"
#include "quant/weight_arena.h"

namespace radar::quant {
namespace {

nn::ResNetSpec tiny_spec() {
  nn::ResNetSpec s;
  s.num_classes = 4;
  s.base_width = 8;
  s.blocks_per_stage = {1, 1};
  s.name = "tiny";
  return s;
}

TEST(WeightArena, OffsetsAreAlignedAndNonOverlapping) {
  WeightArena arena = WeightArena::build({{"a", 0, 7, 1.0f},
                                          {"b", 0, 64, 1.0f},
                                          {"c", 0, 1, 1.0f},
                                          {"d", 0, 100, 1.0f}});
  ASSERT_EQ(arena.num_layers(), 4u);
  std::int64_t prev_end = 0;
  for (std::size_t i = 0; i < arena.num_layers(); ++i) {
    const ArenaLayer& l = arena.layer(i);
    EXPECT_EQ(l.offset % kArenaAlignment, 0) << i;
    EXPECT_GE(l.offset, prev_end) << i;
    prev_end = l.offset + l.size;
  }
  EXPECT_EQ(arena.total_weights(), 7 + 64 + 1 + 100);
  EXPECT_GE(arena.size_bytes(), prev_end);
  EXPECT_EQ(arena.size_bytes() % kArenaAlignment, 0);
  // Span base pointers inherit the alignment.
  for (std::size_t i = 0; i < arena.num_layers(); ++i)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.span(i).data()) %
                  static_cast<std::uintptr_t>(kArenaAlignment),
              0u)
        << i;
}

TEST(WeightArena, BuildIsDeterministicGivenSizes) {
  const auto a = WeightArena::build({{"x", 0, 33, 1.0f}, {"y", 0, 5, 2.0f}});
  const auto b = WeightArena::build({{"p", 0, 33, 9.0f}, {"q", 0, 5, 1.0f}});
  for (std::size_t i = 0; i < a.num_layers(); ++i) {
    EXPECT_EQ(a.layer(i).offset, b.layer(i).offset);
    EXPECT_EQ(a.layer(i).size, b.layer(i).size);
  }
  EXPECT_EQ(a.size_bytes(), b.size_bytes());
}

TEST(WeightArena, BlobStartsZeroedIncludingPadding) {
  WeightArena arena = WeightArena::build({{"a", 0, 3, 1.0f},
                                          {"b", 0, 5, 1.0f}});
  for (const std::int8_t v : arena.bytes()) EXPECT_EQ(v, 0);
}

TEST(WeightArena, GlobalIndexRoundTrips) {
  WeightArena arena = WeightArena::build({{"a", 0, 7, 1.0f},
                                          {"b", 0, 0, 1.0f},   // empty layer
                                          {"c", 0, 64, 1.0f},
                                          {"d", 0, 9, 1.0f}});
  std::int64_t g = 0;
  for (std::size_t li = 0; li < arena.num_layers(); ++li) {
    for (std::int64_t i = 0; i < arena.layer(li).size; ++i, ++g) {
      EXPECT_EQ(arena.global_index(li, i), g);
      const auto [l2, i2] = arena.locate(g);
      EXPECT_EQ(l2, li);
      EXPECT_EQ(i2, i);
    }
  }
  EXPECT_EQ(g, arena.total_weights());
  EXPECT_THROW(arena.locate(-1), InvalidArgument);
  EXPECT_THROW(arena.locate(arena.total_weights()), InvalidArgument);
  EXPECT_THROW(arena.global_index(0, 7), InvalidArgument);
}

TEST(WeightArena, SnapshotCaptureAndEquality) {
  WeightArena arena = WeightArena::build({{"a", 0, 40, 1.0f},
                                          {"b", 0, 70, 1.0f}});
  Rng rng(3);
  for (auto& v : arena.span(0)) v = static_cast<std::int8_t>(rng.bits());
  for (auto& v : arena.span(1)) v = static_cast<std::int8_t>(rng.bits());
  ArenaSnapshot s1, s2;
  s1.capture(arena);
  s2.capture(arena);
  EXPECT_TRUE(s1 == s2);
  // Per-layer views of the snapshot equal the live spans.
  for (std::size_t li = 0; li < arena.num_layers(); ++li)
    EXPECT_TRUE(std::memcmp(s1.span(li).data(), arena.span(li).data(),
                            s1.span(li).size()) == 0);
  arena.span(1)[3] ^= 1;
  s2.capture(arena);
  EXPECT_FALSE(s1 == s2);
}

// ---- the QuantizedModel arena contract ----

class QuantArenaTest : public ::testing::Test {
 protected:
  QuantArenaTest() : rng_(29), model_(tiny_spec(), rng_), qm_(model_) {}

  Rng rng_;
  nn::ResNet model_;
  QuantizedModel qm_;
};

TEST_F(QuantArenaTest, LayerSpansAliasTheArena) {
  const WeightArena& arena = qm_.arena();
  ASSERT_EQ(arena.num_layers(), qm_.num_layers());
  for (std::size_t li = 0; li < qm_.num_layers(); ++li) {
    EXPECT_EQ(qm_.layer(li).q.data(), arena.span(li).data());
    EXPECT_EQ(qm_.layer(li).size(), arena.layer(li).size);
    EXPECT_EQ(qm_.layer(li).name, arena.layer(li).name);
    EXPECT_EQ(qm_.layer(li).scale, arena.layer(li).scale);
  }
  // Mutations through the model are visible through the arena view.
  const std::int8_t before = qm_.get_code(2, 5);
  qm_.flip_bit(2, 5, kMsb);
  EXPECT_EQ(arena.span(2)[5], radar::flip_bit(before, kMsb));
  qm_.flip_bit(2, 5, kMsb);
}

TEST_F(QuantArenaTest, GlobalIndexCoversEveryWeight) {
  EXPECT_EQ(qm_.global_index(0, 0), 0);
  const auto [last_layer, last_idx] = qm_.locate(qm_.total_weights() - 1);
  EXPECT_EQ(last_layer, qm_.num_layers() - 1);
  EXPECT_EQ(last_idx, qm_.layer(last_layer).size() - 1);
}

TEST_F(QuantArenaTest, DirtyMatchesBaselineUsesArenaBaseline) {
  qm_.set_dirty_tracking(true);
  EXPECT_TRUE(qm_.dirty_matches_baseline());
  const std::int8_t before = qm_.flip_bit(1, 7, kMsb);
  EXPECT_FALSE(qm_.dirty_matches_baseline());
  // A second write that lands back on the baseline value: matches again
  // even though the log is non-empty.
  qm_.set_code(1, 7, before);
  EXPECT_TRUE(qm_.dirty_matches_baseline());
  qm_.undo_dirty();
  EXPECT_TRUE(qm_.dirty_matches_baseline());
  qm_.set_dirty_tracking(false);
}

TEST_F(QuantArenaTest, ClearDirtyMovesTheBaseline) {
  qm_.set_dirty_tracking(true);
  qm_.flip_bit(0, 3, kMsb);
  qm_.clear_dirty();  // attacked state becomes the new baseline
  EXPECT_TRUE(qm_.dirty_matches_baseline());
  qm_.flip_bit(0, 3, kMsb);  // undo the flip -> now differs from baseline
  EXPECT_FALSE(qm_.dirty_matches_baseline());
  qm_.undo_dirty();
  qm_.set_dirty_tracking(false);
}

TEST_F(QuantArenaTest, LoadWeightsReplacesBlobAndScales) {
  const ArenaSnapshot snap = qm_.snapshot();
  std::vector<std::int8_t> blob(snap.bytes().begin(), snap.bytes().end());
  std::vector<float> scales;
  for (std::size_t li = 0; li < qm_.num_layers(); ++li)
    scales.push_back(qm_.layer(li).scale * 2.0f);
  blob[static_cast<std::size_t>(qm_.arena().layer(1).offset) + 4] ^= 0x40;
  qm_.load_weights(std::span<const std::int8_t>(blob.data(), blob.size()),
                   scales);
  EXPECT_EQ(qm_.layer(0).scale, scales[0]);
  EXPECT_EQ(qm_.arena().layer(0).scale, scales[0]);
  EXPECT_EQ(qm_.layer(1).q[4],
            static_cast<std::int8_t>(snap.span(1)[4] ^ 0x40));
  // Float mirror resynced against the new codes and scales.
  EXPECT_FLOAT_EQ(qm_.layer(0).param->value[0],
                  dequantize(qm_.layer(0).q[0], scales[0]));
  EXPECT_THROW(qm_.load_weights(
                   std::span<const std::int8_t>(blob.data(), blob.size() - 1),
                   scales),
               InvalidArgument);
}

// Every float of every layer's mirror is bit-equal to dequantize() of its
// code: what sync_layer writes, so a restore that re-dequantizes only the
// changed blocks leaves the mirror exactly as a whole-layer resync would.
void expect_mirror_matches_codes(const QuantizedModel& qm) {
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    const QuantLayer& l = qm.layer(li);
    for (std::int64_t i = 0; i < l.size(); ++i) {
      const float want = dequantize(l.q[static_cast<std::size_t>(i)], l.scale);
      const float got = l.param->value[i];
      ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << "layer " << li << " index " << i;
    }
  }
}

TEST_F(QuantArenaTest, SnapshotRestoreIsExact) {
  const ArenaSnapshot clean = qm_.snapshot();
  Rng rng(0xA5);
  for (int i = 0; i < 64; ++i) {
    const auto li = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(qm_.num_layers()) - 1));
    qm_.flip_bit(li, rng.uniform_int(0, qm_.layer(li).size() - 1),
                 static_cast<int>(rng.uniform_int(0, 7)));
  }
  EXPECT_FALSE(qm_.snapshot() == clean);
  qm_.restore(clean);
  EXPECT_TRUE(qm_.snapshot() == clean);
  expect_mirror_matches_codes(qm_);
}

// set_code writes, scattered over blocks (sparse path: a few 64-byte
// blocks per layer differ, the layer's last, possibly short, one too).
TEST_F(QuantArenaTest, SnapshotRestoreIsExactAfterSetCode) {
  const ArenaSnapshot clean = qm_.snapshot();
  Rng rng(0x5E7);
  for (std::size_t li = 0; li < qm_.num_layers(); ++li) {
    const std::int64_t n = qm_.layer(li).size();
    for (const std::int64_t i : {std::int64_t{0}, n / 2, n - 1,
                                 rng.uniform_int(0, n - 1)})
      qm_.set_code(li, i, static_cast<std::int8_t>(~qm_.get_code(li, i)));
  }
  EXPECT_FALSE(qm_.snapshot() == clean);
  qm_.restore(clean);
  EXPECT_TRUE(qm_.snapshot() == clean);
  expect_mirror_matches_codes(qm_);
}

// One layer changed at every byte (dense path: every block of the layer
// differs); the other layers are untouched.
TEST_F(QuantArenaTest, SnapshotRestoreIsExactAfterWholeLayerChange) {
  const ArenaSnapshot clean = qm_.snapshot();
  std::size_t big = 0;
  for (std::size_t li = 1; li < qm_.num_layers(); ++li)
    if (qm_.layer(li).size() > qm_.layer(big).size()) big = li;
  ASSERT_GT(qm_.layer(big).size(), 2 * kArenaAlignment);
  for (std::int64_t i = 0; i < qm_.layer(big).size(); ++i)
    qm_.set_code(big, i, static_cast<std::int8_t>(~qm_.get_code(big, i)));
  qm_.restore(clean);
  EXPECT_TRUE(qm_.snapshot() == clean);
  expect_mirror_matches_codes(qm_);
}

}  // namespace
}  // namespace radar::quant
