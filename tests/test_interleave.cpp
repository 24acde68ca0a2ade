// GroupLayout: bijection properties, interleaving stride, padding
// behaviour — parameterized over (W, G, skew).
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/interleave.h"

namespace radar::core {
namespace {

class LayoutSweep : public ::testing::TestWithParam<
                        std::tuple<std::int64_t, std::int64_t, std::int64_t,
                                   bool>> {};

TEST_P(LayoutSweep, EveryWeightInExactlyOneGroupSlot) {
  const auto [w, g, skew, inter] = GetParam();
  const GroupLayout layout = inter ? GroupLayout::interleaved(w, g, skew)
                                   : GroupLayout::contiguous(w, g);
  std::set<std::int64_t> seen;
  for (std::int64_t grp = 0; grp < layout.num_groups(); ++grp) {
    for (const std::int64_t i : layout.group_members(grp)) {
      EXPECT_TRUE(seen.insert(i).second) << "index " << i << " repeated";
      EXPECT_GE(i, 0);
      EXPECT_LT(i, w);
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), w);
}

TEST_P(LayoutSweep, GroupOfAndMemberAreInverse) {
  const auto [w, g, skew, inter] = GetParam();
  const GroupLayout layout = inter ? GroupLayout::interleaved(w, g, skew)
                                   : GroupLayout::contiguous(w, g);
  for (std::int64_t i = 0; i < w; ++i) {
    const std::int64_t grp = layout.group_of(i);
    const std::int64_t slot = layout.slot_of(i);
    EXPECT_GE(grp, 0);
    EXPECT_LT(grp, layout.num_groups());
    EXPECT_EQ(layout.member(grp, slot), i);
  }
}

TEST_P(LayoutSweep, GroupSizesBounded) {
  const auto [w, g, skew, inter] = GetParam();
  const GroupLayout layout = inter ? GroupLayout::interleaved(w, g, skew)
                                   : GroupLayout::contiguous(w, g);
  for (std::int64_t grp = 0; grp < layout.num_groups(); ++grp) {
    const auto members = layout.group_members(grp);
    EXPECT_LE(static_cast<std::int64_t>(members.size()), g);
    EXPECT_GE(members.size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutSweep,
    ::testing::Values(
        // W, G, skew, interleaved
        std::make_tuple(128, 16, 3, true), std::make_tuple(128, 16, 0, true),
        std::make_tuple(128, 16, 3, false), std::make_tuple(100, 8, 3, true),
        std::make_tuple(100, 8, 3, false), std::make_tuple(7, 3, 3, true),
        std::make_tuple(1, 1, 3, true), std::make_tuple(513, 512, 3, true),
        std::make_tuple(512, 512, 3, true), std::make_tuple(512, 1024, 3, true),
        std::make_tuple(4096, 64, 7, true), std::make_tuple(4097, 64, 3, true),
        std::make_tuple(270896, 512, 3, true),
        std::make_tuple(65536, 256, 5, false)));

TEST(GroupLayout, ContiguousGroupsAreRuns) {
  const GroupLayout layout = GroupLayout::contiguous(64, 8);
  EXPECT_EQ(layout.num_groups(), 8);
  const auto members = layout.group_members(2);
  ASSERT_EQ(members.size(), 8u);
  for (std::int64_t s = 0; s < 8; ++s) EXPECT_EQ(members[s], 16 + s);
}

TEST(GroupLayout, BasicInterleaveMatchesPaperFigure3) {
  // Fig. 3: 128 weights, stride-8 basic interleave (skew 0): group 0 holds
  // weights 0, 8, 16, ..., 120. In our parameterization that layout is
  // W = 128, G = 16 (16 groups of 8... 8 groups of 16): Ng = 8 groups,
  // members Ng apart.
  const GroupLayout layout = GroupLayout::interleaved(128, 16, /*skew=*/0);
  EXPECT_EQ(layout.num_groups(), 8);
  const auto members = layout.group_members(0);
  ASSERT_EQ(members.size(), 16u);
  for (std::size_t l = 0; l < members.size(); ++l)
    EXPECT_EQ(members[l], static_cast<std::int64_t>(l) * 8);
}

TEST(GroupLayout, InterleavedMembersAreFarApart) {
  // The defining property: consecutive members of a group are ~Ng apart,
  // so adjacent original weights never share a group (when Ng > skew+1).
  const GroupLayout layout = GroupLayout::interleaved(4096, 64, 3);
  const std::int64_t ng = layout.num_groups();
  ASSERT_EQ(ng, 64);
  for (std::int64_t grp = 0; grp < ng; grp += 7) {
    const auto members = layout.group_members(grp);
    for (std::size_t a = 1; a < members.size(); ++a) {
      const std::int64_t gap = members[a] - members[a - 1];
      EXPECT_GE(std::abs(gap), ng - 3 - 1);
    }
  }
}

TEST(GroupLayout, AdjacentWeightsInDifferentGroups) {
  const GroupLayout layout = GroupLayout::interleaved(4096, 64, 3);
  for (std::int64_t i = 0; i + 1 < 4096; ++i)
    EXPECT_NE(layout.group_of(i), layout.group_of(i + 1)) << "at " << i;
}

TEST(GroupLayout, SkewChangesAssignment) {
  const GroupLayout a = GroupLayout::interleaved(1024, 32, 0);
  const GroupLayout b = GroupLayout::interleaved(1024, 32, 3);
  int diffs = 0;
  for (std::int64_t i = 0; i < 1024; ++i)
    if (a.group_of(i) != b.group_of(i)) ++diffs;
  EXPECT_GT(diffs, 512);
}

TEST(GroupLayout, PaddingSlotsReportedAsMissing) {
  // 10 weights, groups of 4 -> 3 groups, 2 padding slots.
  const GroupLayout layout = GroupLayout::contiguous(10, 4);
  EXPECT_EQ(layout.num_groups(), 3);
  EXPECT_EQ(layout.member(2, 0), 8);
  EXPECT_EQ(layout.member(2, 1), 9);
  EXPECT_EQ(layout.member(2, 2), -1);
  EXPECT_EQ(layout.member(2, 3), -1);
}

class MemberWalk : public ::testing::TestWithParam<
                       std::tuple<std::int64_t, std::int64_t, std::int64_t>> {
};

TEST_P(MemberWalk, ForEachMemberYieldsExactlyMember) {
  const auto [w, g, skew] = GetParam();
  for (const bool inter : {false, true}) {
    const GroupLayout layout = inter ? GroupLayout::interleaved(w, g, skew)
                                     : GroupLayout::contiguous(w, g);
    for (std::int64_t grp = 0; grp < layout.num_groups(); ++grp) {
      std::int64_t expected_slot = 0;
      layout.for_each_member(grp, [&](std::int64_t slot, std::int64_t i) {
        EXPECT_EQ(slot, expected_slot++);
        EXPECT_EQ(i, layout.member(grp, slot))
            << (inter ? "interleaved" : "contiguous") << " W=" << w
            << " G=" << g << " skew=" << skew << " group " << grp
            << " slot " << slot;
      });
      EXPECT_EQ(expected_slot, g);
    }
    EXPECT_THROW(layout.for_each_member(-1, [](auto, auto) {}),
                 InvalidArgument);
    EXPECT_THROW(
        layout.for_each_member(layout.num_groups(), [](auto, auto) {}),
        InvalidArgument);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Walks, MemberWalk,
    ::testing::Values(
        // W, G, skew
        std::make_tuple(128, 16, 3),   // W % G == 0
        std::make_tuple(100, 8, 3),    // W % G != 0: padding in the last row
        std::make_tuple(5, 4, 3),      // Ng = 2 <= skew
        std::make_tuple(9, 4, 7),      // Ng = 3, skew wraps twice
        std::make_tuple(6, 8, 3),      // Ng == 1, padding slots
        std::make_tuple(8, 8, 0),      // Ng == 1, skew 0
        std::make_tuple(7, 1, 3),      // G == 1
        std::make_tuple(4097, 64, 5),  // large, one padding-heavy row
        std::make_tuple(270896, 512, 3)));

TEST(GroupLayout, InvalidArgumentsThrow) {
  EXPECT_THROW(GroupLayout::contiguous(0, 8), InvalidArgument);
  EXPECT_THROW(GroupLayout::contiguous(8, 0), InvalidArgument);
  EXPECT_THROW(GroupLayout::interleaved(8, 4, -1), InvalidArgument);
  const GroupLayout l = GroupLayout::contiguous(8, 4);
  EXPECT_THROW(l.group_of(8), InvalidArgument);
  EXPECT_THROW(l.member(2, 0), InvalidArgument);
  EXPECT_THROW(l.member(0, 4), InvalidArgument);
}

}  // namespace
}  // namespace radar::core
