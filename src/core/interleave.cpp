#include "core/interleave.h"

namespace radar::core {

namespace {
// Validates before the division so a zero group size cannot SIGFPE in the
// member initializer.
std::int64_t checked_group_count(std::int64_t w, std::int64_t g,
                                 std::int64_t skew) {
  RADAR_REQUIRE(w > 0, "layer must have weights");
  RADAR_REQUIRE(g > 0, "group size must be positive");
  RADAR_REQUIRE(skew >= 0, "skew must be non-negative");
  return (w + g - 1) / g;
}
}  // namespace

GroupLayout::GroupLayout(std::int64_t w, std::int64_t g, bool inter,
                         std::int64_t skew)
    : num_weights_(w),
      group_size_(g),
      num_groups_(checked_group_count(w, g, skew)),
      skew_(skew),
      interleaved_(inter) {}

GroupLayout GroupLayout::contiguous(std::int64_t num_weights,
                                    std::int64_t group_size) {
  return GroupLayout(num_weights, group_size, /*inter=*/false, /*skew=*/0);
}

GroupLayout GroupLayout::interleaved(std::int64_t num_weights,
                                     std::int64_t group_size,
                                     std::int64_t skew) {
  return GroupLayout(num_weights, group_size, /*inter=*/true, skew);
}

std::int64_t GroupLayout::group_of(std::int64_t i) const {
  RADAR_REQUIRE(i >= 0 && i < num_weights_, "weight index out of range");
  if (!interleaved_) return i / group_size_;
  const std::int64_t r = i / num_groups_;
  const std::int64_t c = i % num_groups_;
  return (c + skew_ * r) % num_groups_;
}

std::int64_t GroupLayout::slot_of(std::int64_t i) const {
  RADAR_REQUIRE(i >= 0 && i < num_weights_, "weight index out of range");
  if (!interleaved_) return i % group_size_;
  return i / num_groups_;
}

std::int64_t GroupLayout::member(std::int64_t group, std::int64_t slot) const {
  RADAR_REQUIRE(group >= 0 && group < num_groups_, "group out of range");
  RADAR_REQUIRE(slot >= 0 && slot < group_size_, "slot out of range");
  std::int64_t i;
  if (!interleaved_) {
    i = group * group_size_ + slot;
  } else {
    // Invert group = (c + t*r) mod Ng with r = slot.
    const std::int64_t c =
        ((group - skew_ * slot) % num_groups_ + num_groups_) % num_groups_;
    i = slot * num_groups_ + c;
  }
  return i < num_weights_ ? i : -1;
}

std::vector<std::int64_t> GroupLayout::group_members(
    std::int64_t group) const {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(group_size_));
  for_each_member(group, [&](std::int64_t, std::int64_t i) {
    if (i >= 0) out.push_back(i);
  });
  return out;
}

}  // namespace radar::core
