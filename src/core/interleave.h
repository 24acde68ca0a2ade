// Group layout: how a layer's W weights map to checksum groups.
//
// Paper §IV.B.2 / Fig. 3: checksum groups are formed from weights that are
// originally ~W/G locations apart, with a small skew offset (t = 3) so the
// stride itself is not a fixed, guessable constant. We formalize this as a
// skewed block interleaver — always a bijection, since within each row r
// the column-to-group map c -> (c + t*r) mod Ng is a rotation and each
// row is its own slot:
//
//   padded W' = Ng * G,  Ng = ceil(W / G) groups of G weights
//   original index i:  row r = i / Ng, column c = i % Ng
//   interleaved:   group(i) = (c + t*r) mod Ng,  slot(i) = r
//   contiguous:    group(i) = i / G,             slot(i) = i % G
//
// With t = 0 this is the paper's "basic interleave" (members exactly Ng
// apart); padding slots hold no real weight and are treated as zero by the
// checksum.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"

namespace radar::core {

class GroupLayout {
 public:
  /// Contiguous (non-interleaved) grouping.
  static GroupLayout contiguous(std::int64_t num_weights,
                                std::int64_t group_size);

  /// Skewed-stride interleaved grouping (paper default skew = 3).
  static GroupLayout interleaved(std::int64_t num_weights,
                                 std::int64_t group_size,
                                 std::int64_t skew = 3);

  std::int64_t num_weights() const { return num_weights_; }
  std::int64_t group_size() const { return group_size_; }
  std::int64_t num_groups() const { return num_groups_; }
  bool is_interleaved() const { return interleaved_; }
  std::int64_t skew() const { return skew_; }

  /// Group index of original weight index i.
  std::int64_t group_of(std::int64_t i) const;

  /// Slot of weight i inside its group (0..G-1).
  std::int64_t slot_of(std::int64_t i) const;

  /// Original index occupying (group, slot), or -1 for a padding slot.
  /// For single lookups; walks over a whole group use for_each_member.
  std::int64_t member(std::int64_t group, std::int64_t slot) const;

  /// Calls fn(slot, index) for slot = 0..G-1 of `group`, in slot order,
  /// with index == member(group, slot) (-1 for a padding slot). `group`
  /// is range-checked once; the walk itself is strength-reduced. A
  /// contiguous group is a run, so the index steps by one. An interleaved
  /// slot s sits in row s at column c_s = (group - t*s) mod Ng, so
  /// c_{s+1} = c_s - (t mod Ng), wrapped by one add of Ng; no modulo runs
  /// per slot.
  template <class Fn>
  void for_each_member(std::int64_t group, Fn&& fn) const {
    RADAR_REQUIRE(group >= 0 && group < num_groups_, "group out of range");
    if (!interleaved_) {
      const std::int64_t base = group * group_size_;
      for (std::int64_t s = 0; s < group_size_; ++s) {
        const std::int64_t i = base + s;
        fn(s, i < num_weights_ ? i : std::int64_t{-1});
      }
      return;
    }
    const std::int64_t step = skew_ % num_groups_;
    std::int64_t c = group;
    std::int64_t row = 0;
    for (std::int64_t s = 0; s < group_size_; ++s, row += num_groups_) {
      const std::int64_t i = row + c;
      fn(s, i < num_weights_ ? i : std::int64_t{-1});
      c -= step;
      if (c < 0) c += num_groups_;
    }
  }

  /// All real (non-padding) original indices of a group, in slot order.
  std::vector<std::int64_t> group_members(std::int64_t group) const;

 private:
  GroupLayout(std::int64_t w, std::int64_t g, bool inter, std::int64_t skew);

  std::int64_t num_weights_, group_size_, num_groups_, skew_;
  bool interleaved_;
};

}  // namespace radar::core
