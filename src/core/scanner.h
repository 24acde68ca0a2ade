// LayerScanner: vectorizable signature computation for one layer.
//
// group_signature() recomputes group membership and mask bits on every
// call — fine for tools and tests, too slow for the run-time scan path.
// LayerScanner derives the layer's mask signs once, the way the hardware
// would hard-wire them, as one table indexed by weight: sign_rm_[i] is
// the +1/-1 sign of original weight index i. The one dense kernel, behind
// masked_sums_range_into and signature_words_range_into (a whole-layer
// scan is their range over every group), reduces a contiguous group, or a
// one-group layer's group, as a straight int8 x int8 -> int32 dot
// product, and folds an interleaved range by the shared row loop
// (core/row_pass.h), up to eight rows per simd::masked_add_rows call into
// per-group int32 accumulators. The O(G) narrow scan the incremental
// path is built from, group_sum, walks GroupLayout::for_each_member.
// Nothing is gathered.
//
// int32 accumulators are exact for any group size up to 2^22 (|w| <= 128),
// with an int64 per-group path above that. signature_words_range_into
// turns a range's sums into packed-format signature words in one
// branch-free loop, so a dense scan ends in the golden store's bulk
// compare instead of a binarize + get per group. The *_into entry points
// write into caller-provided ScanScratch, so the steady-state scan loop
// performs zero allocations. All paths are bit-identical to the reference
// primitives (tested). RadarScheme's two word hooks are
// signature_words_range_into (words_into) and group_signature_at
// (group_word).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/checksum.h"
#include "core/scan_scratch.h"

namespace radar::core {

class LayerScanner {
 public:
  LayerScanner(const GroupLayout& layout, const MaskStream& mask,
               int sig_bits);

  std::int64_t num_groups() const { return layout_.num_groups(); }
  std::int64_t num_weights() const { return layout_.num_weights(); }

  /// Largest group size for which the int32 kernel cannot overflow
  /// (2^22 * 128 = 2^29 fits; kMaxGroupSize * 128 would not).
  static constexpr std::int64_t kInt32SafeGroupSize = std::int64_t{1} << 22;

  /// Masked sums of groups [group_begin, group_end) only, written to
  /// scratch.sums[0 .. group_end - group_begin) — the dense scan kernel
  /// (a whole-layer scan is the range [0, num_groups())). Work is
  /// proportional to the bytes the range covers: the contiguous layout
  /// reduces each group as a straight dot product, and the skewed
  /// interleaver folds only the range's window of each row into
  /// scratch.acc. Zero allocations at steady state.
  void masked_sums_range_into(std::span<const std::int8_t> weights,
                              std::int64_t group_begin,
                              std::int64_t group_end,
                              ScanScratch& scratch) const;

  /// Signature words of groups [group_begin, group_end), written to
  /// scratch.state[0 .. group_end - group_begin): the range's masked sums
  /// turned into Signature bits in one branch-free loop,
  /// (m >> (9 - sig_bits)) & (2^sig_bits - 1), which is binarize's bit
  /// layout by construction. They are RadarScheme's words_into: the
  /// golden store's bulk compare (PackedWordStore::append_mismatches) and
  /// re-signing read them.
  void signature_words_range_into(std::span<const std::int8_t> weights,
                                  std::int64_t group_begin,
                                  std::int64_t group_end,
                                  ScanScratch& scratch) const;

  /// Masked sum of a single group — the narrow-scan primitive, O(G).
  std::int64_t group_sum(std::span<const std::int8_t> weights,
                         std::int64_t group) const;

  /// Signature of a single group (group_sum + binarize).
  Signature group_signature_at(std::span<const std::int8_t> weights,
                               std::int64_t group) const;

  /// Signatures of all groups (allocating convenience wrapper).
  std::vector<Signature> scan(std::span<const std::int8_t> weights) const;

 private:
  void require_range(std::span<const std::int8_t> weights,
                     std::int64_t group_begin, std::int64_t group_end) const;
  /// The dense kernel for group sizes up to kInt32SafeGroupSize: the
  /// range's masked sums as int32 in scratch.acc[0 .. end - begin).
  void int32_sums_range_into(std::span<const std::int8_t> weights,
                             std::int64_t group_begin, std::int64_t group_end,
                             ScanScratch& scratch) const;

  GroupLayout layout_;
  int sig_bits_;
  std::vector<std::int8_t> sign_rm_;  ///< row-major +1/-1 per weight index
};

}  // namespace radar::core
