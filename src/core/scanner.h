// LayerScanner: vectorizable signature computation for one layer.
//
// group_signature() recomputes group membership and mask bits on every
// call — fine for tools and tests, too slow for the run-time scan path.
// LayerScanner precomputes the layout once, the way the hardware would
// hard-wire it, in two complementary shapes:
//
//  * row-major mask signs (sign_rm_[i], +1/-1 per original index) drive
//    the one dense kernel, masked_sums_range_into; a whole-layer scan is
//    its range over every group. A contiguous layout reduces each group
//    as a straight int8 x int8 -> int32 dot product. The skewed
//    interleaver has row structure — within row r, consecutive indices
//    map to consecutive groups rotated by (skew*r) mod Ng — so the kernel
//    streams the weight buffer once, adding each row's window of the
//    range into L1-resident int32 accumulators as at most two contiguous
//    rotated segments. It autovectorizes and never gathers: the pass is
//    sequential over weights and signs.
//  * a group-major permutation (perm_[g*G + s] = original index, sign_
//    alongside, 0-signed padding) drives the O(G) narrow per-group scan
//    the incremental path is built from.
//
// int32 accumulators are exact for any group size up to 2^22 (|w| <= 128),
// with an int64 fallback above that. The *_into entry point writes into
// caller-provided ScanScratch, so the steady-state scan loop performs
// zero allocations. All paths are bit-identical to the reference
// primitives (tested).
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

  std::int64_t num_groups() const { return num_groups_; }
  std::int64_t num_weights() const { return num_weights_; }
  int signature_bits() const { return sig_bits_; }

  /// Largest group size for which the int32 kernel cannot overflow
  /// (2^22 * 128 = 2^29 fits; kMaxGroupSize * 128 would not).
  static constexpr std::int64_t kInt32SafeGroupSize = std::int64_t{1} << 22;

  /// Masked sums of groups [group_begin, group_end) only, written to
  /// scratch.sums[0 .. group_end - group_begin) — the dense scan kernel
  /// (a whole-layer scan is the range [0, num_groups())). Work is
  /// proportional to the bytes the range covers: the contiguous layout
  /// reduces each group as a straight dot product, and the skewed
  /// interleaver reads only the range's rotated column window of each row
  /// (contiguous segments, vectorized) into scratch.acc; nothing is ever
  /// gathered. Zero allocations at steady state.
  void masked_sums_range_into(std::span<const std::int8_t> weights,
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

  /// Raw per-group masked sums (allocating convenience wrapper).
  std::vector<std::int64_t> masked_sums(
      std::span<const std::int8_t> weights) const;

 private:
  int sig_bits_;
  std::int64_t num_groups_;
  std::int64_t num_weights_;
  std::int64_t group_size_;
  bool interleaved_;
  std::int64_t skew_;
  std::vector<std::int8_t> sign_rm_;  ///< row-major +1/-1 per weight index
  std::vector<std::int32_t> perm_;  ///< group-major original index (0 on pad)
  std::vector<std::int8_t> sign_;   ///< group-major +1/-1 (0 on pad slots)
};

}  // namespace radar::core
