#include "core/scanner.h"

#include <algorithm>

#include "common/simd_ops.h"

namespace radar::core {

namespace {

/// Contiguous int8 dot product with int32 accumulation, dispatched on
/// the active SIMD level (scalar / AVX2 / AVX-512 VNNI / NEON — all
/// bit-identical). Signs are +1/-1 (0 on padding), so the result equals
/// the masked checksum exactly.
inline std::int32_t dot_i8_i32(const std::int8_t* w, const std::int8_t* s,
                               std::int64_t n) {
  return simd::dot_i8(w, s, n);
}

inline std::int64_t dot_i8_i64(const std::int8_t* w, const std::int8_t* s,
                               std::int64_t n) {
  std::int64_t acc = 0;
  for (std::int64_t k = 0; k < n; ++k)
    acc += static_cast<std::int64_t>(w[k]) * static_cast<std::int64_t>(s[k]);
  return acc;
}

/// acc[k] += w[k] * s[k] over a contiguous segment — the rotated-row
/// accumulation step of the interleaved scan, dispatched like dot_i8_i32.
inline void axpy_i8_i32(std::int32_t* acc, const std::int8_t* w,
                        const std::int8_t* s, std::int64_t n) {
  simd::axpy_i8(acc, w, s, n);
}

}  // namespace

LayerScanner::LayerScanner(const GroupLayout& layout, const MaskStream& mask,
                           int sig_bits)
    : sig_bits_(sig_bits),
      num_groups_(layout.num_groups()),
      num_weights_(layout.num_weights()),
      group_size_(layout.group_size()),
      interleaved_(layout.is_interleaved()),
      skew_(layout.skew()) {
  RADAR_REQUIRE(sig_bits == 2 || sig_bits == 3,
                "signature width must be 2 or 3");
  RADAR_REQUIRE(num_weights_ < (std::int64_t{1} << 31),
                "layer too large for 32-bit permutation indices");
  const std::int64_t g = group_size_;
  const auto padded = static_cast<std::size_t>(num_groups_ * g);
  sign_rm_.resize(static_cast<std::size_t>(num_weights_));
  perm_.resize(padded);
  sign_.resize(padded);
  for (std::int64_t grp = 0; grp < num_groups_; ++grp) {
    for (std::int64_t slot = 0; slot < g; ++slot) {
      const std::int64_t pos = grp * g + slot;
      const std::int64_t i = layout.member(grp, slot);
      if (i < 0) {
        // Padding: point at a valid index with sign 0 so the narrow scan
        // stays branchless and the slot contributes nothing.
        perm_[static_cast<std::size_t>(pos)] = 0;
        sign_[static_cast<std::size_t>(pos)] = 0;
        continue;
      }
      const std::int8_t sgn = mask.bit(pos) ? -1 : 1;
      perm_[static_cast<std::size_t>(pos)] = static_cast<std::int32_t>(i);
      sign_[static_cast<std::size_t>(pos)] = sgn;
      sign_rm_[static_cast<std::size_t>(i)] = sgn;
    }
  }
}

void LayerScanner::masked_sums_range_into(
    std::span<const std::int8_t> weights, std::int64_t group_begin,
    std::int64_t group_end, ScanScratch& scratch) const {
  RADAR_REQUIRE(static_cast<std::int64_t>(weights.size()) == num_weights_,
                "weight buffer size does not match scanner");
  RADAR_REQUIRE(group_begin >= 0 && group_begin <= group_end &&
                    group_end <= num_groups_,
                "group range out of bounds");
  const std::int64_t g = group_size_;
  const std::int64_t ng = num_groups_;
  const std::int64_t m = group_end - group_begin;
  scratch.sums.resize(static_cast<std::size_t>(m));
  if (m == 0) return;
  const std::int8_t* w = weights.data();
  const std::int8_t* s = sign_rm_.data();
  if (!interleaved_) {
    // Contiguous layout: the range is a straight run of dot products.
    const bool wide = g > kInt32SafeGroupSize;
    for (std::int64_t grp = group_begin; grp < group_end; ++grp) {
      const std::int64_t base = grp * g;
      const std::int64_t n = std::min(g, num_weights_ - base);
      scratch.sums[static_cast<std::size_t>(grp - group_begin)] =
          wide ? dot_i8_i64(w + base, s + base, n)
               : static_cast<std::int64_t>(dot_i8_i32(w + base, s + base, n));
    }
    return;
  }
  if (g > kInt32SafeGroupSize) {
    // Pathological group sizes could overflow the int32 accumulators;
    // take the exact int64 per-group path instead.
    for (std::int64_t grp = group_begin; grp < group_end; ++grp)
      scratch.sums[static_cast<std::size_t>(grp - group_begin)] =
          group_sum(weights, grp);
    return;
  }
  // Interleaved layout: within row r, group grp's member sits at column
  // c = (grp - skew*r) mod ng. The range's columns form one rotated
  // window of width m per row — at most two contiguous segments, each
  // folding into the m accumulators (acc index advances in lockstep with
  // the column). The window's first column steps back by skew mod ng per
  // row, and the wrapped segment is folded first, so each row is read in
  // ascending address order. One sequential pass over the window's weight
  // and sign bytes; the m int32 accumulators stay cache-hot.
  scratch.acc.resize(static_cast<std::size_t>(m));
  std::int32_t* acc = scratch.acc.data();
  std::fill(acc, acc + m, 0);
  const std::int64_t step = skew_ % ng;
  std::int64_t c0 = group_begin;  // column of the range's first group
  for (std::int64_t base = 0; base < num_weights_; base += ng) {
    const std::int64_t len = std::min(ng, num_weights_ - base);
    // Wrapped segment: columns [0, c0 + m - ng) -> acc[ng - c0 ..).
    const std::int64_t b_end = std::min(c0 + m - ng, len);
    if (b_end > 0) axpy_i8_i32(acc + (ng - c0), w + base, s + base, b_end);
    // Columns [c0, min(c0 + m, ng)) -> acc[0 ..).
    const std::int64_t a_end = std::min({c0 + m, ng, len});
    if (a_end > c0) axpy_i8_i32(acc, w + base + c0, s + base + c0, a_end - c0);
    c0 -= step;
    if (c0 < 0) c0 += ng;
  }
  for (std::int64_t k = 0; k < m; ++k)
    scratch.sums[static_cast<std::size_t>(k)] =
        static_cast<std::int64_t>(acc[k]);
}

std::int64_t LayerScanner::group_sum(std::span<const std::int8_t> weights,
                                     std::int64_t group) const {
  RADAR_REQUIRE(static_cast<std::int64_t>(weights.size()) == num_weights_,
                "weight buffer size does not match scanner");
  RADAR_REQUIRE(group >= 0 && group < num_groups_, "group out of range");
  const std::int64_t g = group_size_;
  const std::int32_t* p = perm_.data() + group * g;
  const std::int8_t* s = sign_.data() + group * g;
  if (g > kInt32SafeGroupSize) {
    std::int64_t acc = 0;
    for (std::int64_t k = 0; k < g; ++k)
      acc += static_cast<std::int64_t>(
                 weights[static_cast<std::size_t>(p[k])]) *
             static_cast<std::int64_t>(s[k]);
    return acc;
  }
  std::int32_t acc = 0;
  for (std::int64_t k = 0; k < g; ++k)
    acc += static_cast<std::int32_t>(weights[static_cast<std::size_t>(p[k])]) *
           static_cast<std::int32_t>(s[k]);
  return acc;
}

Signature LayerScanner::group_signature_at(
    std::span<const std::int8_t> weights, std::int64_t group) const {
  return binarize(group_sum(weights, group), sig_bits_);
}

std::vector<std::int64_t> LayerScanner::masked_sums(
    std::span<const std::int8_t> weights) const {
  ScanScratch scratch;
  masked_sums_range_into(weights, 0, num_groups_, scratch);
  return std::move(scratch.sums);
}

std::vector<Signature> LayerScanner::scan(
    std::span<const std::int8_t> weights) const {
  ScanScratch scratch;
  masked_sums_range_into(weights, 0, num_groups_, scratch);
  std::vector<Signature> out(scratch.sums.size());
  for (std::size_t g = 0; g < scratch.sums.size(); ++g)
    out[g] = binarize(scratch.sums[g], sig_bits_);
  return out;
}

}  // namespace radar::core
