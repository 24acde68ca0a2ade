#include "core/scanner.h"

#include <algorithm>

#include "common/simd_ops.h"
#include "core/row_pass.h"

namespace radar::core {

static_assert(kPassRows <= simd::kMaskedAddMaxRows);

LayerScanner::LayerScanner(const GroupLayout& layout, const MaskStream& mask,
                           int sig_bits)
    : layout_(layout),
      sig_bits_(sig_bits),
      sign_rm_(static_cast<std::size_t>(layout.num_weights())) {
  RADAR_REQUIRE(sig_bits == 2 || sig_bits == 3,
                "signature width must be 2 or 3");
  const std::int64_t g = layout.group_size();
  for (std::int64_t grp = 0; grp < layout.num_groups(); ++grp) {
    layout.for_each_member(grp, [&](std::int64_t slot, std::int64_t i) {
      if (i >= 0)
        sign_rm_[static_cast<std::size_t>(i)] =
            mask.bit(grp * g + slot) ? -1 : 1;
    });
  }
}

void LayerScanner::masked_sums_range_into(
    std::span<const std::int8_t> weights, std::int64_t group_begin,
    std::int64_t group_end, ScanScratch& scratch) const {
  RADAR_REQUIRE(static_cast<std::int64_t>(weights.size()) == num_weights(),
                "weight buffer size does not match scanner");
  RADAR_REQUIRE(group_begin >= 0 && group_begin <= group_end &&
                    group_end <= num_groups(),
                "group range out of bounds");
  const std::int64_t g = layout_.group_size();
  const std::int64_t m = group_end - group_begin;
  scratch.sums.resize(static_cast<std::size_t>(m));
  if (m == 0) return;
  if (g > kInt32SafeGroupSize) {
    // Pathological group sizes could overflow the int32 accumulators;
    // take the exact int64 per-group path instead.
    for (std::int64_t grp = group_begin; grp < group_end; ++grp)
      scratch.sums[static_cast<std::size_t>(grp - group_begin)] =
          group_sum(weights, grp);
    return;
  }
  const std::int8_t* w = weights.data();
  const std::int8_t* s = sign_rm_.data();
  if (!layout_.is_interleaved() || num_groups() == 1) {
    // Contiguous groups (a one-group interleaved layout is the same
    // layout, with the same signs) are straight dot products.
    for (std::int64_t grp = group_begin; grp < group_end; ++grp) {
      const std::int64_t base = grp * g;
      scratch.sums[static_cast<std::size_t>(grp - group_begin)] =
          simd::dot_i8(w + base, s + base, std::min(g, num_weights() - base));
    }
    return;
  }
  // Interleaved: fold the range's window of every row, eight rows per
  // pass, into one int32 accumulator per group.
  scratch.acc.assign(static_cast<std::size_t>(m), 0);
  std::int32_t* acc = scratch.acc.data();
  for_each_row_pass(
      layout_, std::array{w, s}, group_begin, group_end, scratch.block,
      [acc](std::int64_t k0, std::int64_t n, const RowPass<2>& pass) {
        simd::masked_add_rows(acc + k0, pass.rows[0].data(),
                              pass.rows[1].data(),
                              static_cast<int>(pass.nrows), n);
      });
  std::copy(acc, acc + m, scratch.sums.begin());
}

std::int64_t LayerScanner::group_sum(std::span<const std::int8_t> weights,
                                     std::int64_t group) const {
  RADAR_REQUIRE(static_cast<std::int64_t>(weights.size()) == num_weights(),
                "weight buffer size does not match scanner");
  std::int64_t acc = 0;
  layout_.for_each_member(group, [&](std::int64_t, std::int64_t i) {
    if (i >= 0)
      acc += static_cast<std::int64_t>(weights[static_cast<std::size_t>(i)]) *
             sign_rm_[static_cast<std::size_t>(i)];
  });
  return acc;
}

Signature LayerScanner::group_signature_at(
    std::span<const std::int8_t> weights, std::int64_t group) const {
  return binarize(group_sum(weights, group), sig_bits_);
}

std::vector<Signature> LayerScanner::scan(
    std::span<const std::int8_t> weights) const {
  ScanScratch scratch;
  masked_sums_range_into(weights, 0, num_groups(), scratch);
  std::vector<Signature> out(scratch.sums.size());
  for (std::size_t g = 0; g < scratch.sums.size(); ++g)
    out[g] = binarize(scratch.sums[g], sig_bits_);
  return out;
}

}  // namespace radar::core
