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

namespace {

/// Signature words of masked sums: bits 8 .. 9 - sig_bits of each sum
/// (SA, SB, then SC), the bit layout binarize() builds.
template <class Sum>
void signature_words(const std::vector<Sum>& sums, int sig_bits,
                     std::vector<std::uint32_t>& words) {
  const int shift = 9 - sig_bits;
  const auto mask = static_cast<Sum>((1 << sig_bits) - 1);
  words.resize(sums.size());
  std::transform(sums.begin(), sums.end(), words.begin(),
                 [shift, mask](Sum m) {
                   return static_cast<std::uint32_t>((m >> shift) & mask);
                 });
}

}  // namespace

void LayerScanner::require_range(std::span<const std::int8_t> weights,
                                 std::int64_t group_begin,
                                 std::int64_t group_end) const {
  RADAR_REQUIRE(static_cast<std::int64_t>(weights.size()) == num_weights(),
                "weight buffer size does not match scanner");
  RADAR_REQUIRE(group_begin >= 0 && group_begin <= group_end &&
                    group_end <= num_groups(),
                "group range out of bounds");
}

void LayerScanner::int32_sums_range_into(std::span<const std::int8_t> weights,
                                         std::int64_t group_begin,
                                         std::int64_t group_end,
                                         ScanScratch& scratch) const {
  require_range(weights, group_begin, group_end);
  const std::int64_t g = layout_.group_size();
  const std::int64_t m = group_end - group_begin;
  scratch.acc.assign(static_cast<std::size_t>(m), 0);
  if (m == 0) return;
  const std::int8_t* w = weights.data();
  const std::int8_t* s = sign_rm_.data();
  std::int32_t* acc = scratch.acc.data();
  if (!layout_.is_interleaved() || num_groups() == 1) {
    // Contiguous groups (a one-group interleaved layout is the same
    // layout, with the same signs) are straight dot products.
    for (std::int64_t k = 0; k < m; ++k) {
      const std::int64_t base = (group_begin + k) * g;
      acc[k] =
          simd::dot_i8(w + base, s + base, std::min(g, num_weights() - base));
    }
    return;
  }
  // Interleaved: fold the range's window of every row, eight rows per
  // pass, into one int32 accumulator per group.
  for_each_row_pass(
      layout_, std::array{w, s}, group_begin, group_end, scratch.block,
      [acc](std::int64_t k0, std::int64_t n, const RowPass<2>& pass) {
        simd::masked_add_rows(acc + k0, pass.rows[0].data(),
                              pass.rows[1].data(),
                              static_cast<int>(pass.nrows), n);
      });
}

void LayerScanner::masked_sums_range_into(
    std::span<const std::int8_t> weights, std::int64_t group_begin,
    std::int64_t group_end, ScanScratch& scratch) const {
  if (layout_.group_size() <= kInt32SafeGroupSize) {
    int32_sums_range_into(weights, group_begin, group_end, scratch);
    scratch.sums.assign(scratch.acc.begin(), scratch.acc.end());
    return;
  }
  // Pathological group sizes could overflow the int32 accumulators; take
  // the exact int64 per-group path instead.
  require_range(weights, group_begin, group_end);
  scratch.sums.resize(static_cast<std::size_t>(group_end - group_begin));
  for (std::int64_t grp = group_begin; grp < group_end; ++grp)
    scratch.sums[static_cast<std::size_t>(grp - group_begin)] =
        group_sum(weights, grp);
}

void LayerScanner::signature_words_range_into(
    std::span<const std::int8_t> weights, std::int64_t group_begin,
    std::int64_t group_end, ScanScratch& scratch) const {
  if (layout_.group_size() <= kInt32SafeGroupSize) {
    int32_sums_range_into(weights, group_begin, group_end, scratch);
    signature_words(scratch.acc, sig_bits_, scratch.state);
  } else {
    masked_sums_range_into(weights, group_begin, group_end, scratch);
    signature_words(scratch.sums, sig_bits_, scratch.state);
  }
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
