// The row loop shared by the codes' row-streaming folds.
//
// A row fold advances many independent blocks' code states by a few
// consecutive bytes each: rows[j][k] is block k's j-th byte. Loading a
// state once and stepping it through several rows before storing it back
// is what makes the fold fast (a CRC takes 8 rows as one slicing-by-8
// step), so rows go to a fused kernel kFusedRows at a time and only the
// remainder is folded one row at a time. The interleaved row loop
// (core/row_pass.h) hands a fold kFusedRows rows per pass, so only a
// group's last pass can leave a remainder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace radar::codes {

inline constexpr std::size_t kFusedRows = 8;

/// Calls fused(j) for each full group rows[j .. j + kFusedRows), then
/// one(j) for each remaining row j, in row order.
template <class Fused, class One>
void for_each_row_run(std::span<const std::uint8_t* const> rows,
                      Fused&& fused, One&& one) {
  std::size_t j = 0;
  for (; j + kFusedRows <= rows.size(); j += kFusedRows) fused(j);
  for (; j < rows.size(); ++j) one(j);
}

}  // namespace radar::codes
