// for_each_row_pass: the one loop that walks a skewed layer's
// rows, for every scheme's dense scan.
//
// Row r of an interleaved layer (bytes [r*Ng, (r+1)*Ng)) holds slot r of
// every group, group grp at column (grp - skew*r) mod Ng, so a range of
// groups is one rotated column window per row, its first column stepping
// back by skew mod Ng from row to row. A per-group check that folds the
// group's slots in order is then a fold over the rows, handed out
// kPassRows rows at a time with each row's window side by side. P byte
// planes shaped like the weights are read in lockstep (radar reads its
// weights and row-major mask signs). A window that is one real piece is
// read in place; one that wraps or reaches the padding past the last
// weight is staged in every plane, padding as zeros.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/interleave.h"

namespace radar::core {

/// Rows one pass hands to a fold, and the most groups one fold call
/// spans (a wrapped tile stages kPassRows x kTileGroups bytes per plane).
inline constexpr std::int64_t kPassRows = 8;
inline constexpr std::int64_t kTileGroups = 512;

/// One pass of P planes: rows[p][j] is plane p's window of slot
/// first_slot + j, for j < nrows (a group's last pass may be short).
template <std::size_t P>
struct RowPass {
  std::array<std::array<const std::int8_t*, kPassRows>, P> rows{};
  std::int64_t nrows = 0;
  std::int64_t first_slot = 0;
};

namespace detail {

/// Copies columns [c, c + n) (mod ng) of row `row` of a `w`-byte plane
/// into `dst`; columns past the plane's last byte become zero. Out of
/// line, so the row loop's in-place path keeps its registers.
[[gnu::noinline]] inline void stage_row(std::int8_t* dst,
                                        const std::int8_t* plane,
                                        std::int64_t w, std::int64_t row,
                                        std::int64_t ng, std::int64_t c,
                                        std::int64_t n) {
  const std::int8_t* src = plane + std::min(row * ng, w);
  const std::int64_t len = std::clamp(w - row * ng, std::int64_t{0}, ng);
  if (len == ng) {  // a real row: at most two pieces, no padding
    const std::int64_t head = std::min(n, ng - c);
    std::memcpy(dst, src + c, static_cast<std::size_t>(head));
    std::memcpy(dst + head, src, static_cast<std::size_t>(n - head));
    return;
  }
  for (; n > 0; c = 0) {
    const std::int64_t piece = std::min(n, ng - c);
    const std::int64_t real = std::clamp(len - c, std::int64_t{0}, piece);
    std::memcpy(dst, src + std::min(c, len), static_cast<std::size_t>(real));
    std::memset(dst + real, 0, static_cast<std::size_t>(piece - real));
    dst += piece;
    n -= piece;
  }
}

}  // namespace detail

/// Folds groups [group_begin, group_end) of an interleaved layer. For each
/// pass of rows, in slot order, and each tile of the range, in ascending
/// order, calls fold(k0, n, pass): the tile is groups
/// group_begin + [k0, k0 + n), and pass.rows[p][j][k] is plane p's byte of
/// group group_begin + k0 + k in slot pass.first_slot + j. Each pass thus
/// streams its rows once. `staging` grows to P * kPassRows * kTileGroups.
template <std::size_t P, class Fold>
void for_each_row_pass(const GroupLayout& layout,
                       const std::array<const std::int8_t*, P>& planes,
                       std::int64_t group_begin, std::int64_t group_end,
                       std::vector<std::int8_t>& staging, Fold&& fold) {
  RADAR_REQUIRE(layout.is_interleaved(), "row passes need rows");
  const std::int64_t g = layout.group_size();
  const std::int64_t ng = layout.num_groups();
  const std::int64_t w = layout.num_weights();
  const std::int64_t m = group_end - group_begin;
  if (m <= 0) return;
  const std::int64_t tile = std::min(m, kTileGroups);
  staging.resize(static_cast<std::size_t>(
      static_cast<std::int64_t>(P) * kPassRows * tile));
  const std::int64_t step = layout.skew() % ng;
  const std::int64_t real_rows = w / ng;  // rows with no padding
  RowPass<P> pass;
  std::int64_t cols[kPassRows];  // each pass row's window start
  std::int64_t c = group_begin;
  for (std::int64_t r0 = 0; r0 < g; r0 += kPassRows) {
    pass.nrows = std::min(kPassRows, g - r0);
    pass.first_slot = r0;
    for (std::int64_t j = 0; j < pass.nrows; ++j) {
      cols[j] = c;
      c -= step;
      if (c < 0) c += ng;
    }
    for (std::int64_t k0 = 0; k0 < m; k0 += tile) {
      const std::int64_t n = std::min(tile, m - k0);
      for (std::int64_t j = 0; j < pass.nrows; ++j) {
        const bool real = r0 + j < real_rows;
        std::int64_t ct = cols[j] + k0;
        if (ct >= ng) ct -= ng;
        // Rows sit Ng bytes apart, where hardware prefetchers do not look.
        // A sweep folds consecutive ranges, so ask L2 for the line past
        // this window, which the next range reads.
        const std::int64_t next = ct + n + 63;
        for (std::size_t p = 0; p < P; ++p) {
          if (real && next < ng)
            __builtin_prefetch(planes[p] + (r0 + j) * ng + next, 0, 2);
          if (real && ct + n <= ng) {
            pass.rows[p][j] = planes[p] + (r0 + j) * ng + ct;
          } else {
            std::int8_t* dst =
                staging.data() +
                (static_cast<std::int64_t>(p) * kPassRows + j) * n;
            detail::stage_row(dst, planes[p], w, r0 + j, ng, ct, n);
            pass.rows[p][j] = dst;
          }
        }
      }
      fold(k0, n, pass);
    }
  }
}

}  // namespace radar::core
