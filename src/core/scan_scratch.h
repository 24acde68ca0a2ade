// ScanScratch: caller-provided working memory for the scan hot path.
//
// Every zero-allocation scan entry point (IntegrityScheme's
// scan_layer_range_into / scan_layer_groups and the scheme hooks behind
// them, words_into / group_word, down to LayerScanner's range kernels)
// borrows its buffers, the row loop's staged rows, a gathered group and
// each scheme's per-group fold state, from one of these instead of
// heap-allocating per call. `state` ends every dense scan of every scheme
// holding the range's computed code words (radar's signature words, a
// block code's check words), which the golden store compares in one bulk
// call. The buffers grow to the high-water mark of the layers they serve
// and are then reused, so a steady-state scan loop performs zero
// allocations.
// A scratch object is not thread-safe; use one per worker (ScanScheduler
// keeps one per parallel-drain worker).
#pragma once

#include <cstdint>
#include <vector>

namespace radar::core {

struct ScanScratch {
  std::vector<std::int8_t> block;    ///< staged rows / a gathered group
  std::vector<std::uint32_t> state;  ///< per-group fold state / code words
  std::vector<std::int32_t> acc;     ///< radar: per-group int32 sums
  std::vector<std::int64_t> sums;    ///< radar: per-group masked sums
};

}  // namespace radar::core
