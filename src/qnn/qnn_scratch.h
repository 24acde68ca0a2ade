// QnnScratch: caller-provided working memory for the quantized inference
// hot path (the qnn counterpart of core/scan_scratch.h).
//
// Every allocation-free inference entry point (InferenceEngine::
// forward_into, conv2d_i8_tiled_into) borrows its buffers from one of
// these instead of heap-allocating per call. Buffers grow to the
// high-water mark of the network / batch they serve and are then reused,
// so a steady-state forward loop performs zero heap allocations (the
// `grows` counter is the test hook for that property). A scratch object
// is not thread-safe; use one per worker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace radar::qnn {

struct QnnScratch {
  std::vector<float> act[3];       ///< activation ping-pong + skip buffer
  std::vector<std::int8_t> qact;   ///< quantized input of the current op
  /// k-quad packed patch matrices of the current conv, all samples
  /// (nn/int8_gemm.h: [ceil(K/4)][P padded to 16][4] u8, x ^ 0x80 each).
  std::vector<std::uint8_t> packed;
  std::vector<std::uint8_t> stage;  ///< biased, guarded input planes
  std::vector<float> scale;        ///< broadcast per-channel epilogue scale
  std::vector<float> bias;         ///< broadcast per-channel epilogue bias
  std::size_t grows = 0;           ///< buffer-growth events (warm-up ends
                                   ///< when this stops increasing)

  /// Grow-only resize: returns a pointer to at least `n` elements.
  template <typename T>
  T* ensure(std::vector<T>& v, std::size_t n) {
    if (v.size() < n) {
      v.resize(n);
      ++grows;
    }
    return v.data();
  }
};

}  // namespace radar::qnn
