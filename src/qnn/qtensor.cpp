#include "qnn/qtensor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace radar::qnn {

// The SSE2 loop evaluates the same IEEE operations in the same order as
// the scalar tail (min/max operands ordered so a NaN passes the clamps as
// in the selects; the low byte of the truncated int32, which is 0 for a
// NaN), so every element gets the same code either way; GCC does not
// vectorize the scalar form itself while FP exceptions count as side
// effects.
void quantize_activations_into(const float* x, std::size_t n,
                               float inv_scale, std::int8_t* q) {
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128 s = _mm_set1_ps(inv_scale);
  const __m128 hi = _mm_set1_ps(127.0f), lo = _mm_set1_ps(-127.0f);
  const __m128 half = _mm_set1_ps(0.5f), nhalf = _mm_set1_ps(-0.5f);
  const __m128i low8 = _mm_set1_epi32(0xFF);
  for (; i + 16 <= n; i += 16) {
    __m128i w[4];
    for (int j = 0; j < 4; ++j) {
      __m128 v = _mm_mul_ps(_mm_loadu_ps(x + i + 4 * j), s);
      v = _mm_max_ps(lo, _mm_min_ps(hi, v));
      const __m128 pos = _mm_cmpge_ps(v, _mm_setzero_ps());
      v = _mm_add_ps(v, _mm_or_ps(_mm_and_ps(pos, half),
                                  _mm_andnot_ps(pos, nhalf)));
      w[j] = _mm_and_si128(_mm_cvttps_epi32(v), low8);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm_packus_epi16(_mm_packs_epi32(w[0], w[1]),
                                      _mm_packs_epi32(w[2], w[3])));
  }
#endif
  for (; i < n; ++i) {
    float v = x[i] * inv_scale;
    v = v > 127.0f ? 127.0f : v;
    v = v < -127.0f ? -127.0f : v;
    v += v >= 0.0f ? 0.5f : -0.5f;
    // A NaN fails `v == v` and is spelled out as 0, so the cast only ever
    // sees a value inside (-128, 128).
    q[i] = v == v ? static_cast<std::int8_t>(static_cast<std::int32_t>(v))
                  : std::int8_t{0};
  }
}

float choose_activation_scale(const nn::Tensor& x) {
  const float amax = x.abs_max();
  return amax > 0.0f ? amax / 127.0f : 1.0f;
}

QTensor quantize_activation(const nn::Tensor& x, float scale) {
  RADAR_REQUIRE(scale > 0.0f, "activation scale must be positive");
  QTensor q;
  q.shape = x.shape();
  q.scale = scale;
  q.data.resize(static_cast<std::size_t>(x.numel()));
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const long r = std::lround(x[i] / scale);
    q.data[static_cast<std::size_t>(i)] =
        static_cast<std::int8_t>(std::clamp(r, -127L, 127L));
  }
  return q;
}

nn::Tensor dequantize(const QTensor& x) {
  nn::Tensor t(x.shape);
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(x.data[static_cast<std::size_t>(i)]) * x.scale;
  return t;
}

}  // namespace radar::qnn
