#include "qnn/kernels.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace radar::qnn {

namespace {

/// Output-channel block width of one GEMM work unit: big enough to
/// amortize dispatch, small enough to load-balance batch x channel tiles.
constexpr std::int64_t kCoBlock = 16;

void check_conv_args(const QTensor& x, std::span<const std::int8_t> w,
                     const ConvGeom& geom, std::span<const float> bias) {
  RADAR_REQUIRE(x.shape.size() == 4, "conv input must be NCHW");
  RADAR_REQUIRE(x.dim(1) == geom.in_channels, "input channel mismatch");
  RADAR_REQUIRE(static_cast<std::int64_t>(w.size()) ==
                    geom.out_channels * geom.in_channels * geom.kernel *
                        geom.kernel,
                "weight buffer size mismatch");
  RADAR_REQUIRE(bias.empty() || static_cast<std::int64_t>(bias.size()) ==
                                    geom.out_channels,
                "bias size mismatch");
}

}  // namespace

nn::Tensor conv2d_i8(const QTensor& x, std::span<const std::int8_t> w,
                     float w_scale, const ConvGeom& geom,
                     std::span<const float> bias) {
  check_conv_args(x, w, geom, bias);
  const std::int64_t n = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
  const std::int64_t oh = geom.out_size(in_h), ow = geom.out_size(in_w);
  RADAR_REQUIRE(oh > 0 && ow > 0, "conv output collapses to zero size");

  nn::Tensor y({n, geom.out_channels, oh, ow});
  const float rescale = x.scale * w_scale;
  const std::int64_t in_stride = geom.in_channels * in_h * in_w;
  const std::int64_t kk = geom.kernel * geom.kernel;

  ThreadPool::global().parallel_for_chunks(
      static_cast<std::size_t>(n), [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          const std::int8_t* xs =
              x.data.data() + static_cast<std::int64_t>(s) * in_stride;
          for (std::int64_t co = 0; co < geom.out_channels; ++co) {
            const std::int8_t* wc = w.data() + co * geom.in_channels * kk;
            const float b = bias.empty() ? 0.0f
                                         : bias[static_cast<std::size_t>(co)];
            for (std::int64_t yo = 0; yo < oh; ++yo) {
              for (std::int64_t xo = 0; xo < ow; ++xo) {
                std::int32_t acc = 0;
                for (std::int64_t ci = 0; ci < geom.in_channels; ++ci) {
                  const std::int8_t* wk = wc + ci * kk;
                  const std::int8_t* xc = xs + ci * in_h * in_w;
                  for (std::int64_t kh = 0; kh < geom.kernel; ++kh) {
                    const std::int64_t yi =
                        yo * geom.stride - geom.padding + kh;
                    if (yi < 0 || yi >= in_h) continue;
                    for (std::int64_t kw = 0; kw < geom.kernel; ++kw) {
                      const std::int64_t xi =
                          xo * geom.stride - geom.padding + kw;
                      if (xi < 0 || xi >= in_w) continue;
                      acc += static_cast<std::int32_t>(
                                 xc[yi * in_w + xi]) *
                             wk[kh * geom.kernel + kw];
                    }
                  }
                }
                y[y.idx4(static_cast<std::int64_t>(s), co, yo, xo)] =
                    static_cast<float>(acc) * rescale + b;
              }
            }
          }
        }
      });
  return y;
}

void direct_conv_i8(const std::int8_t* x, const std::int8_t* w,
                    const ConvGeom& geom, std::int64_t in_h,
                    std::int64_t in_w, const nn::RequantEpilogue& epi,
                    float* y) {
  const std::int64_t oh = geom.out_size(in_h), ow = geom.out_size(in_w);
  const std::int64_t kk = geom.kernel * geom.kernel;
  for (std::int64_t co = 0; co < geom.out_channels; ++co) {
    const std::int8_t* wc = w + co * geom.in_channels * kk;
    const float s = epi.scale[co];
    const float b = epi.bias != nullptr ? epi.bias[co] : 0.0f;
    float* yc = y + co * oh * ow;
    for (std::int64_t yo = 0; yo < oh; ++yo) {
      for (std::int64_t xo = 0; xo < ow; ++xo) {
        std::int32_t acc = 0;
        for (std::int64_t ci = 0; ci < geom.in_channels; ++ci) {
          const std::int8_t* wk = wc + ci * kk;
          const std::int8_t* xc = x + ci * in_h * in_w;
          for (std::int64_t kh = 0; kh < geom.kernel; ++kh) {
            const std::int64_t yi = yo * geom.stride - geom.padding + kh;
            if (yi < 0 || yi >= in_h) continue;
            for (std::int64_t kw = 0; kw < geom.kernel; ++kw) {
              const std::int64_t xi = xo * geom.stride - geom.padding + kw;
              if (xi < 0 || xi >= in_w) continue;
              acc += static_cast<std::int32_t>(xc[yi * in_w + xi]) *
                     wk[kh * geom.kernel + kw];
            }
          }
        }
        yc[yo * ow + xo] = nn::requant_one(acc, s, b, epi.relu);
      }
    }
  }
}

namespace {

constexpr std::uint8_t kBiasedZero = 0x80;

/// Bytes a vector step may read past the last element it needs.
constexpr std::int64_t kStageSlack = 32;

/// Guard bytes before and after each staged plane: every tap of an output
/// inside the map lies within `padding` rows and columns of its plane.
std::int64_t stage_guard(const ConvGeom& g, std::int64_t in_w) {
  return g.padding * in_w + g.padding;
}

/// Columns [0, ow) of an output row whose tap (shifted dx, `stride`)
/// falls inside the map are [lo, hi); the others read a neighbouring row.
std::pair<std::int64_t, std::int64_t> valid_cols(std::int64_t dx,
                                                 std::int64_t stride,
                                                 std::int64_t in_w,
                                                 std::int64_t ow) {
  // ceil(a / stride) for a >= 0, without a division at stride 1
  const auto up = [stride](std::int64_t a) {
    return stride == 1 ? a : (a + stride - 1) / stride;
  };
  const std::int64_t lo = dx < 0 ? std::min(ow, up(-dx)) : 0;
  return {lo, std::max(lo, std::min(ow, up(in_w - dx)))};
}

/// Interleaves 16 columns of four lane streams (element stride S, or
/// `s` when S == 0) into 64 bytes of quads at `out`; `n` <= 16 columns
/// are needed, the others may hold anything.
template <int S>
inline void pack_chunk(const std::uint8_t* const (&rs)[4], std::int64_t s,
                       std::int64_t n, std::uint8_t* out) {
#if defined(__SSE2__)
  __m128i v[4];
  for (int j = 0; j < 4; ++j) {
    if constexpr (S == 1) {
      v[j] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rs[j]));
    } else if constexpr (S == 2) {  // the even bytes of 32
      const __m128i even = _mm_set1_epi16(0x00FF);
      v[j] = _mm_packus_epi16(
          _mm_and_si128(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(rs[j])), even),
          _mm_and_si128(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(rs[j] + 16)),
              even));
    } else {
      alignas(16) std::uint8_t t[16] = {};
      for (std::int64_t i = 0; i < n; ++i) t[i] = rs[j][s * i];
      v[j] = _mm_load_si128(reinterpret_cast<const __m128i*>(t));
    }
  }
  const __m128i t0 = _mm_unpacklo_epi8(v[0], v[1]);
  const __m128i t1 = _mm_unpackhi_epi8(v[0], v[1]);
  const __m128i t2 = _mm_unpacklo_epi8(v[2], v[3]);
  const __m128i t3 = _mm_unpackhi_epi8(v[2], v[3]);
  auto* d = reinterpret_cast<__m128i*>(out);
  _mm_storeu_si128(d + 0, _mm_unpacklo_epi16(t0, t2));
  _mm_storeu_si128(d + 1, _mm_unpackhi_epi16(t0, t2));
  _mm_storeu_si128(d + 2, _mm_unpacklo_epi16(t1, t3));
  _mm_storeu_si128(d + 3, _mm_unpackhi_epi16(t1, t3));
#else
  const std::int64_t e = S == 0 ? s : S;
  for (std::int64_t i = 0; i < n; ++i)
    for (int j = 0; j < 4; ++j) out[4 * i + j] = rs[j][e * i];
#endif
}

/// The runs of one quad row: `runs` output runs of `run_len` columns,
/// lane j of run r starting at base[j] + r * step[j].
template <int S>
void pack_runs(const std::uint8_t* const (&base)[4],
               const std::int64_t (&step)[4], std::int64_t s,
               std::int64_t runs, std::int64_t run_len, std::int64_t pp,
               std::uint8_t* dq) {
  const std::int64_t e = S == 0 ? s : S;
  for (std::int64_t run = 0; run < runs; ++run) {
    const std::uint8_t* rs[4];
    for (int j = 0; j < 4; ++j) rs[j] = base[j] + run * step[j];
    for (std::int64_t x0 = 0; x0 < run_len; x0 += 16) {
      // A chunk may run into the next output row (rewritten next) or the
      // column padding; only the end of the quad row is a hard edge.
      const std::int64_t p0 = run * run_len + x0;
      const std::int64_t n = std::min<std::int64_t>(16, run_len - x0);
      if (p0 + 16 <= pp) {
        pack_chunk<S>(rs, s, n, dq + 4 * p0);
      } else {
        alignas(16) std::uint8_t t[64];
        pack_chunk<S>(rs, s, n, t);
        std::memcpy(dq + 4 * p0, t, static_cast<std::size_t>(4 * (pp - p0)));
      }
      for (int j = 0; j < 4; ++j) rs[j] += 16 * e;
    }
  }
}

}  // namespace

std::int64_t pack_stage_bytes(const ConvGeom& geom, std::int64_t in_h,
                              std::int64_t in_w) {
  const std::int64_t guard = stage_guard(geom, in_w);
  const std::int64_t oh = geom.out_size(in_h), ow = geom.out_size(in_w);
  return guard + geom.in_channels * (in_h * in_w + guard) +
         std::max(nn::packed_cols(oh * ow), geom.stride * ow) + kStageSlack;
}

void pack_patches_u8(const std::int8_t* x, const ConvGeom& geom,
                     std::int64_t in_h, std::int64_t in_w,
                     std::uint8_t* stage, std::uint8_t* dst) {
  const std::int64_t oh = geom.out_size(in_h), ow = geom.out_size(in_w);
  const std::int64_t p = oh * ow, pp = nn::packed_cols(p);
  const std::int64_t k = geom.in_channels * geom.kernel * geom.kernel;
  const std::int64_t hw = in_h * in_w, s = geom.stride, pad = geom.padding;
  const std::int64_t guard = stage_guard(geom, in_w), pitch = hw + guard;

  // Stage the sample biased, each plane between guards of biased zeros,
  // then a biased-zero run the K-tail lanes read. A tap that leaves the
  // map vertically lands in a guard; one that leaves it horizontally
  // reads a neighbouring row, re-zeroed below.
  std::memset(stage, kBiasedZero,
              static_cast<std::size_t>(pack_stage_bytes(geom, in_h, in_w)));
  const std::uint8_t* planes = stage + guard;
  for (std::int64_t c = 0; c < geom.in_channels; ++c) {
    std::uint8_t* d = stage + guard + c * pitch;
    const std::int8_t* xc = x + c * hw;
    for (std::int64_t i = 0; i < hw; ++i)
      d[i] = static_cast<std::uint8_t>(xc[i]) ^ kBiasedZero;
  }
  const std::uint8_t* dead = planes + geom.in_channels * pitch;

  // A stride-1 conv whose output rows are as wide as its input rows reads
  // each tap plane as one shifted block; otherwise one run per output row.
  const bool flat = s == 1 && ow == in_w;
  const std::int64_t runs = flat ? 1 : oh, run_len = flat ? p : ow;
  std::int64_t c = 0, kh = 0, kw = 0;  // tap of reduction row 4q + j
  for (std::int64_t q = 0; q < nn::packed_quads(k); ++q) {
    std::uint8_t* dq = dst + q * pp * 4;
    const std::uint8_t* base[4];
    std::int64_t step[4], dx[4];
    int live = 0;
    for (int j = 0; j < 4; ++j) {
      if (4 * q + j < k) {
        dx[j] = kw - pad;
        base[j] = planes + c * pitch + (kh - pad) * in_w + dx[j];
        step[j] = s * in_w;
        ++live;
        if (++kw == geom.kernel) {
          kw = 0;
          if (++kh == geom.kernel) kh = 0, ++c;
        }
      } else {
        base[j] = dead;
        step[j] = 0;
      }
    }
    if (s == 1)
      pack_runs<1>(base, step, s, runs, run_len, pp, dq);
    else if (s == 2)
      pack_runs<2>(base, step, s, runs, run_len, pp, dq);
    else
      pack_runs<0>(base, step, s, runs, run_len, pp, dq);
    for (int j = 0; j < live; ++j) {
      const auto [lo, hi] = valid_cols(dx[j], s, in_w, ow);
      if (lo == 0 && hi == ow) continue;
      for (std::int64_t yo = 0; yo < oh; ++yo) {
        std::uint8_t* row = dq + 4 * yo * ow + j;
        for (std::int64_t xo = 0; xo < lo; ++xo) row[4 * xo] = kBiasedZero;
        for (std::int64_t xo = hi; xo < ow; ++xo) row[4 * xo] = kBiasedZero;
      }
    }
    std::memset(dq + 4 * p, kBiasedZero,
                static_cast<std::size_t>(4 * (pp - p)));
  }
}

void conv2d_i8_tiled_into(const QTensor& x, std::span<const std::int8_t> w,
                          float w_scale, const ConvGeom& geom,
                          std::span<const float> bias, QnnScratch& scratch,
                          nn::Tensor& y) {
  check_conv_args(x, w, geom, bias);
  const std::int64_t n = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
  const std::int64_t oh = geom.out_size(in_h), ow = geom.out_size(in_w);
  RADAR_REQUIRE(oh > 0 && ow > 0, "conv output collapses to zero size");
  const std::int64_t co = geom.out_channels;
  if (y.rank() != 4 || y.dim(0) != n || y.dim(1) != co || y.dim(2) != oh ||
      y.dim(3) != ow)
    y = nn::Tensor({n, co, oh, ow});

  // Broadcast the scalar rescale / optional bias into per-channel epilogue
  // arrays (scratch-backed so the steady state stays allocation-free).
  const float rescale = x.scale * w_scale;
  float* scale = scratch.ensure(scratch.scale, static_cast<std::size_t>(co));
  std::fill(scale, scale + co, rescale);
  nn::RequantEpilogue epi{scale, nullptr, false};
  if (!bias.empty()) {
    float* eb = scratch.ensure(scratch.bias, static_cast<std::size_t>(co));
    std::copy(bias.begin(), bias.end(), eb);
    epi.bias = eb;
  }

  conv2d_i8_tiled_exec(x.data.data(), w, geom, n, in_h, in_w, epi, scratch,
                       y.data(), &ThreadPool::global());
}

void conv2d_i8_tiled_exec(const std::int8_t* qx,
                          std::span<const std::int8_t> w,
                          const ConvGeom& geom, std::int64_t n,
                          std::int64_t in_h, std::int64_t in_w,
                          const nn::RequantEpilogue& epi, QnnScratch& scratch,
                          float* y, ThreadPool* pool) {
  const std::int64_t co = geom.out_channels;
  const std::int64_t ckk = geom.in_channels * geom.kernel * geom.kernel;
  const std::int64_t osp = geom.out_size(in_h) * geom.out_size(in_w);
  const std::int64_t in_stride = geom.in_channels * in_h * in_w;
  const std::int64_t pb = nn::packed_bytes(ckk, osp);
  const std::int64_t sb = pack_stage_bytes(geom, in_h, in_w);
  std::uint8_t* packed =
      scratch.ensure(scratch.packed, static_cast<std::size_t>(n * pb));
  std::uint8_t* stage =
      scratch.ensure(scratch.stage, static_cast<std::size_t>(n * sb));
  ThreadPool::chunks_or_inline(pool, static_cast<std::size_t>(n),
             [&](std::size_t begin, std::size_t end) {
               for (std::size_t u = begin; u < end; ++u) {
                 const auto s = static_cast<std::int64_t>(u);
                 pack_patches_u8(qx + s * in_stride, geom, in_h, in_w,
                                 stage + s * sb, packed + s * pb);
               }
             });
  const std::int64_t blocks = (co + kCoBlock - 1) / kCoBlock;
  ThreadPool::chunks_or_inline(pool, static_cast<std::size_t>(n * blocks),
             [&](std::size_t begin, std::size_t end) {
               for (std::size_t u = begin; u < end; ++u) {
                 const auto s = static_cast<std::int64_t>(u) / blocks;
                 const std::int64_t m0 =
                     (static_cast<std::int64_t>(u) % blocks) * kCoBlock;
                 nn::gemm_i8_packed(w.data(), packed + s * pb,
                                    y + s * co * osp, m0,
                                    std::min(co, m0 + kCoBlock), ckk, osp,
                                    ckk, osp, epi);
               }
             });
}

nn::Tensor conv2d_i8_tiled(const QTensor& x, std::span<const std::int8_t> w,
                           float w_scale, const ConvGeom& geom,
                           std::span<const float> bias) {
  nn::Tensor y;
  QnnScratch scratch;
  conv2d_i8_tiled_into(x, w, w_scale, geom, bias, scratch, y);
  return y;
}

nn::Tensor linear_i8(const QTensor& x, std::span<const std::int8_t> w,
                     float w_scale, std::int64_t out_features,
                     std::span<const float> bias) {
  RADAR_REQUIRE(x.shape.size() == 2, "linear input must be [N, F]");
  const std::int64_t n = x.dim(0), f = x.dim(1);
  RADAR_REQUIRE(static_cast<std::int64_t>(w.size()) == out_features * f,
                "weight buffer size mismatch");
  RADAR_REQUIRE(bias.empty() ||
                    static_cast<std::int64_t>(bias.size()) == out_features,
                "bias size mismatch");
  nn::Tensor y({n, out_features});
  const std::vector<float> scale(static_cast<std::size_t>(out_features),
                                 x.scale * w_scale);
  const nn::RequantEpilogue epi{scale.data(),
                                bias.empty() ? nullptr : bias.data(), false};
  auto rows = [&](std::size_t begin, std::size_t end) {
    nn::gemm_i8_dot(x.data.data(), w.data(), y.data(),
                    static_cast<std::int64_t>(begin),
                    static_cast<std::int64_t>(end), out_features, f, f, f,
                    out_features, epi);
  };
  // Below this many multiply-adds the pool dispatch dominates.
  if (n * out_features * f < (std::int64_t{1} << 15) || n == 1) {
    rows(0, static_cast<std::size_t>(n));
  } else {
    ThreadPool::global().parallel_for_chunks(static_cast<std::size_t>(n),
                                             rows);
  }
  return y;
}

}  // namespace radar::qnn
