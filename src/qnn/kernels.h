// Integer inference kernels: int8 x int8 -> int32 convolution and linear.
//
// Semantics: y_real = (sum_k x_q[k] * w_q[k]) * x_scale * w_scale + bias.
// Outputs are produced as float (the accumulator dequantized), which the
// caller may requantize for the next layer — mirroring per-layer
// requantization on integer NPUs/MCUs.
#pragma once

#include <cstdint>
#include <span>

#include "nn/int8_gemm.h"
#include "nn/tensor.h"
#include "qnn/qnn_scratch.h"
#include "qnn/qtensor.h"

namespace radar {
class ThreadPool;
}

namespace radar::qnn {

/// Conv geometry (square kernel, symmetric padding), NCHW activations and
/// [Cout, Cin, K, K] weights.
struct ConvGeom {
  std::int64_t in_channels = 0, out_channels = 0;
  std::int64_t kernel = 1, stride = 1, padding = 0;

  std::int64_t out_size(std::int64_t in) const {
    return (in + 2 * padding - kernel) / stride + 1;
  }
};

/// Integer convolution. `bias` (size Cout, may be empty) is added in real
/// units. Returns float feature maps.
nn::Tensor conv2d_i8(const QTensor& x, std::span<const std::int8_t> w,
                     float w_scale, const ConvGeom& geom,
                     std::span<const float> bias);

/// Integer fully-connected layer: x [N, F] int8, w [out, F] int8.
/// Runs through the shared int8 GEMM tile kernel, parallelized over the
/// batch dimension on the global ThreadPool for large shapes; results are
/// bit-identical for any thread count (exact int32 accumulation).
nn::Tensor linear_i8(const QTensor& x, std::span<const std::int8_t> w,
                     float w_scale, std::int64_t out_features,
                     std::span<const float> bias);

/// Packs one sample [Cin, in_h, in_w] of int8 activations into its k-quad
/// patch matrix (nn/int8_gemm.h): nn::packed_bytes(Cin*K*K, OH*OW) bytes at
/// `dst`, k = (c * K + kh) * K + kw, each value biased to u8 (x ^ 0x80),
/// zero padding and the K / P tails as 0x80. The sample is first staged
/// biased in `stage` (pack_stage_bytes), each channel plane between
/// guards of biased zeros, so every tap reads in bounds: a stride-1 conv
/// whose output rows are its input rows copies each (c, kh, kw) plane as
/// one shifted block, other geometries one output row at a time, four
/// taps interleaved per quad; edge columns whose tap left the map are
/// re-zeroed afterwards.
void pack_patches_u8(const std::int8_t* x, const ConvGeom& geom,
                     std::int64_t in_h, std::int64_t in_w,
                     std::uint8_t* stage, std::uint8_t* dst);

/// Staging bytes pack_patches_u8 needs for one sample of this geometry
/// (about Cin * in_h * in_w plus guards).
std::int64_t pack_stage_bytes(const ConvGeom& geom, std::int64_t in_h,
                              std::int64_t in_w);

/// Reference direct convolution of one sample with a per-channel requant
/// epilogue — the pre-existing 7-deep kernel, kept as the bit-exactness
/// baseline for the tiled path.
void direct_conv_i8(const std::int8_t* x, const std::int8_t* w,
                    const ConvGeom& geom, std::int64_t in_h,
                    std::int64_t in_w, const nn::RequantEpilogue& epi,
                    float* y);

/// Batched convolution via the k-quad packer + packed int8 GEMM with fused
/// requant epilogue. Bit-identical to conv2d_i8 (same int32 sums, same
/// epilogue expression). The `_into` variant draws all working memory from
/// `scratch` and writes into a caller tensor (allocation-free after
/// warm-up); both parallelize over batch x output-channel blocks on the
/// global ThreadPool.
nn::Tensor conv2d_i8_tiled(const QTensor& x, std::span<const std::int8_t> w,
                           float w_scale, const ConvGeom& geom,
                           std::span<const float> bias);
void conv2d_i8_tiled_into(const QTensor& x, std::span<const std::int8_t> w,
                          float w_scale, const ConvGeom& geom,
                          std::span<const float> bias, QnnScratch& scratch,
                          nn::Tensor& y);

/// The one batched-conv executor both of the above and the inference
/// engine run (so tests and benches measure the exact production kernel):
/// pre-quantized activations `qx` ([N, Cin, in_h, in_w] int8) are packed
/// per sample (pack_patches_u8), then batch x output-channel-block GEMM
/// units (nn::gemm_i8_packed) apply the fused epilogue, fanned out over `pool` (null or size-1 = inline,
/// allocation-free). Writes NCHW float output into `y`.
void conv2d_i8_tiled_exec(const std::int8_t* qx,
                          std::span<const std::int8_t> w,
                          const ConvGeom& geom, std::int64_t n,
                          std::int64_t in_h, std::int64_t in_w,
                          const nn::RequantEpilogue& epi, QnnScratch& scratch,
                          float* y, ThreadPool* pool);

}  // namespace radar::qnn
