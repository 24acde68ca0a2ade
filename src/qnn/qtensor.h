// Quantized activation tensors and integer inference kernels.
//
// The deployment-side counterpart of the float training substrate: the
// paper's platform (a Cortex-M4F-class edge device) computes convolutions
// directly on int8 weights streamed from DRAM. These kernels implement
// that path — int8 x int8 -> int32 accumulation with requantization — so
// the library can execute the protected model the way the hardware would,
// and so tests can verify that RADAR's zero-out recovery behaves
// identically on the integer path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace radar::qnn {

/// Symmetric int8 tensor: real_value = data[i] * scale.
struct QTensor {
  std::vector<std::int8_t> data;
  std::vector<std::int64_t> shape;
  float scale = 1.0f;

  std::int64_t numel() const {
    std::int64_t n = 1;
    for (const auto d : shape) n *= d;
    return n;
  }
  std::int64_t dim(std::size_t i) const { return shape.at(i); }
};

/// Quantize a float activation tensor with the given scale (values are
/// clamped to [-127, 127]; -128 is reserved to keep symmetry).
QTensor quantize_activation(const nn::Tensor& x, float scale);

/// The engine's activation quantization (calibration and steady-state
/// forwards share it so they cannot diverge): q[i] = x[i] * inv_scale
/// clamped to [-127, 127] and rounded half away from zero by adding +-0.5
/// and truncating; a NaN quantizes to 0. Note the rounding acts on the
/// float sum, so it can differ from lround(x * inv_scale) where that sum
/// rounds (e.g. 0.49999997f + 0.5f == 1.0f).
void quantize_activations_into(const float* x, std::size_t n,
                               float inv_scale, std::int8_t* q);

/// Choose a scale covering the tensor's range: max|x| / 127.
float choose_activation_scale(const nn::Tensor& x);

/// Dequantize back to float.
nn::Tensor dequantize(const QTensor& x);

}  // namespace radar::qnn
