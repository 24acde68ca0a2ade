// 2-D convolution via im2col + GEMM, with full backward pass.
//
// Weight layout is [Cout, Cin, K, K]; inputs/outputs are NCHW. ResNet
// convolutions carry no bias (batch-norm provides the shift), but bias is
// supported for standalone use. Forward/backward parallelize across batch
// samples on the global thread pool; the inner GEMMs run single-threaded
// to avoid nested parallelism.
#pragma once

#include <cstdint>

#include "nn/layer.h"

namespace radar::nn {

class Conv2d : public Layer {
 public:
  /// Square kernel, symmetric padding.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t padding,
         bool bias, Rng& rng);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) override;
  std::string kind() const override { return "Conv2d"; }

  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  bool has_bias() const { return has_bias_; }
  Param& bias() { return bias_; }
  const Param& bias() const { return bias_; }
  /// Turn on the bias term (used by batch-norm folding); the bias tensor
  /// always exists and starts at zero.
  void enable_bias() { has_bias_ = true; }

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t padding() const { return padding_; }

  /// Output spatial size for a given input size.
  std::int64_t out_size(std::int64_t in_size) const {
    return (in_size + 2 * padding_ - kernel_) / stride_ + 1;
  }

  /// Multiply-accumulate count for one sample at the given input size
  /// (used by the timing simulator and tests).
  std::int64_t macs(std::int64_t in_h, std::int64_t in_w) const;

 private:
  /// Expand one sample into a [Cin*K*K, OH*OW] patch matrix.
  void im2col(const float* x, std::int64_t in_h, std::int64_t in_w,
              float* col) const;
  /// Scatter a patch-matrix gradient back into sample-gradient layout.
  void col2im(const float* col, std::int64_t in_h, std::int64_t in_w,
              float* gx) const;

  std::int64_t in_channels_, out_channels_, kernel_, stride_, padding_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;  ///< saved by forward(training=true)
};

}  // namespace radar::nn
