// Batch normalization over the channel dimension of NCHW tensors.
//
// Training mode uses batch statistics and updates running estimates with
// momentum; eval mode normalizes with the running estimates. Affine
// parameters (gamma, beta) stay in float even when the network's conv/fc
// weights are quantized — mirroring the BFA threat model where only weight
// tensors live in (attackable) DRAM as int8.
#pragma once

#include "nn/layer.h"

namespace radar::nn {

class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) override;
  void collect_buffers(const std::string& prefix,
                       std::vector<NamedBuffer>& out) override;
  std::string kind() const override { return "BatchNorm2d"; }

  std::int64_t channels() const { return channels_; }
  float eps() const { return eps_; }
  Param& gamma() { return gamma_; }
  const Param& gamma() const { return gamma_; }
  Param& beta() { return beta_; }
  const Param& beta() const { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  const Tensor& running_mean() const { return running_mean_; }
  Tensor& running_var() { return running_var_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  std::int64_t channels_;
  float momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;

  // forward(kTrain/kGrad) caches for backward
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
  std::int64_t cached_n_ = 0, cached_h_ = 0, cached_w_ = 0;
  Mode cached_mode_ = Mode::kEval;
};

}  // namespace radar::nn
