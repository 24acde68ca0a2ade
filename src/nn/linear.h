// Fully-connected layer: y = x W^T + b with weight [out, in].
#pragma once

#include "nn/layer.h"

namespace radar::nn {

class Linear : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, bool bias,
         Rng& rng);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) override;
  std::string kind() const override { return "Linear"; }

  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  bool has_bias() const { return has_bias_; }
  Param& bias() { return bias_; }
  const Param& bias() const { return bias_; }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

  /// MACs for one sample.
  std::int64_t macs() const { return in_features_ * out_features_; }

 private:
  std::int64_t in_features_, out_features_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

}  // namespace radar::nn
