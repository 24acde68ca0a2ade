// Residual networks: ResNet-20 (CIFAR-style) and ResNet-18 builders.
//
// Architectures follow He et al. (CVPR'16): BasicBlock = conv3x3-BN-ReLU-
// conv3x3-BN plus identity (or 1x1-conv-BN projection) skip, post-add ReLU.
// The stem is the 3x3 CIFAR variant: the paper's models consume 32x32
// (ResNet-20) and 224x224 (ResNet-18) inputs; our reproduction trains both
// on 32x32 synthetic data (CIFAR-10 / ImageNet are not available offline;
// see data/synthetic.h), so ResNet-18 takes a configurable width
// multiplier to stay CPU-trainable while keeping its 4-stage,
// 2-blocks-per-stage topology.
#pragma once

#include <memory>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layer.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace radar::nn {

/// Standard residual basic block.
class BasicBlock : public Layer {
 public:
  /// stride > 1 (or channel change) inserts a 1x1 projection on the skip.
  BasicBlock(std::int64_t in_channels, std::int64_t out_channels,
             std::int64_t stride, Rng& rng);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) override;
  void collect_buffers(const std::string& prefix,
                       std::vector<NamedBuffer>& out) override;
  std::string kind() const override { return "BasicBlock"; }

  bool has_projection() const { return down_conv_ != nullptr; }

  // Graph introspection (the quantized inference engine walks the block
  // to compile its op program).
  Conv2d& conv1() { return conv1_; }
  const Conv2d& conv1() const { return conv1_; }
  BatchNorm2d& bn1() { return bn1_; }
  const BatchNorm2d& bn1() const { return bn1_; }
  Conv2d& conv2() { return conv2_; }
  const Conv2d& conv2() const { return conv2_; }
  BatchNorm2d& bn2() { return bn2_; }
  const BatchNorm2d& bn2() const { return bn2_; }
  Conv2d* down_conv() { return down_conv_.get(); }
  const Conv2d* down_conv() const { return down_conv_.get(); }
  BatchNorm2d* down_bn() { return down_bn_.get(); }
  const BatchNorm2d* down_bn() const { return down_bn_.get(); }

  /// Fold bn1/bn2 (and the projection BN) into their convolutions; see
  /// nn/fold.h.
  void fold_batchnorm();

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  std::unique_ptr<Conv2d> down_conv_;
  std::unique_ptr<BatchNorm2d> down_bn_;
  ReLU relu2_;
};

/// Topology descriptor for a ResNet build.
struct ResNetSpec {
  std::int64_t in_channels = 3;
  std::int64_t num_classes = 10;
  std::int64_t base_width = 16;                   ///< channels of stage 0
  std::vector<std::int64_t> blocks_per_stage;     ///< e.g. {3,3,3}
  std::string name = "resnet";

  /// Paper configurations (width_mult scales every stage; 1.0 = paper).
  static ResNetSpec resnet20(std::int64_t num_classes = 10);
  static ResNetSpec resnet18(std::int64_t num_classes = 20,
                             std::int64_t base_width = 16);
};

/// A complete residual classifier. Owns the whole layer graph.
class ResNet {
 public:
  ResNet(const ResNetSpec& spec, Rng& rng);

  Tensor forward(const Tensor& x, Mode mode = Mode::kEval) {
    return net_.forward(x, mode);
  }
  Tensor backward(const Tensor& grad_out) { return net_.backward(grad_out); }

  std::vector<NamedParam> params();
  std::vector<NamedBuffer> buffers();
  void zero_grad();

  /// Total learnable scalar count.
  std::int64_t num_params();

  const ResNetSpec& spec() const { return spec_; }
  Sequential& net() { return net_; }
  const Sequential& net() const { return net_; }

 private:
  ResNetSpec spec_;
  Sequential net_;
};

}  // namespace radar::nn
