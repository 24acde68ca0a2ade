// Layer framework with explicit manual backpropagation.
//
// Each layer caches what it needs during forward(training=true) and
// produces input gradients in backward(). Composite layers (residual
// blocks, Sequential) own their children and orchestrate the reverse pass
// explicitly — there is no tape/autograd; the graph is the object graph.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace radar::nn {

/// What a parameter is — the quantizer uses this to decide which tensors
/// become int8 (conv/linear weights, per the BFA threat model) and which
/// stay float (biases, batch-norm affine parameters).
enum class ParamKind {
  kConvWeight,
  kLinearWeight,
  kBias,
  kBnGamma,
  kBnBeta,
};

/// A learnable tensor with its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;
  ParamKind kind = ParamKind::kBias;

  Param() = default;
  Param(Tensor v, ParamKind k)
      : value(std::move(v)), grad(Tensor(value.shape())), kind(k) {}

  void zero_grad() { grad.zero(); }
};

/// Parameter with its hierarchical name, e.g. "stage2.block0.conv1.weight".
struct NamedParam {
  std::string name;
  Param* param;
};

/// Non-learnable persistent tensor (batch-norm running statistics).
struct NamedBuffer {
  std::string name;
  Tensor* tensor;
};

/// Forward-pass mode.
///
/// kEval  — inference only: no caching, batch-norm uses running stats.
/// kTrain — caches for backward, batch-norm uses batch stats and updates
///          running estimates.
/// kGrad  — caches for backward but batch-norm behaves like eval (uses and
///          does not update running stats). This is the PyTorch
///          `model.eval()` + backward combination the BFA attacker relies
///          on to get gradients of the deployed (eval-mode) network.
enum class Mode { kEval, kTrain, kGrad };

/// True when the layer must cache activations for a later backward().
inline bool needs_cache(Mode m) { return m != Mode::kEval; }

/// Base class for every network component.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute outputs according to `mode` (see Mode).
  virtual Tensor forward(const Tensor& x, Mode mode) = 0;

  /// Propagate ∂L/∂output to ∂L/∂input, accumulating parameter gradients.
  /// Only valid after a forward(training=true) call.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Append (prefix-qualified) parameters, depth-first.
  virtual void collect_params(const std::string& prefix,
                              std::vector<NamedParam>& out) {
    (void)prefix;
    (void)out;
  }

  /// Append persistent buffers (running stats), depth-first.
  virtual void collect_buffers(const std::string& prefix,
                               std::vector<NamedBuffer>& out) {
    (void)prefix;
    (void)out;
  }

  /// Short type tag, e.g. "Conv2d".
  virtual std::string kind() const = 0;
};

/// Join hierarchical names: "a" + "b" -> "a.b"; "" + "b" -> "b".
inline std::string join_name(const std::string& prefix,
                             const std::string& leaf) {
  return prefix.empty() ? leaf : prefix + "." + leaf;
}

/// Ordered container running children front-to-back (and back-to-front in
/// backward). Children are owned.
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Append a child; returns a non-owning typed pointer for wiring.
  template <typename L, typename... Args>
  L* emplace(std::string name, Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    names_.push_back(std::move(name));
    children_.push_back(std::move(layer));
    return raw;
  }

  void append(std::string name, std::unique_ptr<Layer> layer) {
    names_.push_back(std::move(name));
    children_.push_back(std::move(layer));
  }

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) override;
  void collect_buffers(const std::string& prefix,
                       std::vector<NamedBuffer>& out) override;
  std::string kind() const override { return "Sequential"; }

  std::size_t size() const { return children_.size(); }
  Layer& child(std::size_t i) { return *children_.at(i); }
  const Layer& child(std::size_t i) const { return *children_.at(i); }
  const std::string& child_name(std::size_t i) const { return names_.at(i); }

 private:
  std::vector<std::unique_ptr<Layer>> children_;
  std::vector<std::string> names_;
};

}  // namespace radar::nn
