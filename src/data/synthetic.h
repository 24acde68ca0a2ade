// Procedurally generated image-classification datasets.
//
// Stand-ins for CIFAR-10 / ImageNet, which are not available offline.
// Each class has a deterministic signature (grating orientation &
// frequency, color mix, blob position); each sample perturbs the signature
// with per-sample phase, shift and pixel noise. Difficulty is controlled
// by the noise level and class count. Everything is reproducible from the
// spec's seed.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace radar::data {

/// One minibatch: NCHW images + integer labels.
struct Batch {
  nn::Tensor images;
  std::vector<int> labels;
};

/// Generation parameters.
struct SyntheticSpec {
  std::int64_t num_classes = 10;
  std::int64_t image_size = 32;
  std::int64_t channels = 3;
  double noise = 0.3;          ///< additive pixel noise stddev
  double jitter = 0.15;        ///< per-sample signature perturbation
  std::uint64_t seed = 1234;
  std::string name = "synthetic";
};

/// Dataset rendered lazily from a SyntheticSpec.
///
/// Construction draws the class signatures, forks one RNG stream per split
/// and fills the labels; it renders no pixels. Each split is then rendered
/// on demand, in stream order, up to the highest index a caller has read:
/// test_batch(start, count) renders the test split through start + count,
/// and train_batch / attack_batch render the whole train split on first use
/// (they sample uniformly over it). Because a split is always rendered as a
/// prefix of its own stream, every image is bit-identical to an eager
/// render of the whole dataset, whatever order callers read in, and a
/// dataset nobody reads costs only its labels. Rendering is guarded by an
/// internal mutex, so concurrent const readers are safe.
class SyntheticDataset {
 public:
  SyntheticDataset(const SyntheticSpec& spec, std::int64_t n_train,
                   std::int64_t n_test);

  const SyntheticSpec& spec() const { return spec_; }
  std::int64_t train_size() const { return train_.labels.size(); }
  std::int64_t test_size() const { return test_.labels.size(); }

  /// Random training minibatch (sampling driven by the caller's RNG).
  Batch train_batch(std::int64_t batch_size, Rng& rng) const;

  /// Deterministic contiguous slice of the test set.
  Batch test_batch(std::int64_t start, std::int64_t count) const;

  /// A fixed "attack batch": what the PBFA adversary uses to estimate
  /// gradients (paper: small set with a distribution similar to training).
  Batch attack_batch(std::int64_t batch_size, std::uint64_t seed) const;

  const std::vector<int>& test_labels() const { return test_.labels; }

  /// Images rendered so far, both splits (what reads have cost).
  std::int64_t rendered_images() const;

 private:
  /// One split: its labels (filled at construction), its RNG stream and
  /// the images rendered from it so far.
  struct Split {
    Rng rng;
    std::vector<int> labels;
    nn::Tensor images;          ///< allocated on first render
    std::int64_t rendered = 0;  ///< images [0, rendered) are final
  };

  /// Renders `split` through image `end`. Caller holds render_mu_.
  void render_through(Split& split, std::int64_t end) const;
  void render_sample(int label, Rng& rng, float* out) const;

  SyntheticSpec spec_;
  // Per-class signatures.
  std::vector<double> theta_, freq_, phase0_;
  std::vector<std::array<double, 3>> color_;
  std::vector<std::array<double, 2>> blob_;
  mutable std::mutex render_mu_;
  mutable Split train_, test_;
};

/// CIFAR-10 stand-in: 10 classes, 32x32x3, moderate noise.
SyntheticSpec synthetic_cifar_spec();

/// ImageNet stand-in: 20 classes, 32x32x3, heavier noise and jitter.
SyntheticSpec synthetic_imagenet_spec();

}  // namespace radar::data
