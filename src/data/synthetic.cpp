#include "data/synthetic.h"

#include <array>
#include <cmath>
#include <mutex>

#include "common/error.h"

namespace radar::data {

namespace {
constexpr double kPi = 3.14159265358979323846;
}

SyntheticSpec synthetic_cifar_spec() {
  SyntheticSpec s;
  s.num_classes = 10;
  s.image_size = 32;
  s.noise = 0.30;
  s.jitter = 0.15;
  s.seed = 0xC1FA;
  s.name = "synthetic-cifar10";
  return s;
}

SyntheticSpec synthetic_imagenet_spec() {
  SyntheticSpec s;
  s.num_classes = 20;
  s.image_size = 32;
  s.noise = 0.45;
  s.jitter = 0.25;
  s.seed = 0x1A6E;
  s.name = "synthetic-imagenet";
  return s;
}

SyntheticDataset::SyntheticDataset(const SyntheticSpec& spec,
                                   std::int64_t n_train, std::int64_t n_test)
    : spec_(spec) {
  RADAR_REQUIRE(spec.num_classes >= 2, "need at least two classes");
  RADAR_REQUIRE(spec.channels == 3, "generator renders RGB images");
  Rng rng(spec.seed);
  // Class signatures: spread orientations/frequencies so classes are
  // separable but overlapping in color space.
  for (std::int64_t c = 0; c < spec.num_classes; ++c) {
    theta_.push_back(kPi * static_cast<double>(c) /
                         static_cast<double>(spec.num_classes) +
                     rng.uniform(-0.05, 0.05));
    freq_.push_back(2.0 + 6.0 * rng.uniform() );
    phase0_.push_back(rng.uniform(0.0, 2.0 * kPi));
    color_.push_back({rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0),
                      rng.uniform(0.3, 1.0)});
    blob_.push_back({rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)});
  }
  // Labels are round-robin and consume no randomness; the pixels of each
  // split come from its own forked stream (train first, then test).
  auto init_split = [&](Split& split, std::int64_t count) {
    split.rng = rng.fork();
    split.labels.resize(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i)
      split.labels[static_cast<std::size_t>(i)] =
          static_cast<int>(i % spec.num_classes);
  };
  init_split(train_, n_train);
  init_split(test_, n_test);
}

void SyntheticDataset::render_through(Split& split, std::int64_t end) const {
  if (end <= split.rendered) return;
  const std::int64_t s = spec_.image_size;
  if (split.rendered == 0) {
    split.images = nn::Tensor({static_cast<std::int64_t>(split.labels.size()),
                               spec_.channels, s, s});
  }
  const std::int64_t stride = spec_.channels * s * s;
  for (std::int64_t i = split.rendered; i < end; ++i) {
    render_sample(split.labels[static_cast<std::size_t>(i)], split.rng,
                  split.images.data() + i * stride);
  }
  split.rendered = end;
}

void SyntheticDataset::render_sample(int label, Rng& rng, float* out) const {
  const std::int64_t s = spec_.image_size;
  const auto c = static_cast<std::size_t>(label);
  // Per-sample perturbations of the class signature.
  const double theta = theta_[c] + spec_.jitter * rng.normal();
  const double freq = freq_[c] * (1.0 + 0.3 * spec_.jitter * rng.normal());
  const double phase = phase0_[c] + rng.uniform(0.0, 2.0 * kPi) * spec_.jitter;
  const double bx = blob_[c][0] + 0.1 * spec_.jitter * rng.normal();
  const double by = blob_[c][1] + 0.1 * spec_.jitter * rng.normal();
  const double ct = std::cos(theta), st = std::sin(theta);

  for (std::int64_t ch = 0; ch < spec_.channels; ++ch) {
    const double cw = color_[c][static_cast<std::size_t>(ch)];
    float* plane = out + ch * s * s;
    for (std::int64_t y = 0; y < s; ++y) {
      const double yn = static_cast<double>(y) / static_cast<double>(s);
      for (std::int64_t x = 0; x < s; ++x) {
        const double xn = static_cast<double>(x) / static_cast<double>(s);
        const double grating =
            std::sin(2.0 * kPi * freq * (xn * ct + yn * st) + phase);
        const double dx = xn - bx, dy = yn - by;
        const double blob = std::exp(-(dx * dx + dy * dy) / 0.02);
        const double v = cw * grating + 0.8 * blob +
                         spec_.noise * rng.normal();
        plane[y * s + x] = static_cast<float>(v);
      }
    }
  }
}

Batch SyntheticDataset::train_batch(std::int64_t batch_size, Rng& rng) const {
  RADAR_REQUIRE(batch_size > 0 && batch_size <= train_size(),
                "bad train batch size");
  Batch b;
  const std::int64_t s = spec_.image_size;
  const std::int64_t stride = spec_.channels * s * s;
  b.images = nn::Tensor({batch_size, spec_.channels, s, s});
  b.labels.resize(static_cast<std::size_t>(batch_size));
  std::lock_guard<std::mutex> lock(render_mu_);
  render_through(train_, train_size());
  for (std::int64_t i = 0; i < batch_size; ++i) {
    const auto idx =
        static_cast<std::int64_t>(rng.uniform_int(0, train_size() - 1));
    std::copy(train_.images.data() + idx * stride,
              train_.images.data() + (idx + 1) * stride,
              b.images.data() + i * stride);
    b.labels[static_cast<std::size_t>(i)] =
        train_.labels[static_cast<std::size_t>(idx)];
  }
  return b;
}

std::int64_t SyntheticDataset::rendered_images() const {
  std::lock_guard<std::mutex> lock(render_mu_);
  return train_.rendered + test_.rendered;
}

Batch SyntheticDataset::test_batch(std::int64_t start,
                                   std::int64_t count) const {
  RADAR_REQUIRE(start >= 0 && count >= 0 && start + count <= test_size(),
                "test batch out of range");
  Batch b;
  const std::int64_t s = spec_.image_size;
  const std::int64_t stride = spec_.channels * s * s;
  b.images = nn::Tensor({count, spec_.channels, s, s});
  b.labels.assign(test_.labels.begin() + start,
                  test_.labels.begin() + start + count);
  std::lock_guard<std::mutex> lock(render_mu_);
  render_through(test_, start + count);
  std::copy(test_.images.data() + start * stride,
            test_.images.data() + (start + count) * stride,
            b.images.data());
  return b;
}

Batch SyntheticDataset::attack_batch(std::int64_t batch_size,
                                     std::uint64_t seed) const {
  Rng rng(seed);
  return train_batch(batch_size, rng);
}

}  // namespace radar::data
