// Synthetic dataset generator: determinism, balance, batching contracts.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>

#include "data/synthetic.h"

namespace radar::data {
namespace {

/// FNV-1a over a batch's image bytes, then its labels.
std::uint64_t fnv1a(const Batch& b) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 0x100000001b3ULL;
    }
  };
  mix(b.images.data(), sizeof(float) * static_cast<std::size_t>(
                                           b.images.numel()));
  mix(b.labels.data(), sizeof(int) * b.labels.size());
  return h;
}

/// Byte-for-byte equality of two batches (images and labels).
void expect_same_batch(const Batch& a, const Batch& b) {
  ASSERT_EQ(a.images.shape(), b.images.shape());
  EXPECT_EQ(std::memcmp(a.images.data(), b.images.data(),
                        sizeof(float) *
                            static_cast<std::size_t>(a.images.numel())),
            0);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Synthetic, DeterministicFromSeed) {
  const auto spec = synthetic_cifar_spec();
  SyntheticDataset a(spec, 64, 32);
  SyntheticDataset b(spec, 64, 32);
  Batch ta = a.test_batch(0, 32);
  Batch tb = b.test_batch(0, 32);
  EXPECT_EQ(nn::max_abs_diff(ta.images, tb.images), 0.0f);
  EXPECT_EQ(ta.labels, tb.labels);
}

TEST(Synthetic, DifferentSeedsProduceDifferentData) {
  auto spec_a = synthetic_cifar_spec();
  auto spec_b = spec_a;
  spec_b.seed += 1;
  SyntheticDataset a(spec_a, 16, 16);
  SyntheticDataset b(spec_b, 16, 16);
  EXPECT_GT(nn::max_abs_diff(a.test_batch(0, 16).images,
                             b.test_batch(0, 16).images),
            0.0f);
}

TEST(Synthetic, LabelsBalancedRoundRobin) {
  const auto spec = synthetic_cifar_spec();
  SyntheticDataset d(spec, 100, 50);
  std::vector<int> counts(10, 0);
  for (int l : d.test_labels()) counts[static_cast<std::size_t>(l)]++;
  for (int c : counts) EXPECT_EQ(c, 5);
}

TEST(Synthetic, TrainBatchShapeAndLabels) {
  const auto spec = synthetic_cifar_spec();
  SyntheticDataset d(spec, 128, 32);
  Rng rng(5);
  Batch b = d.train_batch(16, rng);
  EXPECT_EQ(b.images.shape(), (std::vector<std::int64_t>{16, 3, 32, 32}));
  EXPECT_EQ(b.labels.size(), 16u);
  for (int l : b.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 10);
  }
}

TEST(Synthetic, TestBatchRangeValidation) {
  const auto spec = synthetic_cifar_spec();
  SyntheticDataset d(spec, 32, 16);
  EXPECT_THROW(d.test_batch(10, 10), InvalidArgument);
  EXPECT_THROW(d.test_batch(-1, 4), InvalidArgument);
  EXPECT_THROW(d.test_batch(5, -3), InvalidArgument);
  EXPECT_NO_THROW(d.test_batch(6, 10));
  EXPECT_EQ(d.test_batch(16, 0).images.numel(), 0);
}

TEST(Synthetic, PixelsArePinned) {
  // The rendered pixels feed every trained checkpoint and campaign golden;
  // these hashes were taken from the eager (render-everything) generator.
  const SyntheticDataset d(synthetic_cifar_spec(), 64, 48);
  EXPECT_EQ(fnv1a(d.test_batch(0, 32)), 0xa290ada5a891a732ULL);
  EXPECT_EQ(fnv1a(d.attack_batch(16, 0xA77)), 0x1070f7374da85b20ULL);
}

TEST(Synthetic, LazyRenderingIsOrderIndependent) {
  for (const SyntheticSpec& spec :
       {synthetic_cifar_spec(), synthetic_imagenet_spec()}) {
    const std::int64_t n = 40;
    const SyntheticDataset a(spec, 64, n), b(spec, 64, n), c(spec, 64, n);
    // (a) a short prefix first, then the whole split.
    const Batch a_head = a.test_batch(0, 8);
    const Batch a_all = a.test_batch(0, n);
    const Batch a_atk = a.attack_batch(12, 7);
    // (b) the train split first, then a middle slice, then everything.
    const Batch b_atk = b.attack_batch(12, 7);
    const Batch b_mid = b.test_batch(17, 9);
    const Batch b_all = b.test_batch(0, n);
    // (c) the whole split at once.
    const Batch c_all = c.test_batch(0, n);
    const Batch c_mid = c.test_batch(17, 9);
    const Batch c_head = c.test_batch(0, 8);
    const Batch c_atk = c.attack_batch(12, 7);

    expect_same_batch(a_all, b_all);
    expect_same_batch(a_all, c_all);
    expect_same_batch(a_head, c_head);
    expect_same_batch(b_mid, c_mid);
    expect_same_batch(a_atk, b_atk);
    expect_same_batch(a_atk, c_atk);
  }
}

TEST(Synthetic, ConcurrentReadersMatchSerialReads) {
  const auto spec = synthetic_cifar_spec();
  const std::int64_t n = 48;
  const SyntheticDataset serial(spec, 96, n);
  const std::vector<std::int64_t> prefixes = {5, 17, 31, n};
  std::vector<Batch> want_test, want_atk;
  for (std::size_t t = 0; t < prefixes.size(); ++t) {
    want_test.push_back(serial.test_batch(0, prefixes[t]));
    want_atk.push_back(serial.attack_batch(8, 100 + t));
  }

  const SyntheticDataset shared(spec, 96, n);
  std::vector<Batch> got_test(prefixes.size()), got_atk(prefixes.size());
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < prefixes.size(); ++t) {
    readers.emplace_back([&, t] {
      // Alternate the split read first so both render paths race.
      if (t % 2 == 0) {
        got_test[t] = shared.test_batch(0, prefixes[t]);
        got_atk[t] = shared.attack_batch(8, 100 + t);
      } else {
        got_atk[t] = shared.attack_batch(8, 100 + t);
        got_test[t] = shared.test_batch(0, prefixes[t]);
      }
    });
  }
  for (std::thread& r : readers) r.join();
  for (std::size_t t = 0; t < prefixes.size(); ++t) {
    expect_same_batch(got_test[t], want_test[t]);
    expect_same_batch(got_atk[t], want_atk[t]);
  }
}

TEST(Synthetic, AttackBatchDeterministicInSeed) {
  const auto spec = synthetic_cifar_spec();
  SyntheticDataset d(spec, 64, 16);
  Batch a = d.attack_batch(8, 42);
  Batch b = d.attack_batch(8, 42);
  Batch c = d.attack_batch(8, 43);
  EXPECT_EQ(nn::max_abs_diff(a.images, b.images), 0.0f);
  EXPECT_GT(nn::max_abs_diff(a.images, c.images), 0.0f);
}

TEST(Synthetic, ImagenetSpecIsHarder) {
  const auto c = synthetic_cifar_spec();
  const auto i = synthetic_imagenet_spec();
  EXPECT_GT(i.num_classes, c.num_classes);
  EXPECT_GT(i.noise, c.noise);
}

TEST(Synthetic, ClassesAreVisuallyDistinct) {
  // Mean intra-class distance should be smaller than inter-class distance
  // (otherwise the task is unlearnable and all accuracy numbers collapse).
  const auto spec = synthetic_cifar_spec();
  SyntheticDataset d(spec, 200, 100);
  Batch b = d.test_batch(0, 100);
  const std::int64_t stride = 3 * 32 * 32;
  auto dist = [&](std::int64_t i, std::int64_t j) {
    double s = 0.0;
    for (std::int64_t k = 0; k < stride; ++k) {
      const double diff =
          b.images[i * stride + k] - b.images[j * stride + k];
      s += diff * diff;
    }
    return s;
  };
  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  for (std::int64_t i = 0; i < 40; ++i) {
    for (std::int64_t j = i + 1; j < 40; ++j) {
      if (b.labels[static_cast<std::size_t>(i)] ==
          b.labels[static_cast<std::size_t>(j)]) {
        intra += dist(i, j);
        ++n_intra;
      } else {
        inter += dist(i, j);
        ++n_inter;
      }
    }
  }
  ASSERT_GT(n_intra, 0);
  ASSERT_GT(n_inter, 0);
  EXPECT_LT(intra / n_intra, inter / n_inter);
}

TEST(Synthetic, RejectsDegenerateSpecs) {
  auto spec = synthetic_cifar_spec();
  spec.num_classes = 1;
  EXPECT_THROW(SyntheticDataset(spec, 8, 8), InvalidArgument);
}

}  // namespace
}  // namespace radar::data
