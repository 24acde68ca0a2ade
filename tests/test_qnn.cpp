// Integer inference kernels and batch-norm folding.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "data/trainer.h"
#include "nn/fold.h"
#include "qnn/kernels.h"
#include "qnn/qtensor.h"
#include "quant/qmodel.h"

namespace radar::qnn {
namespace {

TEST(QTensor, QuantizeDequantizeBounded) {
  Rng rng(1);
  nn::Tensor x = nn::Tensor::randn({64}, rng, 2.0f);
  const float scale = choose_activation_scale(x);
  QTensor q = quantize_activation(x, scale);
  nn::Tensor back = dequantize(q);
  EXPECT_LE(nn::max_abs_diff(x, back), scale * 0.5f + 1e-6f);
}

TEST(QTensor, ClampsToSymmetricRange) {
  nn::Tensor x = nn::Tensor::from_vector({3}, {100.0f, -100.0f, 0.0f});
  QTensor q = quantize_activation(x, 0.1f);  // would need ±1000
  EXPECT_EQ(q.data[0], 127);
  EXPECT_EQ(q.data[1], -127);
  EXPECT_EQ(q.data[2], 0);
}

TEST(QTensor, ScaleMustBePositive) {
  nn::Tensor x({4});
  EXPECT_THROW(quantize_activation(x, 0.0f), InvalidArgument);
}

TEST(QTensor, ZeroTensorScaleFallsBackToOne) {
  nn::Tensor x({8});
  EXPECT_FLOAT_EQ(choose_activation_scale(x), 1.0f);
}

/// quantize_activations_into's scalar expression, written out here: clamp,
/// +-0.5, truncate, and 0 for a NaN.
std::int8_t quantize_reference(float x, float inv_scale) {
  float v = x * inv_scale;
  if (std::isnan(v)) return 0;
  v = v > 127.0f ? 127.0f : v;
  v = v < -127.0f ? -127.0f : v;
  v += v >= 0.0f ? 0.5f : -0.5f;
  return static_cast<std::int8_t>(static_cast<std::int32_t>(v));
}

TEST(QTensor, ActivationQuantizeMatchesScalarAtBoundaries) {
  // Values that land on k + 0.5, on and just past +-127, +-0, just either
  // side of +-0.5, huge and non-finite. Each rotation of the buffer moves
  // every value through the 16-wide vector body and the scalar tail.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> values = {
      0.0f, -0.0f, 0.5f, -0.5f, 1.5f, -1.5f, 2.5f, -2.5f, 126.5f, -126.5f,
      127.0f, -127.0f, 127.5f, -127.5f, 128.0f, -128.0f,
      std::nextafter(127.0f, inf), std::nextafter(-127.0f, -inf),
      std::nextafter(126.5f, 0.0f), std::nextafter(-126.5f, 0.0f),
      std::nextafter(0.5f, 0.0f), std::nextafter(-0.5f, 0.0f),
      std::nextafter(0.5f, 1.0f), std::nextafter(-0.5f, -1.0f),
      1e30f, -1e30f, inf, -inf, nan, -nan, 3.0f, -3.0f, 0.25f};
  const std::size_t n = values.size();  // 33: two vectors and a tail of 1
  for (const float inv_scale : {1.0f, 4.0f, 0.25f}) {
    for (std::size_t rot = 0; rot < n; ++rot) {
      std::vector<float> x(n);
      for (std::size_t i = 0; i < n; ++i)
        x[i] = values[(i + rot) % n] / inv_scale;
      std::vector<std::int8_t> q(n, 99);
      quantize_activations_into(x.data(), n, inv_scale, q.data());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(q[i], quantize_reference(x[i], inv_scale))
            << "x=" << x[i] << " inv_scale=" << inv_scale << " at " << i;
    }
  }
  // A few pinned outcomes of the expression itself.
  const float pinned[] = {2.5f, -2.5f, 127.5f, 128.0f, -inf, nan, -0.0f,
                          std::nextafter(0.5f, 0.0f)};
  const std::int8_t want[] = {3, -3, 127, 127, -127, 0, 0, 1};
  std::int8_t got[8];
  quantize_activations_into(pinned, 8, 1.0f, got);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(got[i], want[i]) << pinned[i];
}

/// Integer conv must agree with the float conv applied to the
/// dequantized operands (exactly: both compute the same polynomial).
TEST(Kernels, ConvMatchesFloatReferenceExactly) {
  Rng rng(2);
  ConvGeom geom;
  geom.in_channels = 3;
  geom.out_channels = 4;
  geom.kernel = 3;
  geom.stride = 1;
  geom.padding = 1;

  // Integer operands.
  std::vector<std::int8_t> w(static_cast<std::size_t>(4 * 3 * 9));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  const float w_scale = 0.01f;
  QTensor x;
  x.shape = {2, 3, 6, 6};
  x.scale = 0.05f;
  x.data.resize(static_cast<std::size_t>(x.numel()));
  for (auto& v : x.data)
    v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));

  nn::Tensor y_int = conv2d_i8(x, w, w_scale, geom, {});

  // Float reference via the training-path conv.
  nn::Conv2d conv(3, 4, 3, 1, 1, /*bias=*/false, rng);
  for (std::size_t i = 0; i < w.size(); ++i)
    conv.weight().value[static_cast<std::int64_t>(i)] =
        static_cast<float>(w[i]) * w_scale;
  nn::Tensor y_float = conv.forward(dequantize(x), nn::Mode::kEval);

  EXPECT_LT(nn::max_abs_diff(y_int, y_float), 1e-4f);
}

TEST(Kernels, ConvBiasAndStride) {
  Rng rng(3);
  ConvGeom geom;
  geom.in_channels = 2;
  geom.out_channels = 2;
  geom.kernel = 3;
  geom.stride = 2;
  geom.padding = 1;
  std::vector<std::int8_t> w(static_cast<std::size_t>(2 * 2 * 9), 1);
  std::vector<float> bias = {0.5f, -0.5f};
  QTensor x;
  x.shape = {1, 2, 5, 5};
  x.scale = 1.0f;
  x.data.assign(static_cast<std::size_t>(x.numel()), 0);
  nn::Tensor y = conv2d_i8(x, w, 1.0f, geom, bias);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{1, 2, 3, 3}));
  EXPECT_FLOAT_EQ(y[y.idx4(0, 0, 0, 0)], 0.5f);   // all-zero input: bias
  EXPECT_FLOAT_EQ(y[y.idx4(0, 1, 2, 2)], -0.5f);
}

TEST(Kernels, LinearMatchesFloatReference) {
  Rng rng(4);
  const std::int64_t f = 16, out = 5;
  std::vector<std::int8_t> w(static_cast<std::size_t>(out * f));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  QTensor x;
  x.shape = {3, f};
  x.scale = 0.02f;
  x.data.resize(static_cast<std::size_t>(x.numel()));
  for (auto& v : x.data)
    v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));

  nn::Tensor y = linear_i8(x, w, 0.03f, out, {});

  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t o = 0; o < out; ++o) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < f; ++k)
        acc += static_cast<double>(x.data[static_cast<std::size_t>(i * f + k)]) *
               w[static_cast<std::size_t>(o * f + k)];
      EXPECT_NEAR(y[y.idx2(i, o)], acc * 0.02 * 0.03, 1e-4);
    }
  }
}

TEST(Kernels, GeometryValidation) {
  QTensor x;
  x.shape = {1, 2, 4, 4};
  x.data.assign(32, 0);
  ConvGeom geom;
  geom.in_channels = 3;  // mismatch
  geom.out_channels = 1;
  std::vector<std::int8_t> w(27, 0);
  EXPECT_THROW(conv2d_i8(x, w, 1.0f, geom, {}), InvalidArgument);
}

TEST(Fold, ConvBnFoldPreservesEvalOutput) {
  Rng rng(5);
  nn::Conv2d conv(3, 8, 3, 1, 1, /*bias=*/false, rng);
  nn::BatchNorm2d bn(8);
  // Give BN non-trivial statistics and affine parameters.
  nn::Tensor warm = nn::Tensor::randn({8, 8, 6, 6}, rng, 2.0f);
  bn.forward(warm, nn::Mode::kTrain);
  for (std::int64_t c = 0; c < 8; ++c) {
    bn.gamma().value[c] = 0.5f + 0.1f * static_cast<float>(c);
    bn.beta().value[c] = -0.2f * static_cast<float>(c);
  }

  nn::Tensor x = nn::Tensor::randn({2, 3, 6, 6}, rng);
  nn::Tensor before =
      bn.forward(conv.forward(x, nn::Mode::kEval), nn::Mode::kEval);
  nn::fold_conv_bn(conv, bn);
  nn::Tensor after =
      bn.forward(conv.forward(x, nn::Mode::kEval), nn::Mode::kEval);
  EXPECT_LT(nn::max_abs_diff(before, after), 2e-4f);
  EXPECT_TRUE(conv.has_bias());
}

TEST(Fold, WholeResnetFoldPreservesEvalOutput) {
  Rng rng(6);
  nn::ResNetSpec spec;
  spec.num_classes = 4;
  spec.base_width = 8;
  spec.blocks_per_stage = {1, 1};
  nn::ResNet model(spec, rng);
  // Push non-trivial running statistics through every BN.
  nn::Tensor warm = nn::Tensor::randn({8, 3, 16, 16}, rng);
  model.forward(warm, nn::Mode::kTrain);

  nn::Tensor x = nn::Tensor::randn({2, 3, 16, 16}, rng);
  nn::Tensor before = model.forward(x, nn::Mode::kEval);
  nn::fold_batchnorm(model);
  nn::Tensor after = model.forward(x, nn::Mode::kEval);
  EXPECT_LT(nn::max_abs_diff(before, after),
            5e-4f * std::max(1.0f, before.abs_max()));
}

TEST(Fold, FoldedModelQuantizesAndRemainsAccurate) {
  // The deployment pipeline: train -> fold BN -> quantize -> (protect).
  Rng rng(7);
  nn::ResNetSpec spec;
  spec.num_classes = 4;
  spec.base_width = 8;
  spec.blocks_per_stage = {1};
  nn::ResNet model(spec, rng);
  data::SyntheticSpec ds = data::synthetic_cifar_spec();
  ds.image_size = 16;
  ds.num_classes = 4;
  data::SyntheticDataset dataset(ds, 256, 128);
  data::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  tc.batches_per_epoch = 12;
  tc.lr = 0.005f;
  tc.verbose = false;
  data::train(model, dataset, tc);
  const double float_acc = data::evaluate(model, dataset);

  nn::fold_batchnorm(model);
  quant::QuantizedModel qm(model);
  const double q_acc = data::evaluate(
      [&qm](const nn::Tensor& x) { return qm.forward(x); }, dataset);
  EXPECT_GT(q_acc, float_acc - 0.1);
}

}  // namespace
}  // namespace radar::qnn
