// Quantizer and QuantizedModel: rounding contracts, bit-flip mutation,
// float-mirror synchronization, snapshots, and the network-less model
// built from an arena table alone.
#include <gtest/gtest.h>

#include <cmath>

#include "data/model_recipe.h"
#include "quant/qmodel.h"
#include "quant/quantizer.h"

namespace radar::quant {
namespace {

TEST(Quantizer, ScaleFromAbsMax) {
  nn::Tensor w = nn::Tensor::from_vector({4}, {0.5f, -1.27f, 0.1f, 1.0f});
  QuantResult r = quantize_symmetric(w);
  EXPECT_FLOAT_EQ(r.scale, 1.27f / 127.0f);
  EXPECT_EQ(r.q[1], -127);
}

TEST(Quantizer, RoundingErrorBounded) {
  Rng rng(1);
  nn::Tensor w = nn::Tensor::randn({1000}, rng, 0.05f);
  QuantResult r = quantize_symmetric(w);
  // Round-to-nearest: error at most scale/2 (plus fp noise).
  EXPECT_LE(quantization_error(w, r), r.scale * 0.5f + 1e-6f);
}

TEST(Quantizer, AllZeroTensor) {
  nn::Tensor w({16});
  QuantResult r = quantize_symmetric(w);
  EXPECT_FLOAT_EQ(r.scale, 1.0f);
  for (auto q : r.q) EXPECT_EQ(q, 0);
}

TEST(Quantizer, ExtremesHitFullRange) {
  nn::Tensor w = nn::Tensor::from_vector({2}, {1.0f, -1.0f});
  QuantResult r = quantize_symmetric(w);
  EXPECT_EQ(r.q[0], 127);
  EXPECT_EQ(r.q[1], -127);
}

TEST(Quantizer, DequantizeRoundTripIsIdempotent) {
  Rng rng(2);
  nn::Tensor w = nn::Tensor::randn({64}, rng);
  QuantResult r1 = quantize_symmetric(w);
  nn::Tensor dq({64});
  dequantize_into(r1.q, r1.scale, dq.data());
  QuantResult r2 = quantize_symmetric(dq);
  // Quantizing already-quantized values must be exact.
  EXPECT_EQ(r1.q, r2.q);
}

class QuantModelTest : public ::testing::Test {
 protected:
  QuantModelTest() : rng_(3), model_(nn::ResNetSpec::resnet20(10), rng_) {}
  Rng rng_;
  nn::ResNet model_;
};

TEST_F(QuantModelTest, QuantizesAllConvAndFcLayers) {
  QuantizedModel qm(model_);
  EXPECT_EQ(qm.num_layers(), 22u);
  EXPECT_EQ(qm.total_weights(), 270896);
}

TEST_F(QuantModelTest, FloatMirrorMatchesCodes) {
  QuantizedModel qm(model_);
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    const auto& l = qm.layer(li);
    for (std::int64_t i = 0; i < std::min<std::int64_t>(l.size(), 50); ++i) {
      EXPECT_FLOAT_EQ(l.param->value[i],
                      dequantize(l.q[static_cast<std::size_t>(i)], l.scale));
    }
  }
}

TEST_F(QuantModelTest, FlipBitUpdatesCodeAndMirror) {
  QuantizedModel qm(model_);
  const std::int8_t before = qm.get_code(0, 5);
  const std::int8_t returned = qm.flip_bit(0, 5, 7);
  EXPECT_EQ(returned, before);
  const std::int8_t after = qm.get_code(0, 5);
  EXPECT_NE(after, before);
  EXPECT_EQ(static_cast<std::uint8_t>(after ^ before), 0x80);
  EXPECT_FLOAT_EQ(qm.layer(0).param->value[5],
                  dequantize(after, qm.layer(0).scale));
}

TEST_F(QuantModelTest, FlipIsReversible) {
  QuantizedModel qm(model_);
  const std::int8_t orig = qm.get_code(3, 17);
  qm.flip_bit(3, 17, 2);
  qm.flip_bit(3, 17, 2);
  EXPECT_EQ(qm.get_code(3, 17), orig);
}

TEST_F(QuantModelTest, SnapshotRestoreRoundTrip) {
  QuantizedModel qm(model_);
  const ArenaSnapshot snap = qm.snapshot();
  const float mirror_before = qm.layer(1).param->value[0];
  qm.flip_bit(1, 0, 7);
  qm.flip_bit(4, 100, 6);
  qm.restore(snap);
  EXPECT_EQ(qm.get_code(1, 0), snap.span(1)[0]);
  EXPECT_FLOAT_EQ(qm.layer(1).param->value[0], mirror_before);
}

TEST_F(QuantModelTest, ForwardChangesAfterMsbFlips) {
  QuantizedModel qm(model_);
  nn::Tensor x = nn::Tensor::randn({1, 3, 32, 32}, rng_);
  nn::Tensor y0 = qm.forward(x);
  // Flip MSBs of a few first-layer weights: output must change.
  for (std::int64_t i = 0; i < 5; ++i) qm.flip_bit(0, i, 7);
  nn::Tensor y1 = qm.forward(x);
  EXPECT_GT(nn::max_abs_diff(y0, y1), 0.0f);
}

TEST_F(QuantModelTest, OutOfRangeAccessThrows) {
  QuantizedModel qm(model_);
  EXPECT_THROW(qm.get_code(0, qm.layer(0).size()), InvalidArgument);
  EXPECT_THROW(qm.flip_bit(0, -1, 7), InvalidArgument);
  EXPECT_THROW(qm.get_code(99, 0), std::out_of_range);
}

TEST_F(QuantModelTest, RestoreRejectsForeignSnapshot) {
  QuantizedModel qm(model_);
  const ArenaSnapshot empty;  // never captured: wrong geometry
  EXPECT_THROW(qm.restore(empty), InvalidArgument);
}

TEST_F(QuantModelTest, QuantizedAccuracyCloseToFloat) {
  // Quantization of a *random-init* network: outputs should still be
  // highly correlated (scale-preserving), sanity-checking the pipeline.
  nn::Tensor x = nn::Tensor::randn({4, 3, 32, 32}, rng_);
  Rng rng2(3);
  nn::ResNet fresh(nn::ResNetSpec::resnet20(10), rng2);
  nn::Tensor y_float = fresh.forward(x);
  QuantizedModel qm(model_);  // model_ has identical init (same seed)
  nn::Tensor y_quant = qm.forward(x);
  EXPECT_LT(nn::max_abs_diff(y_float, y_quant),
            0.25f * std::max(1.0f, y_float.abs_max()));
}

// ---------------------------------------------------------------------
// Network-less models: the arena table alone (the serving path).
// ---------------------------------------------------------------------

/// A network-less model over `qm`'s table (offsets cleared: the
/// constructor must reassign them) holding `qm`'s codes.
QuantizedModel networkless_copy(const QuantizedModel& qm) {
  std::vector<ArenaLayer> table = qm.arena().table();
  std::vector<float> scales;
  for (ArenaLayer& l : table) {
    l.offset = 0;
    scales.push_back(l.scale);
  }
  QuantizedModel out(std::move(table));
  out.load_weights(qm.arena().bytes(), scales);
  return out;
}

TEST(NetworklessModel, TableGeometryEqualsTheNetworkBuiltArena) {
  for (const nn::ResNetSpec& spec :
       {data::model_recipe("tiny").spec, nn::ResNetSpec::resnet20(10)}) {
    Rng rng(5);
    nn::ResNet net(spec, rng);
    const QuantizedModel qm(net);
    std::vector<ArenaLayer> table = qm.arena().table();
    for (ArenaLayer& l : table) l.offset = 0;
    const QuantizedModel nl(std::move(table));
    EXPECT_FALSE(nl.has_network());
    ASSERT_EQ(nl.num_layers(), qm.num_layers()) << spec.name;
    EXPECT_EQ(nl.total_weights(), qm.total_weights());
    EXPECT_EQ(nl.arena().size_bytes(), qm.arena().size_bytes());
    for (std::size_t i = 0; i < qm.num_layers(); ++i) {
      const ArenaLayer& a = nl.arena().layer(i);
      const ArenaLayer& b = qm.arena().layer(i);
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.offset, b.offset) << b.name;
      EXPECT_EQ(a.size, b.size) << b.name;
      EXPECT_EQ(a.scale, b.scale) << b.name;
      EXPECT_EQ(nl.layer(i).name, b.name);
      EXPECT_EQ(nl.layer(i).scale, b.scale);
      EXPECT_EQ(nl.layer(i).param, nullptr);
      EXPECT_EQ(nl.layer(i).q.data() - nl.arena().bytes().data(), b.offset);
    }
    // Codes start at zero until load_weights fills them.
    for (const std::int8_t c : nl.arena().bytes()) ASSERT_EQ(c, 0);
  }
}

TEST_F(QuantModelTest, NetworklessWritesMatchTheMirroredModel) {
  QuantizedModel qm(model_);
  QuantizedModel nl = networkless_copy(qm);
  EXPECT_EQ(nl.snapshot(), qm.snapshot()) << "load_weights is exact";
  const ArenaSnapshot clean = qm.snapshot();

  qm.set_code(2, 40, -77);
  nl.set_code(2, 40, -77);
  EXPECT_EQ(nl.flip_bit(5, 123, 7), qm.flip_bit(5, 123, 7));
  EXPECT_EQ(nl.flip_bit(0, 0, 3), qm.flip_bit(0, 0, 3));
  EXPECT_EQ(nl.snapshot(), qm.snapshot()) << "set_code / flip_bit";

  nl.restore(clean);
  EXPECT_EQ(nl.snapshot(), clean) << "restore";

  nl.set_dirty_tracking(true);
  nl.flip_bit(7, 9, 6);
  nl.set_code(7, 9, 12);
  nl.flip_bit(21, 1, 7);
  EXPECT_FALSE(nl.dirty_matches_baseline());
  nl.undo_dirty();
  EXPECT_EQ(nl.snapshot(), clean) << "undo_dirty";
  EXPECT_TRUE(nl.dirty_matches_baseline());
  nl.sync_all();  // no mirror: a no-op
  EXPECT_EQ(nl.snapshot(), clean);
}

TEST(NetworklessModel, NetworkAndForwardThrow) {
  Rng rng(6);
  nn::ResNet net(data::model_recipe("tiny").spec, rng);
  const QuantizedModel qm(net);
  QuantizedModel nl = networkless_copy(qm);
  const QuantizedModel& cnl = nl;
  EXPECT_THROW(nl.network(), InvalidArgument);
  EXPECT_THROW(cnl.network(), InvalidArgument);
  EXPECT_THROW(nl.forward(nn::Tensor::randn({1, 3, 16, 16}, rng)),
               InvalidArgument);
  EXPECT_THROW(QuantizedModel(std::vector<ArenaLayer>{}), InvalidArgument);
}

}  // namespace
}  // namespace radar::quant
