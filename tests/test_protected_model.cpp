// ProtectedModel: verified inference, alarms, telemetry, re-signing
// after zero-out recovery.
#include <gtest/gtest.h>

#include "core/protected_model.h"
#include "core/scheme.h"

namespace radar::core {
namespace {

nn::ResNetSpec tiny_spec() {
  nn::ResNetSpec s;
  s.num_classes = 4;
  s.base_width = 8;
  s.blocks_per_stage = {1, 1};
  s.name = "tiny";
  return s;
}

class ProtectedModelTest : public ::testing::Test {
 protected:
  ProtectedModelTest()
      : rng_(7), model_(tiny_spec(), rng_), qm_(model_), scheme_(config(), 2) {
    scheme_.attach(qm_);
  }

  static SchemeParams config() {
    SchemeParams c;
    c.group_size = 32;
    return c;
  }

  Rng rng_;
  nn::ResNet model_;
  quant::QuantizedModel qm_;
  RadarScheme scheme_;
};

TEST_F(ProtectedModelTest, CleanInferenceMatchesUnprotected) {
  ProtectedModel pm(qm_, scheme_);
  nn::Tensor x = nn::Tensor::randn({2, 3, 32, 32}, rng_);
  nn::Tensor y_plain = qm_.forward(x);
  nn::Tensor y_protected = pm.forward(x);
  EXPECT_EQ(nn::max_abs_diff(y_plain, y_protected), 0.0f);
  EXPECT_EQ(pm.scans(), 1);
  EXPECT_EQ(pm.detections(), 0);
}

TEST_F(ProtectedModelTest, AttackTriggersDetectionAndRecovery) {
  ProtectedModel pm(qm_, scheme_);
  qm_.flip_bit(1, 3, 7);
  nn::Tensor x = nn::Tensor::randn({1, 3, 32, 32}, rng_);
  pm.forward(x);
  EXPECT_EQ(pm.detections(), 1);
  EXPECT_GE(pm.groups_recovered(), 1);
  // The flipped weight's group was zeroed.
  EXPECT_EQ(qm_.get_code(1, 3), 0);
}

TEST_F(ProtectedModelTest, RecoveredStateScansCleanNextTime) {
  ProtectedModel pm(qm_, scheme_);
  qm_.flip_bit(1, 3, 7);
  pm.check_and_recover();
  EXPECT_EQ(pm.detections(), 1);
  // Second scan: zeroed group was re-signed, no repeated alarm.
  pm.check_and_recover();
  EXPECT_EQ(pm.detections(), 1);
  EXPECT_EQ(pm.scans(), 2);
}

TEST_F(ProtectedModelTest, AlarmCallbackFires) {
  ProtectedModel pm(qm_, scheme_);
  int alarms = 0;
  std::int64_t flagged = 0;
  pm.set_alarm([&](const DetectionReport& r) {
    ++alarms;
    flagged = r.num_flagged_groups();
  });
  pm.check_and_recover();  // clean: no alarm
  EXPECT_EQ(alarms, 0);
  qm_.flip_bit(0, 0, 7);
  pm.check_and_recover();
  EXPECT_EQ(alarms, 1);
  EXPECT_GE(flagged, 1);
}

TEST_F(ProtectedModelTest, ReloadPolicyRestoresCleanWeights) {
  ProtectedModel pm(qm_, scheme_, RecoveryPolicy::kReloadClean);
  const std::int8_t orig = qm_.get_code(2, 10);
  qm_.flip_bit(2, 10, 7);
  pm.check_and_recover();
  EXPECT_EQ(qm_.get_code(2, 10), orig);
  // Reload leaves the model in its golden state: clean scan after.
  EXPECT_FALSE(scheme_.scan(qm_).attack_detected());
}

TEST_F(ProtectedModelTest, LayerwiseForwardMatchesCleanInference) {
  ProtectedModel pm(qm_, scheme_);
  nn::Tensor x = nn::Tensor::randn({2, 3, 32, 32}, rng_);
  nn::Tensor y_plain = qm_.forward(x);
  nn::Tensor y_layerwise = pm.forward_layerwise(x);
  EXPECT_EQ(nn::max_abs_diff(y_plain, y_layerwise), 0.0f);
  EXPECT_EQ(pm.detections(), 0);
}

TEST_F(ProtectedModelTest, LayerwiseForwardDetectsAndRecoversInline) {
  ProtectedModel pm(qm_, scheme_);
  qm_.flip_bit(1, 3, 7);
  qm_.flip_bit(4, 9, 7);
  nn::Tensor x = nn::Tensor::randn({1, 3, 32, 32}, rng_);
  pm.forward_layerwise(x);
  // Two separate layers detected (each on its own fetch).
  EXPECT_EQ(pm.detections(), 2);
  EXPECT_EQ(qm_.get_code(1, 3), 0);
  EXPECT_EQ(qm_.get_code(4, 9), 0);
  // Second run: recovered state was re-signed, no repeated alarms.
  pm.forward_layerwise(x);
  EXPECT_EQ(pm.detections(), 2);
}

TEST_F(ProtectedModelTest, LayerwiseAndWholeModelAgreeOnRecovery) {
  // The same attack recovered layerwise vs whole-model must leave the
  // weights in the same state (same groups zeroed).
  const quant::ArenaSnapshot clean = qm_.snapshot();
  qm_.flip_bit(2, 11, 7);
  const quant::ArenaSnapshot attacked = qm_.snapshot();

  ProtectedModel pm1(qm_, scheme_);
  nn::Tensor x = nn::Tensor::randn({1, 3, 32, 32}, rng_);
  pm1.forward_layerwise(x);
  const quant::ArenaSnapshot after_layerwise = qm_.snapshot();

  qm_.restore(attacked);
  scheme_.attach(qm_);  // fresh golden computed from... rebuild below
  qm_.restore(clean);
  scheme_.attach(qm_);
  qm_.restore(attacked);
  ProtectedModel pm2(qm_, scheme_);
  pm2.check_and_recover();
  EXPECT_EQ(qm_.snapshot(), after_layerwise);
  qm_.restore(clean);
}

TEST_F(ProtectedModelTest, RequiresAttachedScheme) {
  RadarScheme fresh(config(), 2);
  EXPECT_THROW(ProtectedModel(qm_, fresh), InvalidArgument);
}

TEST_F(ProtectedModelTest, RecoveryChangesCorruptedOutputs) {
  // Zero-out recovery replaces the corrupted group: outputs must move off
  // the attacked trajectory, and the huge dequantized weights introduced
  // by MSB flips must be gone.
  ProtectedModel pm(qm_, scheme_);
  nn::Tensor x = nn::Tensor::randn({4, 3, 32, 32}, rng_);

  const quant::ArenaSnapshot clean = qm_.snapshot();
  // Corrupt small weights' MSBs in layer 1 (large value swing).
  std::vector<std::int64_t> victims;
  for (std::int64_t i = 0; i < qm_.layer(1).size() && victims.size() < 4; ++i)
    if (std::abs(qm_.get_code(1, i)) < 16) victims.push_back(i);
  for (const auto i : victims) qm_.flip_bit(1, i, 7);
  for (const auto i : victims)
    EXPECT_GE(std::abs(static_cast<int>(qm_.get_code(1, i))), 112);
  nn::Tensor y_attacked = qm_.forward(x);

  pm.check_and_recover();
  for (const auto i : victims) EXPECT_EQ(qm_.get_code(1, i), 0);
  nn::Tensor y_recovered = qm_.forward(x);
  EXPECT_GT(nn::max_abs_diff(y_attacked, y_recovered), 0.0f);
  qm_.restore(clean);
}

}  // namespace
}  // namespace radar::core
