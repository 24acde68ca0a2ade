// Parameterized end-to-end detection properties of the full RadarScheme
// over (group size, interleave, signature width): the security contracts
// the paper relies on, checked on a real quantized network.
#include <gtest/gtest.h>

#include <tuple>

#include "common/bits.h"
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

class DetectionSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, bool, int>> {
 protected:
  DetectionSweep() : rng_(11), model_(tiny_spec(), rng_), qm_(model_) {}

  RadarScheme make_scheme() {
    auto [g, inter, bits] = GetParam();
    SchemeParams params;
    params.group_size = g;
    params.interleave = inter;
    RadarScheme scheme(params, bits);
    scheme.attach(qm_);
    return scheme;
  }

  Rng rng_;
  nn::ResNet model_;
  quant::QuantizedModel qm_;
};

TEST_P(DetectionSweep, EverySingleMsbFlipDetected) {
  RadarScheme scheme = make_scheme();
  const quant::ArenaSnapshot clean = qm_.snapshot();
  Rng rng(101);
  for (int trial = 0; trial < 40; ++trial) {
    const auto layer =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(qm_.num_layers()) - 1));
    const std::int64_t idx = rng.uniform_int(0, qm_.layer(layer).size() - 1);
    qm_.flip_bit(layer, idx, kMsb);
    const DetectionReport report = scheme.scan(qm_);
    EXPECT_TRUE(report.is_flagged(layer, scheme.layout(layer).group_of(idx)))
        << "layer " << layer << " idx " << idx;
    qm_.restore(clean);
  }
}

TEST_P(DetectionSweep, CleanStateNeverFlagged) {
  RadarScheme scheme = make_scheme();
  EXPECT_FALSE(scheme.scan(qm_).attack_detected());
}

TEST_P(DetectionSweep, TenRandomMsbFlipsMostlyDetected) {
  RadarScheme scheme = make_scheme();
  const quant::ArenaSnapshot clean = qm_.snapshot();
  Rng rng(202);
  std::int64_t detected = 0, total = 0;
  for (int round = 0; round < 10; ++round) {
    std::vector<std::pair<std::size_t, std::int64_t>> sites;
    for (int f = 0; f < 10; ++f) {
      const auto layer = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(qm_.num_layers()) - 1));
      const std::int64_t idx =
          rng.uniform_int(0, qm_.layer(layer).size() - 1);
      qm_.flip_bit(layer, idx, kMsb);
      sites.emplace_back(layer, idx);
    }
    const DetectionReport report = scheme.scan(qm_);
    detected += count_detected_flips(scheme, report, sites);
    total += 10;
    qm_.restore(clean);
    scheme.attach(qm_);  // fresh golden state per round
  }
  // The paper's detection ratios are >= 7/10 even in the worst sweep
  // point; random flips across a whole model should do at least that.
  EXPECT_GE(detected, (total * 7) / 10);
}

TEST_P(DetectionSweep, RecoveryClearsDetectionState) {
  RadarScheme scheme = make_scheme();
  const quant::ArenaSnapshot clean = qm_.snapshot();
  qm_.flip_bit(1, 3, kMsb);
  qm_.flip_bit(2, 30, kMsb);
  const DetectionReport report = scheme.scan(qm_);
  ASSERT_TRUE(report.attack_detected());
  scheme.recover(qm_, report, RecoveryPolicy::kReloadClean);
  EXPECT_FALSE(scheme.scan(qm_).attack_detected());
  qm_.restore(clean);
}

TEST_P(DetectionSweep, StorageMatchesConfiguredWidth) {
  auto [g, inter, bits] = GetParam();
  (void)inter;
  RadarScheme scheme = make_scheme();
  std::int64_t expected = 0;
  for (std::size_t li = 0; li < qm_.num_layers(); ++li) {
    const std::int64_t groups = (qm_.layer(li).size() + g - 1) / g;
    expected += (groups * bits + 7) / 8;
  }
  EXPECT_EQ(scheme.signature_storage_bytes(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DetectionSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(8, 32, 128, 512),
                       ::testing::Bool(), ::testing::Values(2, 3)),
    [](const ::testing::TestParamInfo<DetectionSweep::ParamType>& info) {
      return "G" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_ilv" : "_contig") + "_bits" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace radar::core
