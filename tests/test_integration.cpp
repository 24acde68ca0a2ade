// End-to-end pipeline: train -> quantize -> attack -> detect -> recover.
// A scaled-down version of the paper's whole experimental loop, asserting
// the qualitative claims (attack hurts, RADAR detects, recovery restores).
#include <gtest/gtest.h>

#include <map>

#include "attack/pbfa.h"
#include "attack/random_attack.h"
#include "core/protected_model.h"
#include "core/scheme.h"
#include "data/trainer.h"

namespace radar {
namespace {

struct Pipeline {
  Pipeline() : rng(99), model(spec(), rng) {
    data::SyntheticSpec ds = data::synthetic_cifar_spec();
    ds.image_size = 16;
    ds.num_classes = 4;
    ds.noise = 0.25;
    dataset = std::make_unique<data::SyntheticDataset>(ds, 512, 256);
    data::TrainConfig tc;
    tc.epochs = 5;
    tc.batch_size = 32;
    tc.batches_per_epoch = 24;
    tc.lr = 0.005f;
    tc.verbose = false;
    data::train(model, *dataset, tc);
    qm = std::make_unique<quant::QuantizedModel>(model);
    clean_acc = accuracy();
  }

  static nn::ResNetSpec spec() {
    nn::ResNetSpec s;
    s.num_classes = 4;
    s.base_width = 8;
    s.blocks_per_stage = {1, 1};
    s.name = "tiny";
    return s;
  }

  double accuracy() {
    return data::evaluate(
        [this](const nn::Tensor& x) { return qm->forward(x); }, *dataset);
  }

  Rng rng;
  nn::ResNet model;
  std::unique_ptr<data::SyntheticDataset> dataset;
  std::unique_ptr<quant::QuantizedModel> qm;
  double clean_acc = 0.0;
};

Pipeline& pipeline() {
  static Pipeline p;
  return p;
}

TEST(Integration, TrainingReachesUsableAccuracy) {
  Pipeline& p = pipeline();
  EXPECT_GT(p.clean_acc, 0.6) << "quantized test accuracy too low";
}

TEST(Integration, PbfaDegradesAccuracySignificantly) {
  Pipeline& p = pipeline();
  const quant::ArenaSnapshot clean = p.qm->snapshot();
  attack::Pbfa pbfa;
  data::Batch batch = p.dataset->attack_batch(32, 123);
  pbfa.run(*p.qm, batch, 8);
  const double attacked = p.accuracy();
  EXPECT_LT(attacked, p.clean_acc - 0.15)
      << "PBFA should cause a large accuracy drop";
  p.qm->restore(clean);
}

TEST(Integration, PbfaBeatsRandomFlipsAtEqualBudget) {
  // The paper's premise: random flips are a weak attack.
  Pipeline& p = pipeline();
  const quant::ArenaSnapshot clean = p.qm->snapshot();

  attack::Pbfa pbfa;
  data::Batch batch = p.dataset->attack_batch(32, 123);
  pbfa.run(*p.qm, batch, 8);
  const double pbfa_acc = p.accuracy();
  p.qm->restore(clean);

  double random_acc_sum = 0.0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    Rng rng(200 + t);
    attack::random_bit_flips(*p.qm, 8, rng);
    random_acc_sum += p.accuracy();
    p.qm->restore(clean);
  }
  EXPECT_LT(pbfa_acc, random_acc_sum / trials);
}

TEST(Integration, RadarDetectsMostPbfaFlips) {
  Pipeline& p = pipeline();
  const quant::ArenaSnapshot clean = p.qm->snapshot();

  core::SchemeParams cfg;
  cfg.group_size = 64;
  cfg.interleave = true;
  core::RadarScheme scheme(cfg, 2);
  scheme.attach(*p.qm);

  attack::Pbfa pbfa;
  data::Batch batch = p.dataset->attack_batch(32, 321);
  attack::AttackResult r = pbfa.run(*p.qm, batch, 8);

  const core::DetectionReport report = scheme.scan(*p.qm);
  // The hard guarantee (parity bit SB): every group containing an ODD
  // number of MSB flips is flagged. Even-count groups can cancel (the
  // Fig. 2 clustering effect — this 5k-weight model has very few groups
  // per layer at G=64), and lower-bit flips are only probabilistically
  // visible; both are quantified by the benches, not asserted here.
  std::map<std::pair<std::size_t, std::int64_t>, int> msb_per_group;
  for (const auto& f : r.flips) {
    if (!f.flips_msb()) continue;
    msb_per_group[{f.layer, scheme.layout(f.layer).group_of(f.index)}]++;
  }
  int odd_groups = 0;
  for (const auto& [key, count] : msb_per_group) {
    if (count % 2 == 0) continue;
    ++odd_groups;
    EXPECT_TRUE(report.is_flagged(key.first, key.second))
        << "layer " << key.first << " group " << key.second << " holds "
        << count << " MSB flips but was not flagged";
  }
  EXPECT_GT(odd_groups, 0) << "attack produced no odd-count MSB group";
  p.qm->restore(clean);
}

TEST(Integration, RecoveryRestoresAccuracyAndLoss) {
  Pipeline& p = pipeline();
  const quant::ArenaSnapshot clean = p.qm->snapshot();

  core::SchemeParams cfg;
  cfg.group_size = 16;  // fine groups: little collateral zeroing
  core::RadarScheme scheme(cfg, 2);
  scheme.attach(*p.qm);

  attack::Pbfa pbfa;
  data::Batch batch = p.dataset->attack_batch(32, 55);
  pbfa.run(*p.qm, batch, 10);
  const double attacked_acc = p.accuracy();
  data::Batch probe = p.dataset->test_batch(0, 128);
  const float attacked_loss = attack::evaluate_loss(*p.qm, probe);

  const core::DetectionReport report = scheme.scan(*p.qm);
  scheme.recover(*p.qm, report, core::RecoveryPolicy::kZeroOut);
  const double recovered_acc = p.accuracy();
  const float recovered_loss = attack::evaluate_loss(*p.qm, probe);

  // Removing the huge corrupted weights must reduce the loss; accuracy
  // must not get worse and should land near the clean level. (On this
  // 4-class toy, PBFA often kills one fc class row; zeroing it caps
  // recovery at 3/4 — the full-scale effect is measured by the benches.)
  EXPECT_LT(recovered_loss, attacked_loss);
  EXPECT_GE(recovered_acc, attacked_acc);
  EXPECT_GE(recovered_acc, p.clean_acc - 0.3)
      << "zero-out recovery should restore close to clean accuracy";
  p.qm->restore(clean);
}

TEST(Integration, ProtectedModelSurvivesRepeatedRuntimeAttacks) {
  Pipeline& p = pipeline();
  const quant::ArenaSnapshot clean = p.qm->snapshot();

  core::SchemeParams cfg;
  cfg.group_size = 32;
  core::RadarScheme scheme(cfg, 2);
  scheme.attach(*p.qm);
  core::ProtectedModel pm(*p.qm, scheme);

  data::Batch probe = p.dataset->test_batch(0, 16);
  Rng rng(77);
  for (int wave = 0; wave < 3; ++wave) {
    attack::random_msb_flips(*p.qm, 4, rng);
    pm.forward(probe.images);
  }
  EXPECT_EQ(pm.detections(), 3);
  EXPECT_GE(pm.groups_recovered(), 3);
  p.qm->restore(clean);
}

TEST(Integration, SmallerGroupsRecoverBetter) {
  // The paper's storage/accuracy trade-off, qualitatively: finer groups
  // zero out less collateral weight mass.
  Pipeline& p = pipeline();
  const quant::ArenaSnapshot clean = p.qm->snapshot();
  attack::Pbfa pbfa;
  data::Batch batch = p.dataset->attack_batch(32, 888);
  attack::AttackResult r = pbfa.run(*p.qm, batch, 6);
  const quant::ArenaSnapshot attacked = p.qm->snapshot();

  double acc_small, acc_large;
  {
    p.qm->restore(clean);
    core::SchemeParams cfg;
    cfg.group_size = 16;
    core::RadarScheme scheme(cfg, 2);
    scheme.attach(*p.qm);
    p.qm->restore(attacked);
    scheme.recover(*p.qm, scheme.scan(*p.qm), core::RecoveryPolicy::kZeroOut);
    acc_small = p.accuracy();
  }
  {
    p.qm->restore(clean);
    core::SchemeParams cfg;
    cfg.group_size = 256;
    core::RadarScheme scheme(cfg, 2);
    scheme.attach(*p.qm);
    p.qm->restore(attacked);
    scheme.recover(*p.qm, scheme.scan(*p.qm), core::RecoveryPolicy::kZeroOut);
    acc_large = p.accuracy();
  }
  // Not strictly monotone per-round, but G=16 should not lose to G=256 by
  // a wide margin; typically it wins.
  EXPECT_GE(acc_small + 0.08, acc_large);
  (void)r;
  p.qm->restore(clean);
}

}  // namespace
}  // namespace radar
