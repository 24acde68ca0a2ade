// RadarScheme end-to-end on a quantized network: golden signatures,
// scanning, detection accounting, recovery policies, re-signing.
#include <gtest/gtest.h>

#include "core/scanner.h"
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

class SchemeTest : public ::testing::Test {
 protected:
  SchemeTest() : rng_(42), model_(tiny_spec(), rng_), qm_(model_) {}

  static RadarScheme make(std::int64_t g = 32, bool interleave = true,
                          int bits = 2) {
    SchemeParams p;
    p.group_size = g;
    p.interleave = interleave;
    return RadarScheme(p, bits);
  }

  Rng rng_;
  nn::ResNet model_;
  quant::QuantizedModel qm_;
};

TEST_F(SchemeTest, CleanModelScansClean) {
  RadarScheme scheme = make();
  scheme.attach(qm_);
  const DetectionReport report = scheme.scan(qm_);
  EXPECT_FALSE(report.attack_detected());
  EXPECT_EQ(report.num_flagged_groups(), 0);
}

TEST_F(SchemeTest, SingleMsbFlipFlagsExactlyItsGroup) {
  RadarScheme scheme = make();
  scheme.attach(qm_);
  qm_.flip_bit(2, 7, 7);
  const DetectionReport report = scheme.scan(qm_);
  EXPECT_TRUE(report.attack_detected());
  EXPECT_EQ(report.num_flagged_groups(), 1);
  const std::int64_t expected_group = scheme.layout(2).group_of(7);
  EXPECT_TRUE(report.is_flagged(2, expected_group));
}

TEST_F(SchemeTest, MultipleFlipsAcrossLayersAllFlagged) {
  RadarScheme scheme = make();
  scheme.attach(qm_);
  std::vector<std::pair<std::size_t, std::int64_t>> sites = {
      {0, 3}, {1, 50}, {3, 11}};
  for (auto [l, i] : sites) qm_.flip_bit(l, i, 7);
  const DetectionReport report = scheme.scan(qm_);
  EXPECT_EQ(count_detected_flips(scheme, report, sites), 3);
}

TEST_F(SchemeTest, ScanLayerMatchesFullScan) {
  RadarScheme scheme = make();
  scheme.attach(qm_);
  qm_.flip_bit(1, 20, 7);
  const DetectionReport full = scheme.scan(qm_);
  const auto layer1 = scheme.scan_layer(qm_, 1);
  EXPECT_EQ(full.flagged[1], layer1);
  EXPECT_TRUE(scheme.scan_layer(qm_, 0).empty());
}

TEST_F(SchemeTest, ZeroOutRecoveryZeroesWholeGroup) {
  RadarScheme scheme = make();
  scheme.attach(qm_);
  qm_.flip_bit(2, 7, 7);
  const DetectionReport report = scheme.scan(qm_);
  scheme.recover(qm_, report, RecoveryPolicy::kZeroOut);
  const std::int64_t group = scheme.layout(2).group_of(7);
  for (const std::int64_t idx : scheme.layout(2).group_members(group)) {
    EXPECT_EQ(qm_.get_code(2, idx), 0);
    EXPECT_FLOAT_EQ(qm_.layer(2).param->value[idx], 0.0f);
  }
}

TEST_F(SchemeTest, ZeroOutLeavesOtherGroupsUntouched) {
  RadarScheme scheme = make();
  scheme.attach(qm_);
  const quant::ArenaSnapshot before = qm_.snapshot();
  qm_.flip_bit(2, 7, 7);
  const DetectionReport report = scheme.scan(qm_);
  scheme.recover(qm_, report, RecoveryPolicy::kZeroOut);
  const std::int64_t group = scheme.layout(2).group_of(7);
  for (std::int64_t i = 0; i < qm_.layer(2).size(); ++i) {
    if (scheme.layout(2).group_of(i) == group) continue;
    EXPECT_EQ(qm_.get_code(2, i), before.span(2)[static_cast<std::size_t>(i)]);
  }
}

TEST_F(SchemeTest, ReloadCleanRestoresExactWeights) {
  RadarScheme scheme = make();
  scheme.attach(qm_);
  const quant::ArenaSnapshot clean = qm_.snapshot();
  qm_.flip_bit(0, 1, 7);
  qm_.flip_bit(0, 2, 6);
  const DetectionReport report = scheme.scan(qm_);
  scheme.recover(qm_, report, RecoveryPolicy::kReloadClean);
  // Flagged groups are byte-identical to the clean model again.
  const DetectionReport after = scheme.scan(qm_);
  EXPECT_FALSE(after.attack_detected());
  EXPECT_EQ(qm_.get_code(0, 1), clean.span(0)[1]);
}

TEST_F(SchemeTest, ResignAcceptsAuthorizedUpdate) {
  RadarScheme scheme = make();
  scheme.attach(qm_);
  // An authorized in-place update (not an attack): change a weight, then
  // re-sign. The scheme must stop flagging it.
  qm_.set_code(1, 5, 99);
  EXPECT_TRUE(scheme.scan(qm_).attack_detected());
  scheme.resign(qm_);
  EXPECT_FALSE(scheme.scan(qm_).attack_detected());
}

TEST_F(SchemeTest, StorageBytesMatchPerLayerPacking) {
  RadarScheme scheme = make(32, true, 2);
  scheme.attach(qm_);
  std::int64_t expected = 0;
  for (std::size_t li = 0; li < qm_.num_layers(); ++li) {
    const std::int64_t groups = (qm_.layer(li).size() + 31) / 32;
    expected += (groups * 2 + 7) / 8;
  }
  EXPECT_EQ(scheme.signature_storage_bytes(), expected);
}

TEST_F(SchemeTest, ThreeBitSignatureCostsFiftyPercentMore) {
  RadarScheme s2 = make(32, true, 2);
  RadarScheme s3 = make(32, true, 3);
  s2.attach(qm_);
  s3.attach(qm_);
  const double ratio = static_cast<double>(s3.signature_storage_bytes()) /
                       static_cast<double>(s2.signature_storage_bytes());
  EXPECT_NEAR(ratio, 1.5, 0.05);
}

TEST_F(SchemeTest, SmallerGroupsMoreStorage) {
  RadarScheme coarse = make(128);
  RadarScheme fine = make(8);
  coarse.attach(qm_);
  fine.attach(qm_);
  EXPECT_GT(fine.signature_storage_bytes(),
            coarse.signature_storage_bytes() * 8);
}

TEST_F(SchemeTest, DetectsMsb1FlipWith3Bits) {
  RadarScheme scheme = make(32, true, 3);
  scheme.attach(qm_);
  qm_.flip_bit(1, 9, 6);  // MSB-1
  EXPECT_TRUE(scheme.scan(qm_).attack_detected());
}

TEST_F(SchemeTest, InterleaveSplitsAdjacentFlips) {
  // Two adjacent weights: same group without interleave, different groups
  // with interleave.
  RadarScheme inter = make(32, true);
  RadarScheme contig = make(32, false);
  inter.attach(qm_);
  contig.attach(qm_);
  EXPECT_EQ(contig.layout(0).group_of(10), contig.layout(0).group_of(11));
  EXPECT_NE(inter.layout(0).group_of(10), inter.layout(0).group_of(11));
}

TEST_F(SchemeTest, ScanBeforeAttachThrows) {
  RadarScheme scheme = make();
  EXPECT_THROW(scheme.scan(qm_), InvalidArgument);
}

TEST_F(SchemeTest, ConfigValidation) {
  SchemeParams bad;
  bad.group_size = 0;
  EXPECT_THROW((RadarScheme{bad, 2}), InvalidArgument);
  EXPECT_THROW((RadarScheme{SchemeParams{}, 5}), InvalidArgument);
}

TEST_F(SchemeTest, GoldenExportImportRoundTrip) {
  RadarScheme a = make();
  a.attach(qm_);
  const auto exported = a.export_golden();
  EXPECT_EQ(exported.size(), qm_.num_layers());

  // A scheme whose golden state was computed from a *tampered* model
  // becomes correct again after importing the clean export.
  qm_.flip_bit(0, 2, 7);
  RadarScheme b = make();
  b.attach(qm_);                      // blesses the tampered state
  EXPECT_FALSE(b.scan(qm_).attack_detected());
  b.import_golden(exported);          // restore the signed truth
  const DetectionReport report = b.scan(qm_);
  EXPECT_TRUE(report.attack_detected());
  EXPECT_TRUE(report.is_flagged(0, b.layout(0).group_of(2)));
  qm_.flip_bit(0, 2, 7);  // restore
}

TEST_F(SchemeTest, ImportGoldenValidatesShape) {
  RadarScheme scheme = make();
  scheme.attach(qm_);
  auto exported = scheme.export_golden();
  exported.pop_back();
  EXPECT_THROW(scheme.import_golden(exported), InvalidArgument);
  RadarScheme fresh = make();
  EXPECT_THROW(fresh.import_golden(scheme.export_golden()),
               InvalidArgument);
}

TEST_F(SchemeTest, ResignLayerIsScoped) {
  RadarScheme scheme = make();
  scheme.attach(qm_);
  qm_.flip_bit(1, 4, 7);
  qm_.flip_bit(3, 8, 7);
  // Re-signing only layer 1 must keep layer 3 flagged.
  scheme.resign_layer(qm_, 1);
  const DetectionReport report = scheme.scan(qm_);
  EXPECT_TRUE(report.flagged[1].empty());
  EXPECT_FALSE(report.flagged[3].empty());
  EXPECT_THROW(scheme.resign_layer(qm_, 99), InvalidArgument);
}

TEST(LayerScanner, MatchesReferencePrimitives) {
  Rng rng(55);
  std::vector<std::int8_t> w(1000);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (const bool inter : {false, true}) {
    for (const int bits : {2, 3}) {
      const GroupLayout layout =
          inter ? GroupLayout::interleaved(1000, 64, 3)
                : GroupLayout::contiguous(1000, 64);
      const MaskStream mask(0xA1B2);
      const LayerScanner scanner(layout, mask, bits);
      const auto sigs = scanner.scan(w);
      ASSERT_EQ(static_cast<std::int64_t>(sigs.size()), layout.num_groups());
      for (std::int64_t g = 0; g < layout.num_groups(); ++g) {
        EXPECT_TRUE(sigs[static_cast<std::size_t>(g)] ==
                    group_signature(w, layout, g, mask, bits))
            << "group " << g << " inter=" << inter << " bits=" << bits;
      }
    }
  }
}

TEST(LayerScanner, MaskedSumsMatchReference) {
  Rng rng(56);
  std::vector<std::int8_t> w(257);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  const GroupLayout layout = GroupLayout::interleaved(257, 16, 3);
  const MaskStream mask(0x1357);
  const LayerScanner scanner(layout, mask, 2);
  ScanScratch scratch;
  scanner.masked_sums_range_into(w, 0, layout.num_groups(), scratch);
  for (std::int64_t g = 0; g < layout.num_groups(); ++g)
    EXPECT_EQ(scratch.sums[static_cast<std::size_t>(g)],
              masked_group_sum(w, layout, g, mask));
}

// The branch-free signature words the bulk golden compare reads are
// binarize()'s bits, on every range of either layout and both widths.
TEST(LayerScanner, SignatureWordsMatchBinarize) {
  Rng rng(57);
  std::vector<std::int8_t> w(1000);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (const bool inter : {false, true}) {
    const GroupLayout layout = inter ? GroupLayout::interleaved(1000, 64, 3)
                                     : GroupLayout::contiguous(1000, 64);
    const std::int64_t ng = layout.num_groups();
    for (const int bits : {2, 3}) {
      const LayerScanner scanner(layout, MaskStream(0xA1B3), bits);
      ScanScratch scratch;
      for (const auto& [b, e] : {std::pair<std::int64_t, std::int64_t>{0, ng},
                                 {3, 11}, {ng - 1, ng}, {5, 5}}) {
        scanner.signature_words_range_into(w, b, e, scratch);
        ASSERT_EQ(static_cast<std::int64_t>(scratch.state.size()), e - b);
        for (std::int64_t g = b; g < e; ++g)
          EXPECT_EQ(scratch.state[static_cast<std::size_t>(g - b)],
                    binarize(scanner.group_sum(w, g), bits).bits)
              << "group " << g << " inter=" << inter << " bits=" << bits;
      }
    }
  }
}

TEST(LayerScanner, SizeMismatchThrows) {
  const GroupLayout layout = GroupLayout::contiguous(64, 8);
  const MaskStream mask(1);
  const LayerScanner scanner(layout, mask, 2);
  std::vector<std::int8_t> wrong(65, 0);
  EXPECT_THROW(scanner.scan(wrong), InvalidArgument);
  EXPECT_THROW(LayerScanner(layout, mask, 4), InvalidArgument);
}

TEST_F(SchemeTest, DetectionReportIsFlaggedOutOfRange) {
  DetectionReport r;
  r.flagged = {{1, 5}, {}};
  EXPECT_TRUE(r.is_flagged(0, 5));
  EXPECT_FALSE(r.is_flagged(0, 2));
  EXPECT_FALSE(r.is_flagged(7, 0));  // layer beyond report: not flagged
}

}  // namespace
}  // namespace radar::core
