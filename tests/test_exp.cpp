// Experiment workspace: bundle/profile caching, replay invariants.
// Uses the seconds-scale "tiny" bundle and a temporary cache directory.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "common/env.h"
#include "common/serialize.h"
#include "exp/workspace.h"

namespace radar::exp {
namespace {

class ExpWorkspace : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cache_dir_ = "/tmp/radar_test_cache_" + std::to_string(::getpid());
    ::setenv("RADAR_CACHE_DIR", cache_dir_.c_str(), 1);
  }
  static void TearDownTestSuite() {
    ::unsetenv("RADAR_CACHE_DIR");
    std::filesystem::remove_all(cache_dir_);
  }
  static std::string cache_dir_;
};

std::string ExpWorkspace::cache_dir_;

TEST_F(ExpWorkspace, TrainAndCacheRoundTrip) {
  ModelBundle first = load_or_train("tiny");
  EXPECT_GT(first.clean_accuracy, 0.5);
  EXPECT_TRUE(radar::file_exists(cache_dir_ + "/tiny.ckpt"));
  // Second load must come from the checkpoint and match exactly.
  ModelBundle second = load_or_train("tiny");
  EXPECT_DOUBLE_EQ(first.clean_accuracy, second.clean_accuracy);
  ASSERT_EQ(first.qmodel->num_layers(), second.qmodel->num_layers());
  EXPECT_EQ(first.qmodel->snapshot(), second.qmodel->snapshot());
}

TEST_F(ExpWorkspace, UnknownModelIdRejected) {
  EXPECT_THROW(load_or_train("resnet1000"), InvalidArgument);
}

TEST_F(ExpWorkspace, LayerSizesMatchModel) {
  ModelBundle b = load_or_train("tiny");
  const auto sizes = b.layer_sizes();
  ASSERT_EQ(sizes.size(), b.qmodel->num_layers());
  std::int64_t total = 0;
  for (const auto s : sizes) total += s;
  EXPECT_EQ(total, b.qmodel->total_weights());
}

TEST_F(ExpWorkspace, PbfaProfilesCachedAndModelRestored) {
  ModelBundle b = load_or_train("tiny");
  const quant::ArenaSnapshot before = b.qmodel->snapshot();
  const auto first = load_or_run_pbfa(b, 4, 2, "test", 64);
  ASSERT_EQ(first.size(), 2u);
  for (const auto& round : first) {
    EXPECT_EQ(round.flips.size(), 4u);
    EXPECT_GE(round.accuracy_after, 0.0);
  }
  // The attack runs restore the clean snapshot.
  EXPECT_EQ(b.qmodel->snapshot(), before);
  // Cached reload is identical.
  const auto second = load_or_run_pbfa(b, 4, 2, "test", 64);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t r = 0; r < first.size(); ++r) {
    ASSERT_EQ(second[r].flips.size(), first[r].flips.size());
    for (std::size_t f = 0; f < first[r].flips.size(); ++f) {
      EXPECT_EQ(second[r].flips[f].index, first[r].flips[f].index);
      EXPECT_EQ(second[r].flips[f].bit, first[r].flips[f].bit);
    }
  }
}

TEST_F(ExpWorkspace, ReplayDetectionAndRestoration) {
  ModelBundle b = load_or_train("tiny");
  const auto profiles = load_or_run_pbfa(b, 4, 2, "test", 64);
  const quant::ArenaSnapshot before = b.qmodel->snapshot();

  core::SchemeParams rc;
  rc.group_size = 16;
  const RecoveryOutcome o = replay_and_recover(b, profiles[0], rc, 2, 4, 64);
  EXPECT_EQ(o.flips_total, 4);
  EXPECT_GE(o.flips_detected, 3);  // PBFA flips are MSB-dominated
  EXPECT_GE(o.accuracy_recovered, 0.0);
  EXPECT_EQ(b.qmodel->snapshot(), before);  // replay must be side-effect-free
}

TEST_F(ExpWorkspace, ReplayPrefixUsesFewerFlips) {
  ModelBundle b = load_or_train("tiny");
  const auto profiles = load_or_run_pbfa(b, 4, 2, "test", 64);
  core::SchemeParams rc;
  rc.group_size = 16;
  const RecoveryOutcome o2 =
      replay_and_recover(b, profiles[0], rc, 2, 2, /*eval=*/0);
  EXPECT_EQ(o2.flips_total, 2);
  EXPECT_LE(o2.flips_detected, 2);
}

TEST_F(ExpWorkspace, SummaryAveragesOverRounds) {
  ModelBundle b = load_or_train("tiny");
  const auto profiles = load_or_run_pbfa(b, 4, 2, "test", 64);
  core::SchemeParams rc;
  rc.group_size = 16;
  const RecoverySummary s =
      summarize_recovery(b, profiles, rc, 2, 4, /*eval=*/0);
  EXPECT_EQ(s.rounds, 2);
  EXPECT_GE(s.mean_detected, 0.0);
  EXPECT_LE(s.mean_detected, 4.0);
}

TEST_F(ExpWorkspace, KnowledgeableProfilesHaveDecoys) {
  ModelBundle b = load_or_train("tiny");
  const auto profiles = load_or_run_knowledgeable(b, 3, 1, 16, 64);
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_GT(profiles[0].flips.size(), 3u);  // primaries + decoys
}

TEST_F(ExpWorkspace, RestrictedPbfaHonorsBits) {
  ModelBundle b = load_or_train("tiny");
  const auto profiles =
      load_or_run_restricted_pbfa(b, 3, 1, {6}, "msb1test", 64);
  for (const auto& f : profiles[0].flips) EXPECT_EQ(f.bit, 6);
}

}  // namespace
}  // namespace radar::exp
