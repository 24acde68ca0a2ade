// Differential battery: a campaign's serialized report must be
// bit-identical no matter how many worker threads (or per-trial scan
// threads) produced it, across randomly generated specs — the property
// that makes campaign sweeps trustworthy regression anchors.
#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "common/rng.h"

namespace radar::campaign {
namespace {

CampaignSpec base_spec() {
  CampaignSpec spec;
  spec.name = "diff";
  spec.model = "tiny";
  spec.train = false;
  spec.trials = 2;
  spec.seed = 1234;
  spec.attackers = {{.kind = "random_msb", .flips = 6},
                    {.kind = "random", .flips = 6}};
  SchemeSpec ilv;
  ilv.params.group_size = 32;
  SchemeSpec contig;
  contig.params.group_size = 32;
  contig.params.interleave = false;
  spec.schemes = {ilv, contig};
  return spec;
}

std::string run_json(const CampaignSpec& spec, std::size_t threads,
                     std::size_t scan_threads = 1) {
  const CampaignReport report =
      CampaignRunner(threads, scan_threads).run(spec);
  // CSV and JSON must both be deterministic; fold both into the digest.
  return report.to_json() + report.to_csv();
}

TEST(CampaignDeterminism, OneVsManyThreads) {
  const CampaignSpec spec = base_spec();
  const std::string serial = run_json(spec, 1);
  EXPECT_EQ(serial, run_json(spec, 4));
  EXPECT_EQ(serial, run_json(spec, 8));
}

TEST(CampaignDeterminism, PooledScanMatchesSerialScan) {
  // Per-trial sweeps drain over a scan pool when scan_threads != 1; the
  // pooled drain must leave the campaign report bit-identical to the
  // serial sweep.
  CampaignSpec spec = base_spec();
  spec.attackers[0].flips = 10;
  const std::string serial = run_json(spec, 1, /*scan_threads=*/1);
  EXPECT_EQ(serial, run_json(spec, 1, /*scan_threads=*/4));
  EXPECT_EQ(serial, run_json(spec, 3, /*scan_threads=*/2));
}

TEST(CampaignDeterminism, AccuracyEvaluationPath) {
  CampaignSpec spec = base_spec();
  spec.eval_subset = 64;
  spec.trials = 2;
  spec.schemes.resize(1);
  EXPECT_EQ(run_json(spec, 1), run_json(spec, 6));
}

TEST(CampaignDeterminism, EvalEngineAndBatchInvariance) {
  // The int8 engine accumulates exactly in int32, so the direct-conv
  // reference kernels, the tiled im2col+GEMM kernels, and every eval
  // batch size must produce byte-identical reports.
  CampaignSpec spec = base_spec();
  spec.eval_subset = 48;
  spec.trials = 2;
  spec.schemes.resize(1);
  auto run_with = [&](EvalOptions eval, std::size_t threads) {
    const CampaignReport report =
        CampaignRunner(threads, 1, ScanMode::kFull, eval).run(spec);
    return report.to_json() + report.to_csv();
  };
  const std::string baseline = run_with({}, 1);
  EXPECT_EQ(baseline,
            run_with({.batch = 0, .engine = qnn::EngineKind::kReference}, 1));
  EXPECT_EQ(baseline,
            run_with({.batch = 1, .engine = qnn::EngineKind::kBatched}, 1));
  EXPECT_EQ(baseline,
            run_with({.batch = 7, .engine = qnn::EngineKind::kBatched}, 3));
  EXPECT_EQ(baseline,
            run_with({.batch = 17, .engine = qnn::EngineKind::kReference}, 2));
}

TEST(CampaignDeterminism, IncrementalEvalMatchesFullWithAccuracies) {
  // The incremental engine adds the clean-baseline eval cache (reload
  // recovery can return the model exactly to baseline); reports must stay
  // byte-identical to the full engine with accuracies enabled.
  CampaignSpec spec = base_spec();
  spec.eval_subset = 48;
  spec.trials = 2;
  spec.policy = core::RecoveryPolicy::kReloadClean;
  auto run_mode = [&](ScanMode mode, std::size_t threads) {
    const CampaignReport report =
        CampaignRunner(threads, 1, mode).run(spec);
    return report.to_json() + report.to_csv();
  };
  const std::string full = run_mode(ScanMode::kFull, 1);
  EXPECT_EQ(full, run_mode(ScanMode::kIncremental, 1));
  EXPECT_EQ(full, run_mode(ScanMode::kIncremental, 4));
}

TEST(CampaignDeterminism, PbfaAndKnowledgeableProfiles) {
  CampaignSpec spec = base_spec();
  spec.attackers = {
      {.kind = "pbfa", .flips = 3, .attack_batch = 8},
      {.kind = "knowledgeable",
       .flips = 3,
       .assumed_group_size = 32,
       .attack_batch = 8}};
  EXPECT_EQ(run_json(spec, 1), run_json(spec, 5));
}

TEST(CampaignDeterminism, RandomSpecsSweep) {
  Rng rng(2026);
  const std::vector<std::string> scheme_ids = {"radar2", "radar3", "crc7",
                                               "fletcher"};
  for (int round = 0; round < 3; ++round) {
    CampaignSpec spec;
    spec.name = "fuzz" + std::to_string(round);
    spec.model = "tiny";
    spec.train = false;
    spec.trials = 1 + static_cast<int>(rng.uniform_int(0, 1));
    spec.seed = rng.bits();
    spec.fault_rates = {0.0};
    if (rng.bernoulli(0.5)) spec.fault_rates.push_back(1e-4);
    const int n_attackers = 1 + static_cast<int>(rng.uniform_int(0, 1));
    for (int a = 0; a < n_attackers; ++a) {
      AttackerSpec atk;
      atk.kind = rng.bernoulli(0.5) ? "random_msb" : "random";
      atk.flips = 1 + static_cast<int>(rng.uniform_int(0, 11));
      spec.attackers.push_back(atk);
    }
    const int n_schemes = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int s = 0; s < n_schemes; ++s) {
      SchemeSpec sch;
      sch.id = scheme_ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(scheme_ids.size()) - 1))];
      sch.params.group_size = std::int64_t{16}
                              << rng.uniform_int(0, 2);  // 16/32/64
      sch.params.interleave = rng.bernoulli(0.5);
      spec.schemes.push_back(sch);
    }
    const std::size_t threads = 2 + static_cast<std::size_t>(
                                        rng.uniform_int(0, 4));
    EXPECT_EQ(run_json(spec, 1), run_json(spec, threads))
        << "spec:\n" << spec.to_json();
  }
}

TEST(CampaignDeterminism, SubSpecReproducesFullSpecCells) {
  // Profile RNG streams are derived from the *content* of each
  // (attacker, fault-rate) group, not its matrix position — so deleting a
  // row from a spec (or loading its profiles from the disk cache) leaves
  // every remaining cell bit-identical.
  CampaignSpec spec = base_spec();
  spec.cache_tag = "difftest";
  spec.seed = 0xCAC4E;
  const CampaignReport full = CampaignRunner(2).run(spec);

  CampaignSpec sub = spec;
  sub.attackers = {spec.attackers[1]};  // keep only the second attacker
  const CampaignReport part = CampaignRunner(1).run(sub);
  for (std::size_t si = 0; si < spec.schemes.size(); ++si) {
    EXPECT_DOUBLE_EQ(part.cell(0, 0, si).mean_detected,
                     full.cell(1, 0, si).mean_detected);
    EXPECT_DOUBLE_EQ(part.cell(0, 0, si).mean_flips,
                     full.cell(1, 0, si).mean_flips);
    EXPECT_DOUBLE_EQ(part.cell(0, 0, si).mean_flagged_groups,
                     full.cell(1, 0, si).mean_flagged_groups);
  }
}

TEST(CampaignDeterminism, SeedChangesResults) {
  // Sanity guard: the determinism above is not because everything
  // collapses to the same constant output.
  CampaignSpec spec = base_spec();
  const std::string a = run_json(spec, 2);
  spec.seed ^= 0xDEADBEEF;
  EXPECT_NE(a, run_json(spec, 2));
}

}  // namespace
}  // namespace radar::campaign
