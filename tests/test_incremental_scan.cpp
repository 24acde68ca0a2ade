// Incremental-scan differential battery.
//
// Three independent engines must agree bit for bit on every random layout,
// attack and recovery sequence:
//   (a) the reference scalar primitives (masked_group_sum / binarize —
//       the pre-PR ground truth the original kernel was tested against),
//   (b) the vectorized full scan (LayerScanner range kernel via a
//       ScanScheduler sweep),
//   (c) the incremental dirty-group scan (ScanScheduler::scan_dirty_into).
// Plus the undo path: undo_dirty() must return the model to its exact
// prior int8 and float state after arbitrary tracked mutation sequences.
#include <gtest/gtest.h>

#include <vector>

#include "common/bits.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "core/checksum.h"
#include "core/scan_scheduler.h"
#include "core/scanner.h"
#include "core/scheme_registry.h"

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

/// One pass of the kernel battery: random layouts / group sizes /
/// interleave / skew (up to 3 Ng, so the per-row column step wraps),
/// whole-layer, narrow, random range-window and empty-range scans, all
/// checked against the scalar masked_group_sum ground truth. Runs under
/// whatever SIMD level is active, so the level-sweep test below exercises
/// every dispatched variant against the same reference.
void run_scan_kernel_battery(Rng& rng, int trials) {
  for (int trial = 0; trial < trials; ++trial) {
    const std::int64_t w_count = rng.uniform_int(1, 3000);
    const std::int64_t g = rng.uniform_int(1, 96);
    const bool inter = rng.uniform_int(0, 1) == 1;
    const std::int64_t ng = (w_count + g - 1) / g;
    const std::int64_t skew = rng.uniform_int(0, 3 * ng);
    const GroupLayout layout =
        inter ? GroupLayout::interleaved(w_count, g, skew)
              : GroupLayout::contiguous(w_count, g);
    ASSERT_EQ(layout.num_groups(), ng);
    const MaskStream mask(static_cast<std::uint16_t>(rng.bits() & 0xFFFF),
                          rng.uniform_int(0, 1) == 0
                              ? MaskStream::Expansion::kRepeat
                              : MaskStream::Expansion::kPrf);
    std::vector<std::int8_t> w(static_cast<std::size_t>(w_count));
    for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    const std::span<const std::int8_t> ws(w.data(), w.size());
    const int bits = rng.uniform_int(0, 1) == 0 ? 2 : 3;
    const LayerScanner scanner(layout, mask, bits);
    std::vector<std::int64_t> ref(static_cast<std::size_t>(ng));
    for (std::int64_t grp = 0; grp < ng; ++grp) {
      ref[static_cast<std::size_t>(grp)] =
          masked_group_sum(ws, layout, grp, mask);
      EXPECT_EQ(scanner.group_sum(ws, grp), ref[static_cast<std::size_t>(grp)])
          << "narrow scan, trial " << trial << " group " << grp;
      EXPECT_TRUE(scanner.group_signature_at(ws, grp) ==
                  group_signature(ws, layout, grp, mask, bits))
          << "signature, trial " << trial << " group " << grp;
    }
    // The dense kernel: the whole layer [0, ng), random group ranges and
    // an empty range must each reproduce the scalar sums of their groups
    // exactly (the sharded whole-model scan is bit-identical only because
    // of this).
    ScanScratch scratch;
    const auto check_range = [&](std::int64_t lo, std::int64_t hi) {
      scanner.masked_sums_range_into(ws, lo, hi, scratch);
      ASSERT_EQ(scratch.sums.size(), static_cast<std::size_t>(hi - lo));
      for (std::int64_t grp = lo; grp < hi; ++grp)
        EXPECT_EQ(scratch.sums[static_cast<std::size_t>(grp - lo)],
                  ref[static_cast<std::size_t>(grp)])
            << "range [" << lo << ", " << hi << "), trial " << trial
            << " group " << grp;
    };
    check_range(0, ng);
    const std::int64_t empty_at = rng.uniform_int(0, ng);
    check_range(empty_at, empty_at);
    for (int r = 0; r < 6; ++r) {
      const std::int64_t a = rng.uniform_int(0, ng);
      const std::int64_t b = rng.uniform_int(0, ng);
      check_range(std::min(a, b), std::max(a, b));
    }
  }
}

TEST(ScanKernel, MatchesScalarReferenceOnRandomLayouts) {
  Rng rng(0x5CA);
  run_scan_kernel_battery(rng, 40);
}

TEST(ScanKernel, EveryDispatchLevelMatchesScalarReference) {
  // The same battery under each level this machine supports: the
  // dispatched dot/masked_add_rows variants must reproduce the scalar
  // ground truth bit for bit on every random layout.
  for (int l = 0; l < cpu::kNumSimdLevels; ++l) {
    const auto lvl = static_cast<cpu::SimdLevel>(l);
    if (!cpu::level_supported(lvl)) continue;
    SCOPED_TRACE(cpu::level_name(lvl));
    cpu::ScopedSimdLevel guard(lvl);
    Rng rng(0x51D0 + l);
    run_scan_kernel_battery(rng, 15);
  }
}

class IncrementalScanTest : public ::testing::Test {
 protected:
  IncrementalScanTest() : rng_(17), model_(tiny_spec(), rng_), qm_(model_) {}

  Rng rng_;
  nn::ResNet model_;
  quant::QuantizedModel qm_;
};

TEST_F(IncrementalScanTest, UndoDirtyRestoresExactState) {
  const quant::ArenaSnapshot before = qm_.snapshot();
  std::vector<float> float_before;
  for (std::size_t li = 0; li < qm_.num_layers(); ++li) {
    const auto& p = *qm_.layer(li).param;
    float_before.insert(float_before.end(), p.value.data(),
                        p.value.data() + p.value.numel());
  }
  qm_.set_dirty_tracking(true);
  Rng rng(0xD1E7);
  for (int i = 0; i < 200; ++i) {
    const auto li = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(qm_.num_layers()) - 1));
    const std::int64_t idx = rng.uniform_int(0, qm_.layer(li).size() - 1);
    if (rng.uniform_int(0, 3) == 0) {
      qm_.set_code(li, idx,
                   static_cast<std::int8_t>(rng.uniform_int(-128, 127)));
    } else {
      qm_.flip_bit(li, idx, static_cast<int>(rng.uniform_int(0, 7)));
    }
  }
  EXPECT_EQ(qm_.dirty_writes().size(), 200u);
  qm_.undo_dirty();
  EXPECT_TRUE(qm_.dirty_writes().empty());
  EXPECT_EQ(qm_.snapshot(), before);
  std::size_t k = 0;
  for (std::size_t li = 0; li < qm_.num_layers(); ++li) {
    const auto& p = *qm_.layer(li).param;
    for (std::int64_t i = 0; i < p.value.numel(); ++i, ++k)
      ASSERT_EQ(p.value.data()[i], float_before[k]) << "layer " << li;
  }
}

TEST_F(IncrementalScanTest, IncrementalMatchesFullUnderAttackAndRecovery) {
  Rng rng(0xF00D);
  SchemeParams params;
  for (const auto& id : SchemeRegistry::instance().ids()) {
    for (const bool interleave : {true, false}) {
      params.group_size = rng.uniform_int(4, 64);
      params.interleave = interleave;
      params.skew = rng.uniform_int(0, 5);
      auto scheme = SchemeRegistry::instance().create(id, params);
      scheme->attach(qm_);
      ScanScheduler sched;
      sched.plan(*scheme, {});
      qm_.set_dirty_tracking(true);  // clean state = incremental baseline
      DetectionReport full, inc;
      for (int round = 0; round < 6; ++round) {
        const int n_flips = static_cast<int>(rng.uniform_int(1, 15));
        std::vector<std::pair<std::size_t, std::int64_t>> sites;
        for (int f = 0; f < n_flips; ++f) {
          const auto li = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(qm_.num_layers()) - 1));
          const std::int64_t idx =
              rng.uniform_int(0, qm_.layer(li).size() - 1);
          qm_.flip_bit(li, idx, static_cast<int>(rng.uniform_int(0, 7)));
          sites.emplace_back(li, idx);
        }
        // Three engines on the attacked state.
        const DetectionReport legacy = scheme->scan(qm_);
        full = sched.sweep(qm_);
        sched.scan_dirty_into(qm_, inc);
        ASSERT_EQ(legacy.flagged, full.flagged)
            << id << " legacy-vs-vectorized, round " << round;
        ASSERT_EQ(full.flagged, inc.flagged)
            << id << " full-vs-incremental, round " << round;
        ASSERT_EQ(count_detected_flips(*scheme, full, sites),
                  count_detected_flips(*scheme, inc, sites));
        // Recovery writes are tracked too; the incremental scan stays
        // valid against the attach-time baseline afterwards.
        scheme->recover(qm_, full, RecoveryPolicy::kZeroOut);
        full = sched.sweep(qm_);
        sched.scan_dirty_into(qm_, inc);
        ASSERT_EQ(full.flagged, inc.flagged)
            << id << " post-recovery, round " << round;
        // Back to clean for the next round, via the write-level undo.
        qm_.undo_dirty();
        sched.scan_dirty_into(qm_, inc);
        ASSERT_FALSE(inc.attack_detected()) << id << " after undo";
      }
      qm_.set_dirty_tracking(false);
    }
  }
}

TEST_F(IncrementalScanTest, DirtyFractionAboveQuarterTakesFullScanPath) {
  auto scheme = SchemeRegistry::instance().create(
      "radar2", SchemeParams{.group_size = 16});
  scheme->attach(qm_);
  ScanScheduler sched;
  sched.plan(*scheme, {});
  qm_.set_dirty_tracking(true);
  qm_.flip_bit(0, 5, kMsb);
  DetectionReport inc;
  sched.scan_dirty_into(qm_, inc);
  EXPECT_EQ(sched.sweeps(), 0u) << "one dirty group takes the narrow path";
  EXPECT_TRUE(inc.attack_detected());
  // Dirty every third group of every layer (a third of all groups, past
  // the quarter threshold): the dirty scan degenerates to a full sweep.
  for (std::size_t li = 0; li < qm_.num_layers(); ++li) {
    const GroupLayout& layout = scheme->layout(li);
    for (std::int64_t i = 0; i < qm_.layer(li).size(); ++i)
      if (layout.group_of(i) % 3 == 0) qm_.flip_bit(li, i, 0);
  }
  sched.scan_dirty_into(qm_, inc);
  EXPECT_EQ(sched.sweeps(), 1u) << "a third of the groups dirty";
  EXPECT_EQ(inc.flagged, scheme->scan(qm_).flagged);
  EXPECT_TRUE(inc.attack_detected());
  qm_.undo_dirty();
  qm_.set_dirty_tracking(false);
}

TEST_F(IncrementalScanTest, DirtyScanWithoutTrackingFallsBackToFull) {
  auto scheme = SchemeRegistry::instance().create(
      "radar2", SchemeParams{.group_size = 16});
  scheme->attach(qm_);
  ScanScheduler sched;
  sched.plan(*scheme, {});
  qm_.flip_bit(1, 3, kMsb);  // untracked mutation
  DetectionReport inc;
  sched.scan_dirty_into(qm_, inc);  // no log: must rescan everything
  EXPECT_EQ(sched.sweeps(), 1u);
  EXPECT_TRUE(inc.attack_detected());
  qm_.flip_bit(1, 3, kMsb);
}

TEST_F(IncrementalScanTest, ScanLayerGroupsEqualsFilteredFullScan) {
  Rng rng(0xA11);
  for (const auto& id : SchemeRegistry::instance().ids()) {
    auto scheme = SchemeRegistry::instance().create(
        id, SchemeParams{.group_size = 8});
    scheme->attach(qm_);
    for (int f = 0; f < 10; ++f) {
      const auto li = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(qm_.num_layers()) - 1));
      qm_.flip_bit(li, rng.uniform_int(0, qm_.layer(li).size() - 1),
                   static_cast<int>(rng.uniform_int(0, 7)));
    }
    ScanScratch scratch;
    for (std::size_t li = 0; li < qm_.num_layers(); ++li) {
      const std::vector<std::int64_t> all = scheme->scan_layer(qm_, li);
      // Querying every group reproduces the full per-layer scan.
      std::vector<std::int64_t> every(
          static_cast<std::size_t>(scheme->layout(li).num_groups()));
      for (std::size_t g = 0; g < every.size(); ++g)
        every[g] = static_cast<std::int64_t>(g);
      std::vector<std::int64_t> flagged;
      scheme->scan_layer_groups(qm_, li, every, flagged, scratch);
      EXPECT_EQ(flagged, all) << id << " layer " << li;
      // Querying every second group yields exactly the even flagged ones.
      std::vector<std::int64_t> evens;
      for (std::size_t g = 0; g < every.size(); g += 2)
        evens.push_back(static_cast<std::int64_t>(g));
      scheme->scan_layer_groups(qm_, li, evens, flagged, scratch);
      std::vector<std::int64_t> expected;
      for (const std::int64_t g : all)
        if (g % 2 == 0) expected.push_back(g);
      EXPECT_EQ(flagged, expected) << id << " layer " << li;
    }
    // Each scheme re-attaches to the current weights, so the comparisons
    // above never depend on state left over from the previous scheme.
  }
}

}  // namespace
}  // namespace radar::core
